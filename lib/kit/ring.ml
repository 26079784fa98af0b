type 'a t = {
  data : 'a option array;
  mutable head : int; (* next write position *)
  mutable length : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; head = 0; length = 0; dropped = 0 }

let push t x =
  let cap = Array.length t.data in
  if t.length = cap then t.dropped <- t.dropped + 1 else t.length <- t.length + 1;
  t.data.(t.head) <- Some x;
  t.head <- (t.head + 1) mod cap

let dropped t = t.dropped

let iter f t =
  let cap = Array.length t.data in
  let start = (t.head - t.length + (2 * cap)) mod cap in
  for i = 0 to t.length - 1 do
    match t.data.((start + i) mod cap) with
    | Some x -> f x
    | None -> assert false (* slots within [length] are always filled *)
  done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.head <- 0;
  t.length <- 0;
  t.dropped <- 0
