(* The swap-based binary heap [Kit.Heap] used before its sifts moved a
   hole: the reference its pop order, ties included, must match. *)

type 'a t = {
  mutable priorities : float array;
  mutable values : 'a array;
  mutable length : int;
}

let create () = { priorities = [||]; values = [||]; length = 0 }

let grow t value =
  let capacity = Array.length t.priorities in
  if t.length = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let priorities' = Array.make capacity' 0. in
    let values' = Array.make capacity' value in
    Array.blit t.priorities 0 priorities' 0 t.length;
    Array.blit t.values 0 values' 0 t.length;
    t.priorities <- priorities';
    t.values <- values'
  end

let swap t i j =
  let p = t.priorities.(i) in
  t.priorities.(i) <- t.priorities.(j);
  t.priorities.(j) <- p;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.priorities.(i) < t.priorities.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.length && t.priorities.(left) < t.priorities.(!smallest) then
    smallest := left;
  if right < t.length && t.priorities.(right) < t.priorities.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority value =
  grow t value;
  t.priorities.(t.length) <- priority;
  t.values.(t.length) <- value;
  t.length <- t.length + 1;
  sift_up t (t.length - 1)

let pop t =
  if t.length = 0 then None
  else begin
    let priority = t.priorities.(0) and value = t.values.(0) in
    t.length <- t.length - 1;
    if t.length > 0 then begin
      t.priorities.(0) <- t.priorities.(t.length);
      t.values.(0) <- t.values.(t.length);
      sift_down t 0
    end;
    Some (priority, value)
  end

let peek t = if t.length = 0 then None else Some (t.priorities.(0), t.values.(0))
