(* One splitmix64 round over (flow, router) gives an independent,
   deterministic per-router hash. *)
let mix flow_id router =
  let open Int64 in
  let z = add (mul (of_int flow_id) 0x9E3779B97F4A7C15L) (of_int (router * 0x85EB)) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 3)

let select ~flow_id ~router (fib : Igp.Fib.t) =
  let weights = Igp.Fib.weights fib in
  let total = List.fold_left (fun acc (_, m) -> acc + m) 0 weights in
  if total = 0 then None
  else begin
    let bucket = mix flow_id router mod total in
    let rec pick remaining = function
      | [] -> None
      | (next_hop, mult) :: rest ->
        if remaining < mult then Some next_hop else pick (remaining - mult) rest
    in
    pick bucket weights
  end

let route_with ~fib ~max_hops ~flow_id ~src =
  let rec walk current hops acc =
    if hops > max_hops then None (* forwarding loop *)
    else begin
      match fib current with
      | None -> None
      | Some f ->
        if f.Igp.Fib.local then Some (List.rev (current :: acc))
        else begin
          match select ~flow_id ~router:current f with
          | None -> None
          | Some next -> walk next (hops + 1) (current :: acc)
        end
    end
  in
  walk src 0 []
