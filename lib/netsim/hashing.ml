(* One splitmix64 round over (flow, router) gives an independent,
   deterministic per-router hash. *)
let mix flow_id router =
  let open Int64 in
  let z = add (mul (of_int flow_id) 0x9E3779B97F4A7C15L) (of_int (router * 0x85EB)) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 3)

let rec canonical last = function
  | [] -> true
  | (e : Igp.Fib.entry) :: rest -> e.next_hop > last && canonical e.next_hop rest

let rec total acc = function
  | [] -> acc
  | (e : Igp.Fib.entry) :: rest -> total (acc + e.multiplicity) rest

(* The flow's bucket over canonical entries, or [-1] when there is none. *)
let pick ~flow_id ~router entries =
  let rec go remaining = function
    | [] -> -1
    | (e : Igp.Fib.entry) :: rest ->
      if remaining < e.multiplicity then e.next_hop else go (remaining - e.multiplicity) rest
  in
  match total 0 entries with 0 -> -1 | total -> go (mix flow_id router mod total) entries

(* The chosen next hop, or [-1]. A canonical FIB (every SPF-built one:
   strictly sorted next hops) is its own [Fib.weights], so the bucket is
   found on its entries without building that list; only a hand-built
   denormalized FIB pays for the merge. *)
let next_hop ~flow_id ~router (fib : Igp.Fib.t) =
  if canonical min_int fib.entries then pick ~flow_id ~router fib.entries
  else
    pick ~flow_id ~router
      (List.map
         (fun (next_hop, multiplicity) -> { Igp.Fib.next_hop; multiplicity; via_fakes = [] })
         (Igp.Fib.weights fib))

let select ~flow_id ~router fib =
  match next_hop ~flow_id ~router fib with -1 -> None | hop -> Some hop

(* The walks recurse at top level, so a call allocates no closure. *)
let rec walk_from fib max_hops flow_id path current hops =
  if hops > max_hops then -1 (* forwarding loop *)
  else begin
    match fib current with
    | None -> -1
    | Some f ->
      path.(hops) <- current;
      if f.Igp.Fib.local then hops + 1
      else begin
        match next_hop ~flow_id ~router:current f with
        | -1 -> -1
        | next -> walk_from fib max_hops flow_id path next (hops + 1)
      end
  end

let walk ~fib ~max_hops ~flow_id ~src path = walk_from fib max_hops flow_id path src 0

let rec follows_from fib max_hops flow_id current hops rest =
  hops <= max_hops
  &&
  match fib current with
  | None -> false
  | Some f -> (
    match rest with
    | [] -> f.Igp.Fib.local
    | next :: rest ->
      (not f.Igp.Fib.local)
      && next_hop ~flow_id ~router:current f = next
      && follows_from fib max_hops flow_id next (hops + 1) rest)

let follows ~fib ~max_hops ~flow_id path =
  match path with [] -> false | src :: rest -> follows_from fib max_hops flow_id src 0 rest
