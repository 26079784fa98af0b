type entry = {
  next_hop : Netgraph.Graph.node;
  multiplicity : int;
  via_fakes : string list;
}

type t = {
  router : Netgraph.Graph.node;
  prefix : Lsa.prefix;
  distance : int;
  local : bool;
  entries : entry list;
}

let invariant t =
  let rec check last = function
    | [] -> Ok ()
    | e :: rest ->
      if e.multiplicity <= 0 then
        Error
          (Printf.sprintf "entry for next hop %d has multiplicity %d (must be >= 1)"
             e.next_hop e.multiplicity)
      else if last >= e.next_hop then
        Error
          (Printf.sprintf "entries not strictly sorted by next hop (%d after %d)"
             e.next_hop last)
      else check e.next_hop rest
  in
  check min_int t.entries

let make ~router ~prefix ~distance ~local entries =
  let t = { router; prefix; distance; local; entries } in
  match invariant t with
  | Ok () -> t
  | Error reason ->
    invalid_arg
      (Printf.sprintf "Fib.make (router %d, prefix %s): %s" router
         (Prefix.to_string prefix) reason)

let next_hops t = List.map (fun e -> e.next_hop) t.entries

(* Canonical forwarding weights: sorted by next hop with duplicate
   next-hop entries merged, so two FIBs forward identically iff their
   weights are structurally equal — regardless of entry order or how
   multiplicity is split across entries. SPF output already satisfies
   the canonical form (see [invariant]), making this a no-op there. *)
let weights t =
  (* Alloc-free canonical check first: SPF-built FIBs are strictly
     sorted already, and [Hashing.select] calls this on every routing
     decision — only hand-built denormalized entries pay for the sort. *)
  let rec canonical last = function
    | [] -> true
    | e :: rest -> e.next_hop > last && canonical e.next_hop rest
  in
  if canonical min_int t.entries then
    List.map (fun e -> (e.next_hop, e.multiplicity)) t.entries
  else
    let merged =
      List.fold_left
        (fun acc e ->
          match acc with
          | (h, m) :: rest when h = e.next_hop -> (h, m + e.multiplicity) :: rest
          | _ -> (e.next_hop, e.multiplicity) :: acc)
        []
        (List.sort
           (fun a b -> Int.compare a.next_hop b.next_hop)
           t.entries)
    in
    List.rev merged

let total_multiplicity t =
  List.fold_left (fun acc e -> acc + e.multiplicity) 0 t.entries

let fractions t =
  let total = total_multiplicity t in
  if total = 0 then []
  else
    List.map
      (fun e -> (e.next_hop, float_of_int e.multiplicity /. float_of_int total))
      t.entries

let uses_fake t = List.exists (fun e -> e.via_fakes <> []) t.entries

let equal_forwarding a b = weights a = weights b

let pp ~names fmt t =
  if t.local then
    Format.fprintf fmt "%s -> %s: local (cost %d)" (names t.router)
      (Prefix.to_string t.prefix) t.distance
  else
    Format.fprintf fmt "%s -> %s (cost %d): %a" (names t.router)
      (Prefix.to_string t.prefix) t.distance
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (fun fmt e ->
           if e.via_fakes = [] then
             Format.fprintf fmt "%s x%d" (names e.next_hop) e.multiplicity
           else
             Format.fprintf fmt "%s x%d (via %s)" (names e.next_hop)
               e.multiplicity
               (String.concat "+" e.via_fakes)))
      t.entries
