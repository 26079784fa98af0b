module Graph = Netgraph.Graph
module Dijkstra = Netgraph.Dijkstra

type tree = {
  router : Graph.node;
  paths : Dijkstra.result;
  first_hops : Graph.node list array;
      (* Ascending; [] for the router itself and unreachable nodes. *)
  entries : Fib.entry list array;
      (* [first_hops] as plain FIB entries, shared by every prefix whose
         only winning candidate is that node. *)
}

(* Union of two ascending duplicate-free lists. Sibling subtrees often
   share one first-hop list, so the physical-equality shortcut saves
   most of the allocation. *)
let rec union a b =
  if a == b then a
  else
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' ->
      if x < y then x :: union a' b
      else if y < x then y :: union a b'
      else x :: union a' b'

let real_entry h = { Fib.next_hop = h; multiplicity = 1; via_fakes = [] }

(* Settle order puts every predecessor before its successors. *)
let shortest_paths g ~router =
  let paths = Dijkstra.run g ~source:router in
  let first_hops = Array.make (Graph.node_count g) [] in
  Dijkstra.iter_settled paths (fun v ->
      if v <> router then
        first_hops.(v) <-
          List.fold_left
            (fun acc u ->
              union acc (if u = router then [ v ] else first_hops.(u)))
            []
            (Dijkstra.predecessors paths v));
  { router; paths; first_hops; entries = Array.map (List.map real_entry) first_hops }

let distance t v = Dijkstra.distance t.paths v

(* Candidate cost through [node], [max_int] when it is unreachable. *)
let cost_via t node extra =
  if Dijkstra.reachable t.paths node then Dijkstra.distance_exn t.paths node + extra
  else max_int

(* Merge the ascending real first hops with the [(forwarding, fake_id)]
   pairs of the winning fakes attached at the router (sorted): each such
   fake adds one multiplicity on its forwarding neighbour. *)
let rec merge_entries hops own =
  match own with
  | [] -> List.map real_entry hops
  | (fwd, _) :: _ -> (
    match hops with
    | h :: rest when h < fwd -> real_entry h :: merge_entries rest own
    | _ ->
      let ids, others = List.partition (fun (f, _) -> f = fwd) own in
      let real, hops =
        match hops with h :: rest when h = fwd -> (1, rest) | _ -> (0, hops)
      in
      {
        Fib.next_hop = fwd;
        multiplicity = real + List.length ids;
        via_fakes = List.map snd ids;
      }
      :: merge_entries hops others)

let prefix_fib t prefix ~announcers ~fakes =
  let fake_cost (f : Lsa.fake) = cost_via t f.attachment (Lsa.total_cost f) in
  let best =
    List.fold_left (fun b (o, cost) -> Int.min b (cost_via t o cost)) max_int announcers
  in
  let best = List.fold_left (fun b f -> Int.min b (fake_cost f)) best fakes in
  if best = max_int then None
  else begin
    (* Winning candidates: the router itself ([local]), other real nodes
       whose first hops are inherited, and fakes attached here. *)
    let local = ref false and via = ref [] and own = ref [] in
    List.iter
      (fun (o, cost) ->
        if cost_via t o cost = best then
          if o = t.router then local := true else via := o :: !via)
      announcers;
    List.iter
      (fun (f : Lsa.fake) ->
        if fake_cost f = best then
          if f.attachment = t.router then own := (f.forwarding, f.fake_id) :: !own
          else via := f.attachment :: !via)
      fakes;
    let entries =
      match (!via, !own) with
      | [ x ], [] -> t.entries.(x)
      | via, own ->
        let hops = List.fold_left (fun acc x -> union acc t.first_hops.(x)) [] via in
        merge_entries hops (List.sort compare own)
    in
    Some (Fib.make ~router:t.router ~prefix ~distance:best ~local:!local entries)
  end
