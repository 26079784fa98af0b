(* Independent oracle for the SPF engine: routes computed by one
   Dijkstra per router over an augmented graph, sharing no code with the
   engine's two-stage computation beyond Dijkstra itself.

   The augmented graph is the physical graph, plus one stub node per
   fake LSA (reachable only from its attachment, at the attachment
   cost), plus one sink node per announced prefix, fed by every real
   announcer at its announced cost and by every fake's stub at the
   fake's announced cost. A cost of 0 is represented by a +1 offset on
   every edge into a sink (graph weights must be positive), which
   preserves all cost comparisons. A prefix's FIB at a router is then
   the router's ECMP first hops towards the prefix's sink, with a fake
   stub resolved to the fake's forwarding address. *)

module G = Netgraph.Graph
module D = Netgraph.Dijkstra

type view = {
  graph : G.t;
  real_nodes : int;
  prefixes : Igp.Prefix.t list;  (** Distinct announced prefixes, sorted. *)
  sinks : (Igp.Prefix.t, G.node) Hashtbl.t;
  fake_stubs : Igp.Lsa.fake array;
      (** The stub node of [fake_stubs.(i)] is [real_nodes + i]. *)
}

let view lsdb =
  let graph = G.copy (Igp.Lsdb.base_graph lsdb) in
  let real_nodes = G.node_count graph in
  let fake_stubs = Array.of_list (Igp.Lsdb.fakes lsdb) in
  Array.iter
    (fun (f : Igp.Lsa.fake) ->
      let node = G.add_node graph ~name:f.fake_id in
      G.add_edge graph f.attachment node ~weight:f.attachment_cost)
    fake_stubs;
  let prefixes = Igp.Lsdb.prefix_list lsdb in
  let sinks = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace sinks p
        (G.add_node graph ~name:("prefix:" ^ Igp.Prefix.to_string p)))
    prefixes;
  List.iter
    (fun (p, origin, cost) ->
      G.add_edge graph origin (Hashtbl.find sinks p) ~weight:(cost + 1))
    (Igp.Lsdb.prefixes lsdb);
  Array.iteri
    (fun i (f : Igp.Lsa.fake) ->
      G.add_edge graph (real_nodes + i) (Hashtbl.find sinks f.prefix)
        ~weight:(f.announced_cost + 1))
    fake_stubs;
  { graph; real_nodes; prefixes; sinks; fake_stubs }

let sink view prefix = Hashtbl.find_opt view.sinks prefix

let fib_via view ~router ~prefix ~sink result =
  match D.distance result sink with
  | None -> None
  | Some view_distance ->
    let hops = D.first_hops view.graph result ~target:sink in
    let resolve h =
      if h < view.real_nodes then (h, None)
      else
        let f = view.fake_stubs.(h - view.real_nodes) in
        (f.Igp.Lsa.forwarding, Some f.fake_id)
    in
    let by_next_hop = Hashtbl.create 4 in
    List.iter
      (fun h ->
        if h <> sink then begin
          let nh, fake = resolve h in
          let mult, fakes =
            Option.value ~default:(0, []) (Hashtbl.find_opt by_next_hop nh)
          in
          let fakes = match fake with None -> fakes | Some id -> id :: fakes in
          Hashtbl.replace by_next_hop nh (mult + 1, fakes)
        end)
      hops;
    let entries =
      Hashtbl.fold
        (fun next_hop (multiplicity, fakes) acc ->
          { Igp.Fib.next_hop; multiplicity; via_fakes = List.sort compare fakes }
          :: acc)
        by_next_hop []
      |> List.sort (fun a b -> compare a.Igp.Fib.next_hop b.Igp.Fib.next_hop)
    in
    Some
      (Igp.Fib.make ~router ~prefix ~distance:(view_distance - 1)
         ~local:(List.mem sink hops) entries)

(* [None] when the prefix is unknown or unreachable from the router. *)
let compute_prefix view ~router prefix =
  match sink view prefix with
  | None -> None
  | Some sink ->
    fib_via view ~router ~prefix ~sink (D.run view.graph ~source:router)

(* FIBs for every reachable prefix, sorted by prefix. *)
let compute view ~router =
  let result = D.run view.graph ~source:router in
  List.filter_map
    (fun prefix ->
      fib_via view ~router ~prefix ~sink:(Hashtbl.find view.sinks prefix) result)
    view.prefixes
