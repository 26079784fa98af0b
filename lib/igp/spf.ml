module Graph = Netgraph.Graph
module Dijkstra = Netgraph.Dijkstra

let check_router (view : Lsdb.view) router =
  if router < 0 || router >= view.real_nodes then
    invalid_arg "Spf: not a real router"

let fib_of_first_hops (view : Lsdb.view) ~router ~prefix ~sink result =
  match Dijkstra.distance result sink with
  | None -> None
  | Some view_distance ->
    (* Announcer edges carry a +1 offset (see Lsdb); undo it here. *)
    let distance = view_distance - 1 in
    let hops = Dijkstra.first_hops view.graph result ~target:sink in
    let local = List.mem sink hops in
    let forwarding_hops = List.filter (fun h -> h <> sink) hops in
    let resolve h =
      if h < view.real_nodes then (h, None)
      else begin
        match Lsdb.fake_of_node view h with
        | Some fake -> (fake.Lsa.forwarding, Some fake.Lsa.fake_id)
        | None ->
          (* Only fake stubs and sinks live above real_nodes, and sinks
             were filtered out just above. *)
          assert false
      end
    in
    let resolved = List.map resolve forwarding_hops in
    let by_next_hop = Hashtbl.create 4 in
    List.iter
      (fun (nh, fake) ->
        let mult, fakes =
          Option.value ~default:(0, []) (Hashtbl.find_opt by_next_hop nh)
        in
        let fakes = match fake with None -> fakes | Some id -> id :: fakes in
        Hashtbl.replace by_next_hop nh (mult + 1, fakes))
      resolved;
    let entries =
      Hashtbl.fold
        (fun next_hop (multiplicity, fakes) acc ->
          { Fib.next_hop; multiplicity; via_fakes = List.sort compare fakes }
          :: acc)
        by_next_hop []
    in
    let entries =
      List.sort (fun a b -> compare a.Fib.next_hop b.Fib.next_hop) entries
    in
    Some (Fib.make ~router ~prefix ~distance ~local entries)

let compute_prefix (view : Lsdb.view) ~router prefix =
  check_router view router;
  match Lsdb.sink view prefix with
  | None -> None
  | Some sink ->
    let result = Dijkstra.run view.graph ~source:router in
    fib_of_first_hops view ~router ~prefix ~sink result

(* [view.prefixes] is already sorted, so one Dijkstra and a scan gives
   FIBs for every prefix in order. *)
let compute (view : Lsdb.view) ~router =
  check_router view router;
  let result = Dijkstra.run view.graph ~source:router in
  Array.to_list view.prefixes
  |> List.filter_map (fun prefix ->
         let sink = Hashtbl.find view.sinks prefix in
         fib_of_first_hops view ~router ~prefix ~sink result)
