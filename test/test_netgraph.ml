(* Tests for the graph substrate: structure, Dijkstra/ECMP, paths,
   max-flow and topology builders. *)

module G = Netgraph.Graph
module D = Netgraph.Dijkstra
module P = Netgraph.Paths

let diamond () =
  (* a -> b -> d and a -> c -> d, both cost 2: a two-way ECMP diamond. *)
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let c = G.add_node g ~name:"c" in
  let d = G.add_node g ~name:"d" in
  G.add_link g a b ~weight:1;
  G.add_link g a c ~weight:1;
  G.add_link g b d ~weight:1;
  G.add_link g c d ~weight:1;
  (g, a, b, c, d)

(* ---------- Graph ---------- *)

let test_graph_basics () =
  let g, a, b, _, d = diamond () in
  Alcotest.(check int) "nodes" 4 (G.node_count g);
  Alcotest.(check int) "directed edges" 8 (G.edge_count g);
  Alcotest.(check string) "name" "a" (G.name g a);
  Alcotest.(check bool) "edge exists" true (G.has_edge g a b);
  Alcotest.(check bool) "no a-d edge" false (G.has_edge g a d);
  Alcotest.(check (option int)) "weight" (Some 1) (G.weight g a b)

let test_graph_find_node () =
  let g, a, _, _, _ = diamond () in
  Alcotest.(check (option int)) "find a" (Some a) (G.find_node g "a");
  Alcotest.(check (option int)) "find missing" None (G.find_node g "zz");
  Alcotest.check_raises "find_exn missing" Not_found (fun () ->
      ignore (G.find_node_exn g "zz"))

let test_graph_weight_update () =
  let g, a, b, _, _ = diamond () in
  G.add_edge g a b ~weight:5;
  Alcotest.(check (option int)) "replaced" (Some 5) (G.weight g a b);
  Alcotest.(check int) "edge count unchanged" 8 (G.edge_count g);
  G.set_weight g a b ~weight:7;
  Alcotest.(check (option int)) "set_weight" (Some 7) (G.weight g a b)

let test_graph_rejects_bad_edges () =
  let g, a, b, _, _ = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> G.add_edge g a a ~weight:1);
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Graph.add_edge: weight must be positive") (fun () ->
      G.add_edge g a b ~weight:0)

let test_graph_remove_edge () =
  let g, a, b, _, _ = diamond () in
  G.remove_edge g a b;
  Alcotest.(check bool) "removed" false (G.has_edge g a b);
  Alcotest.(check bool) "reverse kept" true (G.has_edge g b a);
  Alcotest.(check int) "count" 7 (G.edge_count g);
  G.remove_edge g a b (* no-op *) ;
  Alcotest.(check int) "no-op count" 7 (G.edge_count g)

let test_graph_copy_isolated () =
  let g, a, b, _, _ = diamond () in
  let g' = G.copy g in
  G.remove_edge g' a b;
  Alcotest.(check bool) "original untouched" true (G.has_edge g a b)

let test_graph_reverse () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  G.add_edge g a b ~weight:3;
  let r = G.reverse g in
  Alcotest.(check bool) "flipped" true (G.has_edge r b a);
  Alcotest.(check bool) "no original direction" false (G.has_edge r a b);
  Alcotest.(check (option int)) "weight kept" (Some 3) (G.weight r b a)

let test_graph_pred_succ () =
  let g, a, b, c, d = diamond () in
  Alcotest.(check (list int)) "succ a" [ b; c ] (List.map fst (G.succ g a));
  Alcotest.(check (list int)) "pred d" [ b; c ]
    (List.sort compare (List.map fst (G.pred g d)))

(* ---------- Dijkstra ---------- *)

let test_dijkstra_distances () =
  let g, a, b, _, d = diamond () in
  let r = D.run g ~source:a in
  Alcotest.(check (option int)) "self" (Some 0) (D.distance r a);
  Alcotest.(check (option int)) "b" (Some 1) (D.distance r b);
  Alcotest.(check (option int)) "d" (Some 2) (D.distance r d)

let test_dijkstra_ecmp_first_hops () =
  let g, a, b, c, d = diamond () in
  let r = D.run g ~source:a in
  Alcotest.(check (list int)) "two first hops" [ b; c ] (D.first_hops g r ~target:d)

let test_dijkstra_single_path_when_weights_differ () =
  let g, a, b, c, d = diamond () in
  G.add_link g a c ~weight:2 (* now the c-branch costs 3 *);
  let r = D.run g ~source:a in
  Alcotest.(check (list int)) "single hop" [ b ] (D.first_hops g r ~target:d)

let test_dijkstra_unreachable () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let r = D.run g ~source:a in
  Alcotest.(check (option int)) "unreachable" None (D.distance r b);
  Alcotest.(check bool) "reachable false" false (D.reachable r b);
  Alcotest.(check (list int)) "no hops" [] (D.first_hops g r ~target:b);
  Alcotest.check_raises "distance_exn" Not_found (fun () ->
      ignore (D.distance_exn r b))

let test_dijkstra_source_cases () =
  let g, a, _, _, _ = diamond () in
  let r = D.run g ~source:a in
  Alcotest.(check (list int)) "no hops to self" [] (D.first_hops g r ~target:a);
  Alcotest.(check (list int)) "no predecessors of source" [] (D.predecessors r a)

let test_dijkstra_respects_direction () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  G.add_edge g a b ~weight:1 (* one-way *);
  let r = D.run g ~source:b in
  Alcotest.(check (option int)) "cannot go back" None (D.distance r a)

let test_dijkstra_shortest_path_nodes () =
  let g, a, b, c, d = diamond () in
  let r = D.run g ~source:a in
  Alcotest.(check (list int)) "both sides of the diamond" [ b; c ]
    (List.sort compare (D.first_hops g r ~target:d));
  Alcotest.(check (list int)) "whole diamond" [ a; b; c; d ]
    (List.sort_uniq compare (List.concat (P.all_shortest g ~source:a ~target:d)))

(* On random graphs, Dijkstra distances satisfy the triangle inequality
   over edges, and first hops are real neighbors on shortest paths. *)
let prop_dijkstra_relaxed =
  QCheck.Test.make ~name:"dijkstra fixpoint on random graphs" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 4 30))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = Netgraph.Topologies.random prng ~n ~extra_edges:n ~max_weight:5 in
      let r = D.run g ~source:0 in
      List.for_all
        (fun (u, v, w) ->
          match (D.distance r u, D.distance r v) with
          | Some du, Some dv -> dv <= du + w
          | None, _ -> true (* u unreachable: no constraint *)
          | Some _, None -> false)
        (G.edges g))

let prop_dijkstra_first_hops_consistent =
  QCheck.Test.make ~name:"first hops start shortest paths" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 4 25))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = Netgraph.Topologies.random prng ~n ~extra_edges:(n / 2) ~max_weight:4 in
      let r = D.run g ~source:0 in
      List.for_all
        (fun target ->
          if target = 0 then true
          else
            List.for_all
              (fun h ->
                match (G.weight g 0 h, D.distance r h, D.distance r target) with
                | Some w, Some dh, Some _ -> dh = w
                | _ -> false)
              (D.first_hops g r ~target))
        (G.nodes g))

(* ---------- Paths ---------- *)

let test_paths_cost_and_validity () =
  let g, a, b, _, d = diamond () in
  Alcotest.(check int) "cost" 2 (P.cost g [ a; b; d ]);
  Alcotest.(check bool) "invalid hop" true
    (try ignore (P.cost g [ a; d ]); false with Not_found | Invalid_argument _ -> true);
  Alcotest.(check bool) "empty invalid" true
    (try ignore (P.cost g []); false with Invalid_argument _ -> true)

let test_paths_all_shortest () =
  let g, a, b, c, d = diamond () in
  let paths = P.all_shortest g ~source:a ~target:d in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  Alcotest.(check bool) "b path present" true (List.mem [ a; b; d ] paths);
  Alcotest.(check bool) "c path present" true (List.mem [ a; c; d ] paths)

let test_paths_all_shortest_trivial () =
  let g, a, _, _, _ = diamond () in
  Alcotest.(check (list (list int))) "self" [ [ a ] ]
    (P.all_shortest g ~source:a ~target:a)

let test_paths_limit () =
  let g, a, _, _, d = diamond () in
  let paths = P.all_shortest ~limit:1 g ~source:a ~target:d in
  Alcotest.(check int) "limited" 1 (List.length paths)

let test_k_shortest_diamond () =
  let g, a, _, _, d = diamond () in
  let ps = P.k_shortest g ~k:3 ~source:a ~target:d in
  (* Only two loopless paths exist. *)
  Alcotest.(check int) "two paths" 2 (List.length ps);
  Alcotest.(check int) "both cost 2" 2 (P.cost g (List.nth ps 1))

let test_k_shortest_ordering () =
  let d = Netgraph.Topologies.demo () in
  let g = d.graph in
  let ps = P.k_shortest g ~k:3 ~source:d.a ~target:d.c in
  Alcotest.(check int) "three paths" 3 (List.length ps);
  let costs = List.map (P.cost g) ps in
  Alcotest.(check (list int)) "non-decreasing costs" (List.sort compare costs) costs;
  Alcotest.(check int) "best is 3" 3 (List.hd costs)

let test_paths_to_string () =
  let d = Netgraph.Topologies.demo () in
  Alcotest.(check string) "rendering" "A-B-R2-C"
    (P.to_string d.graph [ d.a; d.b; d.r2; d.c ])

(* ---------- Maxflow ---------- *)

let max_flow g caps ~source ~sink =
  Netgraph.Maxflow.max_flow (Netgraph.Maxflow.network g caps) ~source ~sink

(* The table-based Edmonds–Karp the dense one replaced, kept as its
   oracle: the same BFS order, arithmetic and push order over hash
   tables, so the two must agree bit for bit. *)
let reference_max_flow g (capacities : Netgraph.Maxflow.capacities) ~source ~sink =
  let residual flow u v =
    let cap = Option.value ~default:0. (Hashtbl.find_opt capacities (u, v)) in
    let fwd = Option.value ~default:0. (Hashtbl.find_opt flow (u, v)) in
    let back = Option.value ~default:0. (Hashtbl.find_opt flow (v, u)) in
    cap -. fwd +. back
  in
  let find_augmenting flow =
    let parent = Array.make (G.node_count g) (-1) in
    let visited = Array.make (G.node_count g) false in
    visited.(source) <- true;
    let queue = Queue.create () in
    Queue.push source queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let consider v =
        if (not visited.(v)) && residual flow u v > 1e-9 then begin
          visited.(v) <- true;
          parent.(v) <- u;
          if v = sink then found := true else Queue.push v queue
        end
      in
      G.iter_succ g u (fun v _ -> consider v);
      List.iter (fun (v, _) -> consider v) (G.pred g u)
    done;
    if not !found then None
    else
      let rec rebuild v acc = if v = source then v :: acc else rebuild parent.(v) (v :: acc) in
      Some (rebuild sink [])
  in
  let flow = Hashtbl.create 64 in
  let value = ref 0. in
  if source <> sink then begin
    let rec augment () =
      match find_augmenting flow with
      | None -> ()
      | Some path ->
        let rec bottleneck acc = function
          | u :: (v :: _ as rest) -> bottleneck (min acc (residual flow u v)) rest
          | _ -> acc
        in
        let delta = bottleneck infinity path in
        let rec push = function
          | u :: (v :: _ as rest) ->
            let back = Option.value ~default:0. (Hashtbl.find_opt flow (v, u)) in
            let cancel = min back delta in
            Hashtbl.replace flow (v, u) (back -. cancel);
            let fwd = Option.value ~default:0. (Hashtbl.find_opt flow (u, v)) in
            Hashtbl.replace flow (u, v) (fwd +. delta -. cancel);
            push rest
          | _ -> ()
        in
        push path;
        value := !value +. delta;
        augment ()
    in
    augment ()
  end;
  !value

let caps_of_list list =
  let t = Hashtbl.create 16 in
  List.iter (fun (e, c) -> Hashtbl.replace t e c) list;
  t

let test_maxflow_diamond () =
  let g, a, b, c, d = diamond () in
  let caps =
    caps_of_list
      [ ((a, b), 1.); ((a, c), 2.); ((b, d), 1.5); ((c, d), 1.) ]
  in
  Alcotest.(check (float 1e-6)) "min cuts" 2.
    (max_flow g caps ~source:a ~sink:d)

let test_maxflow_disconnected () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let caps = caps_of_list [] in
  Alcotest.(check (float 1e-6)) "zero" 0.
    (max_flow g caps ~source:a ~sink:b)

let test_maxflow_conservation () =
  let g, a, b, c, d = diamond () in
  let caps =
    caps_of_list [ ((a, b), 3.); ((a, c), 1.); ((b, d), 2.); ((c, d), 2.) ]
  in
  (* Flow is conserved at b and c, so the value is capped by the min cut
     {b->d, a->c} = 2 + 1, not by the source's out-capacity 3 + 1. *)
  Alcotest.(check (float 1e-6)) "value" 3.
    (max_flow g caps ~source:a ~sink:d);
  Hashtbl.replace caps (b, d) 1.;
  Alcotest.(check (float 1e-6)) "a tighter cut" 2.
    (max_flow g caps ~source:a ~sink:d)

let prop_maxflow_bounded_by_out_capacity =
  QCheck.Test.make ~name:"maxflow bounded by source out-capacity" ~count:40
    QCheck.(pair (int_range 0 10000) (int_range 4 15))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = Netgraph.Topologies.random prng ~n ~extra_edges:n ~max_weight:3 in
      let caps = Hashtbl.create 32 in
      List.iter
        (fun (u, v, _) ->
          Hashtbl.replace caps (u, v) (1. +. Kit.Prng.float prng 5.))
        (G.edges g);
      let out_cap =
        List.fold_left
          (fun acc (v, _) -> acc +. Hashtbl.find caps (0, v))
          0. (G.succ g 0)
      in
      let f = max_flow g caps ~source:0 ~sink:(n - 1) in
      f <= out_cap +. 1e-6)

(* The controller's shape of network: a random graph, some edges left
   out (the visited router's), a super-sink fed at [infinity] by a few
   egresses. Capacities are random floats, some zero, and a few keys are
   bound twice. From every source, the dense max-flow returns the
   reference's float bit for bit. *)
let prop_maxflow_matches_reference =
  QCheck.Test.make ~name:"dense = table-based, bit for bit" ~count:200
    QCheck.(pair (int_range 0 100000) (int_range 3 14))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = Netgraph.Topologies.random prng ~n ~extra_edges:n ~max_weight:3 in
      let sink = G.add_node g ~name:"super-sink" in
      let caps = Hashtbl.create 32 in
      let egresses = List.init (1 + Kit.Prng.int prng 3) (fun _ -> Kit.Prng.int prng n) in
      List.iter
        (fun e ->
          if not (G.has_edge g e sink) then begin
            G.add_edge g e sink ~weight:1;
            Hashtbl.replace caps (e, sink) infinity
          end)
        egresses;
      (* Magnitudes 1e-3 to 1e3, so that sums round differently when
         paths are found or pushed in another order. *)
      let capacity () =
        if Kit.Prng.int prng 5 = 0 then 0.
        else Kit.Prng.float prng 10. *. (10. ** float_of_int (Kit.Prng.int prng 7 - 3))
      in
      let excluded = Kit.Prng.int prng n in
      List.iter
        (fun (u, v, _) ->
          if v <> sink && u <> excluded && v <> excluded then begin
            Hashtbl.replace caps (u, v) (capacity ());
            if Kit.Prng.int prng 8 = 0 then Hashtbl.add caps (u, v) (capacity ())
          end)
        (G.edges g);
      let net = Netgraph.Maxflow.network g caps in
      List.for_all
        (fun source ->
          Int64.equal
            (Int64.bits_of_float (Netgraph.Maxflow.max_flow net ~source ~sink))
            (Int64.bits_of_float (reference_max_flow g caps ~source ~sink)))
        (List.init n Fun.id))

(* Max-flow = min cut: on graphs of at most 8 nodes, the value equals
   the cheapest cut over every node set holding the source but not the
   sink. *)
let prop_maxflow_is_min_cut =
  QCheck.Test.make ~name:"max-flow = brute-force min cut" ~count:200
    QCheck.(pair (int_range 0 100000) (int_range 2 8))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = G.create () in
      for i = 0 to n - 1 do
        ignore (G.add_node g ~name:(string_of_int i))
      done;
      let caps = Hashtbl.create 32 in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Kit.Prng.int prng 3 = 0 then begin
            G.add_edge g u v ~weight:1;
            Hashtbl.replace caps (u, v) (Kit.Prng.float prng 10.)
          end
        done
      done;
      let source = 0 and sink = n - 1 in
      let min_cut = ref infinity in
      for set = 0 to (1 lsl n) - 1 do
        let inside v = set land (1 lsl v) <> 0 in
        if inside source && not (inside sink) then
          min_cut :=
            Float.min !min_cut
              (List.fold_left
                 (fun acc (u, v, _) ->
                   if inside u && not (inside v) then acc +. Hashtbl.find caps (u, v) else acc)
                 0. (G.edges g))
      done;
      let f = max_flow g caps ~source ~sink in
      Float.abs (f -. !min_cut) <= 1e-9 *. (1. +. !min_cut))

(* ---------- Topologies ---------- *)

let test_topology_demo_weights () =
  let d = Netgraph.Topologies.demo () in
  let w u v = G.weight_exn d.graph u v in
  Alcotest.(check int) "A-B" 1 (w d.a d.b);
  Alcotest.(check int) "A-R1" 2 (w d.a d.r1);
  Alcotest.(check int) "B-R2" 1 (w d.b d.r2);
  Alcotest.(check int) "B-R3" 1 (w d.b d.r3);
  Alcotest.(check int) "R2-C" 1 (w d.r2 d.c);
  Alcotest.(check int) "R3-C" 2 (w d.r3 d.c);
  Alcotest.(check int) "symmetric" (w d.c d.r3) (w d.r3 d.c)

let test_topology_demo_paper_routes () =
  (* Fig. 1a: A reaches C via B (cost 3, unique); B via R2 (cost 2,
     unique). *)
  let d = Netgraph.Topologies.demo () in
  let ra = D.run d.graph ~source:d.a in
  Alcotest.(check (option int)) "A cost 3" (Some 3) (D.distance ra d.c);
  Alcotest.(check (list int)) "A via B" [ d.b ] (D.first_hops d.graph ra ~target:d.c);
  let rb = D.run d.graph ~source:d.b in
  Alcotest.(check (option int)) "B cost 2" (Some 2) (D.distance rb d.c);
  Alcotest.(check (list int)) "B via R2" [ d.r2 ] (D.first_hops d.graph rb ~target:d.c)

let test_topology_line_ring_grid () =
  let line = Topo.line ~n:5 in
  Alcotest.(check int) "line edges" 8 (G.edge_count line);
  let ring = Netgraph.Topologies.ring ~n:6 in
  Alcotest.(check int) "ring edges" 12 (G.edge_count ring);
  let grid = Netgraph.Topologies.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "grid nodes" 12 (G.node_count grid);
  Alcotest.(check int) "grid edges" (2 * ((2 * 4) + (3 * 3))) (G.edge_count grid)

let test_topology_random_connected () =
  let prng = Kit.Prng.create ~seed:123 in
  let g = Netgraph.Topologies.random prng ~n:40 ~extra_edges:20 ~max_weight:5 in
  let r = D.run g ~source:0 in
  Alcotest.(check bool) "connected" true
    (List.for_all (fun v -> D.reachable r v) (G.nodes g))

let test_topology_random_deterministic () =
  let g1 = Netgraph.Topologies.random (Kit.Prng.create ~seed:7) ~n:20 ~extra_edges:10 ~max_weight:4 in
  let g2 = Netgraph.Topologies.random (Kit.Prng.create ~seed:7) ~n:20 ~extra_edges:10 ~max_weight:4 in
  Alcotest.(check bool) "same edges" true (G.edges g1 = G.edges g2)

let test_topology_fat_tree () =
  let g = Topo.fat_tree ~k:4 in
  (* k=4: 4 cores + 4 pods x (2 agg + 2 edge) = 20 switches. *)
  Alcotest.(check int) "nodes" 20 (G.node_count g);
  (* Links: per pod 2x2 internal + 2x2 uplinks = 8; 4 pods = 32. *)
  Alcotest.(check int) "links" 32 (G.edge_count g / 2);
  let r = D.run g ~source:(G.find_node_exn g "edge_0_0") in
  Alcotest.(check bool) "connected" true
    (List.for_all (fun v -> D.reachable r v) (G.nodes g));
  (* Inter-pod ECMP: four equal-cost paths between edge switches in
     different pods. *)
  let paths =
    P.all_shortest g
      ~source:(G.find_node_exn g "edge_0_0")
      ~target:(G.find_node_exn g "edge_1_0")
  in
  Alcotest.(check int) "4-way ECMP between pods" 4 (List.length paths)

let test_topology_two_level () =
  let prng = Kit.Prng.create ~seed:5 in
  let g = Netgraph.Topologies.two_level prng ~core:6 ~edge_per_core:2 in
  Alcotest.(check int) "nodes" (6 + 12) (G.node_count g);
  let r = D.run g ~source:0 in
  Alcotest.(check bool) "connected" true
    (List.for_all (fun v -> D.reachable r v) (G.nodes g))

(* ---------- Dot ---------- *)

let test_dot_structure () =
  let d = Netgraph.Topologies.demo () in
  let dot = Netgraph.Dot.of_graph d.graph in
  Alcotest.(check bool) "graph header" true
    (String.length dot > 12 && String.sub dot 0 6 = "graph ");
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has A--B edge" true
    (contains "A -- B" || contains "B -- A");
  Alcotest.(check bool) "weight label" true (contains "label=\"2\"");
  (* 8 undirected edges on the demo. *)
  let count =
    List.length
      (List.filter (fun line -> String.length line > 4 && String.sub line 2 2 <> "no"
                                && (let rec has i = i + 4 <= String.length line
                                      && (String.sub line i 4 = " -- " || has (i + 1)) in
                                    has 0))
         (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "eight edges" 8 count

let test_dot_asymmetric_edge () =
  let d = Netgraph.Topologies.demo () in
  G.set_weight d.graph d.b d.r2 ~weight:9;
  let dot = Netgraph.Dot.of_graph d.graph in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "one directed half per side" true
    (contains "B -- R2 [label=\"9\" dir=forward]"
    && contains "R2 -- B [label=\"1\" dir=forward]")

(* ---------- Zoo ---------- *)

let test_zoo_inventory () =
  let entries = Netgraph.Zoo.all () in
  Alcotest.(check (list string)) "names" [ "Abilene"; "NSFNET"; "GEANT" ]
    (List.map (fun (e : Netgraph.Zoo.entry) -> e.name) entries);
  let find name = List.find (fun (e : Netgraph.Zoo.entry) -> e.name = name) entries in
  let abilene = find "Abilene" in
  Alcotest.(check int) "abilene nodes" 11 (G.node_count abilene.graph);
  Alcotest.(check int) "abilene links" 14 (G.edge_count abilene.graph / 2);
  let nsfnet = find "NSFNET" in
  Alcotest.(check int) "nsfnet nodes" 14 (G.node_count nsfnet.graph);
  Alcotest.(check int) "nsfnet links" 21 (G.edge_count nsfnet.graph / 2);
  let geant = Netgraph.Zoo.geant () in
  Alcotest.(check int) "geant nodes" 22 (G.node_count geant.graph)

let test_zoo_connected_and_multipath () =
  List.iter
    (fun (e : Netgraph.Zoo.entry) ->
      let r = D.run e.graph ~source:0 in
      Alcotest.(check bool)
        (e.name ^ " connected")
        true
        (List.for_all (fun v -> D.reachable r v) (G.nodes e.graph));
      (* Backbones are 2-connected enough that some pair has 2 disjoint
         paths: removing any one shortest path's middle edge must keep
         the endpoints connected. *)
      let target = G.node_count e.graph - 1 in
      match P.all_shortest e.graph ~source:0 ~target with
      | (a :: b :: _) :: _ ->
        let g' = G.copy e.graph in
        G.remove_edge g' a b;
        G.remove_edge g' b a;
        let r' = D.run g' ~source:0 in
        Alcotest.(check bool) (e.name ^ " survives a link cut") true
          (D.reachable r' target)
      | _ -> Alcotest.fail "no path")
    (Netgraph.Zoo.all ())

let test_zoo_find () =
  Alcotest.(check bool) "case-insensitive" true
    (match Netgraph.Zoo.find "abilene" with
    | Some e -> e.name = "Abilene"
    | None -> false);
  Alcotest.(check bool) "missing" true (Netgraph.Zoo.find "arpanet" = None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "netgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "find node" `Quick test_graph_find_node;
          Alcotest.test_case "weight update" `Quick test_graph_weight_update;
          Alcotest.test_case "bad edges" `Quick test_graph_rejects_bad_edges;
          Alcotest.test_case "remove edge" `Quick test_graph_remove_edge;
          Alcotest.test_case "copy isolated" `Quick test_graph_copy_isolated;
          Alcotest.test_case "reverse" `Quick test_graph_reverse;
          Alcotest.test_case "pred/succ" `Quick test_graph_pred_succ;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "distances" `Quick test_dijkstra_distances;
          Alcotest.test_case "ecmp first hops" `Quick test_dijkstra_ecmp_first_hops;
          Alcotest.test_case "weights break ties" `Quick
            test_dijkstra_single_path_when_weights_differ;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "source cases" `Quick test_dijkstra_source_cases;
          Alcotest.test_case "directionality" `Quick test_dijkstra_respects_direction;
          Alcotest.test_case "path nodes" `Quick test_dijkstra_shortest_path_nodes;
        ] );
      qsuite "dijkstra-props"
        [ prop_dijkstra_relaxed; prop_dijkstra_first_hops_consistent ];
      ( "paths",
        [
          Alcotest.test_case "cost/valid" `Quick test_paths_cost_and_validity;
          Alcotest.test_case "all shortest" `Quick test_paths_all_shortest;
          Alcotest.test_case "trivial" `Quick test_paths_all_shortest_trivial;
          Alcotest.test_case "limit" `Quick test_paths_limit;
          Alcotest.test_case "k-shortest diamond" `Quick test_k_shortest_diamond;
          Alcotest.test_case "k-shortest ordering" `Quick test_k_shortest_ordering;
          Alcotest.test_case "to_string" `Quick test_paths_to_string;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_diamond;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "conservation" `Quick test_maxflow_conservation;
        ] );
      qsuite "maxflow-props"
        [
          prop_maxflow_bounded_by_out_capacity;
          prop_maxflow_matches_reference;
          prop_maxflow_is_min_cut;
        ];
      ( "dot",
        [
          Alcotest.test_case "structure" `Quick test_dot_structure;
          Alcotest.test_case "asymmetric edge" `Quick test_dot_asymmetric_edge;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "inventory" `Quick test_zoo_inventory;
          Alcotest.test_case "connected/multipath" `Quick
            test_zoo_connected_and_multipath;
          Alcotest.test_case "find" `Quick test_zoo_find;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "demo weights" `Quick test_topology_demo_weights;
          Alcotest.test_case "demo paper routes" `Quick test_topology_demo_paper_routes;
          Alcotest.test_case "line/ring/grid" `Quick test_topology_line_ring_grid;
          Alcotest.test_case "random connected" `Quick test_topology_random_connected;
          Alcotest.test_case "random deterministic" `Quick
            test_topology_random_deterministic;
          Alcotest.test_case "two level" `Quick test_topology_two_level;
          Alcotest.test_case "fat tree" `Quick test_topology_fat_tree;
        ] );
    ]
