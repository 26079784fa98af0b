(* Topologies only the tests build. *)

module Graph = Netgraph.Graph

(* [n] routers in a row, unit weights, named N0..N(n-1). *)
let line ~n =
  let g = Graph.create () in
  let nodes = Array.init n (fun i -> Graph.add_node g ~name:(Printf.sprintf "N%d" i)) in
  for i = 0 to n - 2 do
    Graph.add_link g nodes.(i) nodes.(i + 1) ~weight:1
  done;
  g

(* A k-ary fat tree ([k] even): (k/2)^2 cores and [k] pods of k/2
   aggregation and k/2 edge switches, unit weights. *)
let fat_tree ~k =
  let g = Graph.create () in
  let half = k / 2 in
  let cores =
    Array.init (half * half) (fun i ->
        Graph.add_node g ~name:(Printf.sprintf "core_%d" i))
  in
  for pod = 0 to k - 1 do
    let aggs =
      Array.init half (fun i ->
          Graph.add_node g ~name:(Printf.sprintf "agg_%d_%d" pod i))
    in
    let edges =
      Array.init half (fun i ->
          Graph.add_node g ~name:(Printf.sprintf "edge_%d_%d" pod i))
    in
    (* Full bipartite mesh inside the pod. *)
    Array.iter
      (fun agg -> Array.iter (fun edge -> Graph.add_link g agg edge ~weight:1) edges)
      aggs;
    (* Aggregation switch i uplinks to core group i. *)
    Array.iteri
      (fun i agg ->
        for j = 0 to half - 1 do
          Graph.add_link g agg cores.((i * half) + j) ~weight:1
        done)
      aggs
  done;
  g
