type demo = {
  graph : Graph.t;
  a : Graph.node;
  b : Graph.node;
  r1 : Graph.node;
  r2 : Graph.node;
  r3 : Graph.node;
  r4 : Graph.node;
  c : Graph.node;
}

let demo () =
  let graph = Graph.create () in
  let a = Graph.add_node graph ~name:"A" in
  let b = Graph.add_node graph ~name:"B" in
  let r1 = Graph.add_node graph ~name:"R1" in
  let r2 = Graph.add_node graph ~name:"R2" in
  let r3 = Graph.add_node graph ~name:"R3" in
  let r4 = Graph.add_node graph ~name:"R4" in
  let c = Graph.add_node graph ~name:"C" in
  Graph.add_link graph a b ~weight:1;
  Graph.add_link graph a r1 ~weight:2;
  Graph.add_link graph b r2 ~weight:1;
  Graph.add_link graph b r3 ~weight:1;
  Graph.add_link graph r2 c ~weight:1;
  Graph.add_link graph r3 c ~weight:2;
  Graph.add_link graph r1 r4 ~weight:1;
  Graph.add_link graph r4 c ~weight:2;
  { graph; a; b; r1; r2; r3; r4; c }

let ring ~n =
  if n < 3 then invalid_arg "Topologies.ring: n must be >= 3";
  let g = Graph.create () in
  let nodes = Array.init n (fun i -> Graph.add_node g ~name:(Printf.sprintf "N%d" i)) in
  for i = 0 to n - 1 do
    Graph.add_link g nodes.(i) nodes.((i + 1) mod n) ~weight:1
  done;
  g

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Topologies.grid: empty grid";
  let g = Graph.create () in
  let nodes =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            Graph.add_node g ~name:(Printf.sprintf "N%d_%d" r c)))
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Graph.add_link g nodes.(r).(c) nodes.(r).(c + 1) ~weight:1;
      if r + 1 < rows then Graph.add_link g nodes.(r).(c) nodes.(r + 1).(c) ~weight:1
    done
  done;
  g

let random prng ~n ~extra_edges ~max_weight =
  if n < 2 then invalid_arg "Topologies.random: n must be >= 2";
  if max_weight < 1 then invalid_arg "Topologies.random: max_weight must be >= 1";
  let g = Graph.create () in
  let nodes = Array.init n (fun i -> Graph.add_node g ~name:(Printf.sprintf "N%d" i)) in
  let weight () = 1 + Kit.Prng.int prng max_weight in
  (* Random spanning tree: attach node i to a random previous node. *)
  for i = 1 to n - 1 do
    let j = Kit.Prng.int prng i in
    Graph.add_link g nodes.(i) nodes.(j) ~weight:(weight ())
  done;
  let added = ref 0 and attempts = ref 0 in
  while !added < extra_edges && !attempts < extra_edges * 20 do
    incr attempts;
    let u = Kit.Prng.int prng n and v = Kit.Prng.int prng n in
    if u <> v && not (Graph.has_edge g nodes.(u) nodes.(v)) then begin
      Graph.add_link g nodes.(u) nodes.(v) ~weight:(weight ());
      incr added
    end
  done;
  g

let two_level prng ~core ~edge_per_core =
  if core < 3 then invalid_arg "Topologies.two_level: core must be >= 3";
  if edge_per_core < 0 then invalid_arg "Topologies.two_level: negative edge count";
  let g = Graph.create () in
  let cores =
    Array.init core (fun i -> Graph.add_node g ~name:(Printf.sprintf "C%d" i))
  in
  (* Core ring with chords for path diversity. *)
  for i = 0 to core - 1 do
    Graph.add_link g cores.(i) cores.((i + 1) mod core) ~weight:1
  done;
  for i = 0 to core - 1 do
    let j = (i + 2 + Kit.Prng.int prng (max 1 (core - 3))) mod core in
    if j <> i && not (Graph.has_edge g cores.(i) cores.(j)) then
      Graph.add_link g cores.(i) cores.(j) ~weight:2
  done;
  for i = 0 to core - 1 do
    for k = 0 to edge_per_core - 1 do
      let e = Graph.add_node g ~name:(Printf.sprintf "E%d_%d" i k) in
      Graph.add_link g e cores.(i) ~weight:1;
      (* Dual-homed edge routers for redundancy. *)
      Graph.add_link g e cores.((i + 1) mod core) ~weight:2
    done
  done;
  g
