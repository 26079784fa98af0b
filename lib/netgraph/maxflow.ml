type capacities = (Graph.node * Graph.node, float) Hashtbl.t

let epsilon = 1e-9

(* Dense over nodes [0, n): the capacity and flow of (u, v) sit at
   [u * n + v]. [adj] lists, per node, its successors and then its
   predecessors: the residual arcs in the order the BFS tries them. The
   other arrays are one run's scratch. *)
type network = {
  n : int;
  adj : int array array;
  cap : Float.Array.t;
  flow : Float.Array.t;
  parent : int array;
  visited : bool array;
  queue : int array; (* the BFS queue, then the augmenting path *)
}

let network g capacities =
  Hashtbl.iter
    (fun _ c -> if c < 0. then invalid_arg "Maxflow: negative capacity")
    capacities;
  let n = Graph.node_count g in
  let cap = Float.Array.make (n * n) 0. in
  (* [Hashtbl.find], not the iterated value: a key bound twice has the
     capacity of its newest binding. *)
  Hashtbl.iter
    (fun ((u, v) as e) _ ->
      if u >= 0 && u < n && v >= 0 && v < n then
        Float.Array.set cap ((u * n) + v) (Hashtbl.find capacities e))
    capacities;
  let adj =
    Array.init n (fun u ->
        Array.of_list (List.map fst (Graph.succ g u) @ List.map fst (Graph.pred g u)))
  in
  {
    n;
    adj;
    cap;
    flow = Float.Array.make (n * n) 0.;
    parent = Array.make n (-1);
    visited = Array.make n false;
    queue = Array.make n 0;
  }

(* [Stdlib.min] specialised to floats: the same choice on ties and NaN,
   without the polymorphic compare. *)
let fmin (a : float) b = if a <= b then a else b

(* Residual capacity of (u, v): capacity - flow + reverse flow. *)
let residual net u v =
  Float.Array.get net.cap ((u * net.n) + v)
  -. Float.Array.get net.flow ((u * net.n) + v)
  +. Float.Array.get net.flow ((v * net.n) + u)

(* BFS for a shortest augmenting path in the residual graph, which has
   arcs along graph edges in both directions (forward capacity and flow
   cancellation). On success, [parent] leads back from the sink. *)
let find_augmenting net ~source ~sink =
  Array.fill net.visited 0 net.n false;
  net.visited.(source) <- true;
  net.queue.(0) <- source;
  let head = ref 0 and tail = ref 1 and found = ref false in
  while (not !found) && !head < !tail do
    let u = net.queue.(!head) in
    incr head;
    let adj = net.adj.(u) in
    let i = ref 0 in
    while (not !found) && !i < Array.length adj do
      let v = adj.(!i) in
      incr i;
      if (not net.visited.(v)) && residual net u v > epsilon then begin
        net.visited.(v) <- true;
        net.parent.(v) <- u;
        if v = sink then found := true
        else begin
          net.queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  !found

let max_flow net ~source ~sink =
  Float.Array.fill net.flow 0 (net.n * net.n) 0.;
  let value = ref 0. in
  if source <> sink then begin
    let path = net.queue in
    while find_augmenting net ~source ~sink do
      (* The path, sink first: [path.(len - 1)] is the source. *)
      let len = ref 0 and v = ref sink in
      while !v <> source do
        path.(!len) <- !v;
        incr len;
        v := net.parent.(!v)
      done;
      path.(!len) <- source;
      incr len;
      let delta = ref infinity in
      for k = !len - 1 downto 1 do
        delta := fmin !delta (residual net path.(k) path.(k - 1))
      done;
      let delta = !delta in
      for k = !len - 1 downto 1 do
        let u = path.(k) and v = path.(k - 1) in
        (* Cancel reverse flow first, then add forward flow. *)
        let back = Float.Array.get net.flow ((v * net.n) + u) in
        let cancel = fmin back delta in
        Float.Array.set net.flow ((v * net.n) + u) (back -. cancel);
        let fwd = Float.Array.get net.flow ((u * net.n) + v) in
        Float.Array.set net.flow ((u * net.n) + v) (fwd +. delta -. cancel)
      done;
      value := !value +. delta
    done
  end;
  !value
