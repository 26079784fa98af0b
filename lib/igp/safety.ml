module Graph = Netgraph.Graph

type verdict = Safe | Loop of Graph.node list | Blackhole of Graph.node

(* Loop and blackhole analysis of one forwarding state: Kahn's
   algorithm on the next-hop edges finds cycles; a forward walk from
   every routed router must end at a local delivery. *)
let analyze fibs =
  let n = Array.length fibs in
  let nodes = List.init n Fun.id in
  let forwarding router =
    match fibs.(router) with
    | Some fib when not fib.Fib.local -> Fib.next_hops fib
    | Some _ | None -> []
  in
  (* Cycle detection. *)
  let indegree = Array.make n 0 in
  List.iter
    (fun router ->
      List.iter (fun nh -> indegree.(nh) <- indegree.(nh) + 1) (forwarding router))
    nodes;
  let queue = Queue.create () in
  Array.iteri (fun router d -> if d = 0 then Queue.push router queue) indegree;
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let router = Queue.pop queue in
    incr processed;
    List.iter
      (fun nh ->
        indegree.(nh) <- indegree.(nh) - 1;
        if indegree.(nh) = 0 then Queue.push nh queue)
      (forwarding router)
  done;
  if !processed < n then
    Loop (List.filter (fun router -> indegree.(router) > 0) nodes)
  else begin
    (* Blackholes: a routed router whose every forwarding chain dies.
       With loop-freedom established, it suffices that every router with
       a FIB has all next hops themselves routed (or local). *)
    let routed router = fibs.(router) <> None in
    match
      List.find_opt
        (fun router ->
          routed router
          && List.exists (fun nh -> not (routed nh)) (forwarding router))
        nodes
    with
    | Some router -> Blackhole router
    | None -> Safe
  end

let verdict net ~prefix = analyze (Network.fib_table net prefix)

let describe g ~prefix = function
  | Safe -> "safe"
  | Loop routers ->
    Printf.sprintf "forwarding loop for %s through {%s}"
      (Prefix.to_string prefix)
      (String.concat ", " (List.map (Graph.name g) routers))
  | Blackhole router ->
    Printf.sprintf "blackhole for %s at %s: a next hop has no route"
      (Prefix.to_string prefix) (Graph.name g router)

let state_safe net ~prefix =
  match verdict net ~prefix with
  | Safe -> Ok ()
  | problem -> Error (describe (Network.graph net) ~prefix problem)
