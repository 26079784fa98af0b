module Graph = Netgraph.Graph

type demand = {
  src : Graph.node;
  prefix : Igp.Lsa.prefix;
  amount : float;
}

exception Forwarding_loop of Igp.Lsa.prefix
exception Unreachable of Igp.Lsa.prefix

type t = { table : (Link.t, float) Hashtbl.t }

let add_load t link amount =
  let current = Option.value ~default:0. (Hashtbl.find_opt t.table link) in
  Hashtbl.replace t.table link (current +. amount)

(* Process one prefix: topologically order the forwarding graph (edges
   router -> next hop from every FIB), then push node loads downstream
   splitting by FIB fractions. *)
let propagate_prefix t net prefix demands =
  let g = Igp.Network.graph net in
  let n = Graph.node_count g in
  let node_load = Array.make n 0. in
  let fibs = Igp.Network.fib_table net prefix in
  List.iter
    (fun d ->
      if fibs.(d.src) = None then raise (Unreachable prefix);
      node_load.(d.src) <- node_load.(d.src) +. d.amount)
    demands;
  (* Kahn's algorithm on forwarding edges. *)
  let indegree = Array.make n 0 in
  let forwarding router =
    match fibs.(router) with
    | Some fib when not fib.Igp.Fib.local -> Igp.Fib.fractions fib
    | Some _ | None -> []
  in
  List.iter
    (fun router ->
      List.iter (fun (nh, _) -> indegree.(nh) <- indegree.(nh) + 1) (forwarding router))
    (Graph.nodes g);
  let queue = Queue.create () in
  List.iter
    (fun router -> if indegree.(router) = 0 then Queue.push router queue)
    (Graph.nodes g);
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let router = Queue.pop queue in
    incr processed;
    let amount = node_load.(router) in
    List.iter
      (fun (next_hop, fraction) ->
        if amount > 0. then begin
          add_load t (router, next_hop) (amount *. fraction);
          node_load.(next_hop) <- node_load.(next_hop) +. (amount *. fraction)
        end;
        indegree.(next_hop) <- indegree.(next_hop) - 1;
        if indegree.(next_hop) = 0 then Queue.push next_hop queue)
      (forwarding router)
  done;
  if !processed < n then begin
    (* A cycle exists; it only matters if a cyclic router carries load. *)
    let cyclic_loaded =
      List.exists
        (fun router -> indegree.(router) > 0 && node_load.(router) > 0.)
        (Graph.nodes g)
    in
    if cyclic_loaded then raise (Forwarding_loop prefix)
  end

let propagate net demands =
  let t = { table = Hashtbl.create 32 } in
  let by_prefix = Hashtbl.create 4 in
  List.iter
    (fun d ->
      if d.amount < 0. then invalid_arg "Loadmap.propagate: negative demand";
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_prefix d.prefix) in
      Hashtbl.replace by_prefix d.prefix (d :: existing))
    demands;
  Hashtbl.iter (fun prefix ds -> propagate_prefix t net prefix ds) by_prefix;
  t

let loads t =
  Hashtbl.to_seq t.table
  |> List.of_seq
  |> List.filter (fun (_, l) -> l > 0.)
  |> List.sort (fun (a, _) (b, _) -> Link.compare a b)

let utilization t capacities =
  List.map (fun (link, l) -> (link, l /. Link.capacity capacities link)) (loads t)

let max_utilization t capacities =
  List.fold_left
    (fun acc (link, u) ->
      match acc with
      | Some (_, best) when best >= u -> acc
      | Some _ | None -> Some (link, u))
    None
    (utilization t capacities)

let pp g fmt t =
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare b a) (loads t)
  in
  List.iter
    (fun (link, l) -> Format.fprintf fmt "%-12s %10.1f@." (Link.name g link) l)
    sorted
