type result = {
  source : Graph.node;
  dist : int array; (* max_int encodes "unreachable" *)
  preds : Graph.node list array;
  order : Graph.node array; (* settled nodes, first [settled] slots *)
  settled : int;
}

let unreachable = max_int

let run g ~source =
  let n = Graph.node_count g in
  let dist = Array.make n unreachable in
  let preds = Array.make n [] in
  let settled = Array.make n false in
  let order = Array.make n source in
  let count = ref 0 in
  let heap = Kit.Heap.Int.create ~capacity:n () in
  dist.(source) <- 0;
  Kit.Heap.Int.push heap ~priority:0 source;
  let rec loop () =
    match Kit.Heap.Int.pop heap with
    | None -> ()
    | Some (_, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        order.(!count) <- u;
        incr count;
        (* Each directed edge (u, v) is relaxed exactly once ([settled]
           guards re-expansion of u), so [u] can never already be in
           [preds.(v)] — no membership scan needed. *)
        Graph.iter_succ g u (fun v w ->
            let candidate = dist.(u) + w in
            if candidate < dist.(v) then begin
              dist.(v) <- candidate;
              preds.(v) <- [ u ];
              Kit.Heap.Int.push heap ~priority:candidate v
            end
            else if candidate = dist.(v) then preds.(v) <- u :: preds.(v));
        loop ()
      end
      else loop ()
  in
  loop ();
  { source; dist; preds; order; settled = !count }

let distance r v = if r.dist.(v) = unreachable then None else Some r.dist.(v)

let distance_exn r v =
  if r.dist.(v) = unreachable then raise Not_found else r.dist.(v)

let reachable r v = r.dist.(v) <> unreachable

let predecessors r v = if r.dist.(v) = unreachable then [] else r.preds.(v)

let iter_settled r f =
  for i = 0 to r.settled - 1 do
    f r.order.(i)
  done

(* Nodes on the shortest-path DAG between source and target: reverse DFS
   from the target along predecessor sets. *)
let dag_nodes r ~target =
  if r.dist.(target) = unreachable then [||]
  else begin
    let marked = Array.make (Array.length r.dist) false in
    let rec visit v =
      if not marked.(v) then begin
        marked.(v) <- true;
        List.iter visit r.preds.(v)
      end
    in
    visit target;
    marked
  end

let first_hops g r ~target =
  if target = r.source || r.dist.(target) = unreachable then []
  else begin
    let marked = dag_nodes r ~target in
    let hops =
      List.filter_map
        (fun (v, w) ->
          if r.dist.(v) = w && marked.(v) then Some v else None)
        (Graph.succ g r.source)
    in
    List.sort_uniq compare hops
  end
