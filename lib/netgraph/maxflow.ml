type capacities = (Graph.node * Graph.node, float) Hashtbl.t

let epsilon = 1e-9

(* Residual capacity of (u, v): capacity - flow + reverse flow. *)
let residual capacities flow u v =
  let cap = Option.value ~default:0. (Hashtbl.find_opt capacities (u, v)) in
  let fwd = Option.value ~default:0. (Hashtbl.find_opt flow (u, v)) in
  let back = Option.value ~default:0. (Hashtbl.find_opt flow (v, u)) in
  cap -. fwd +. back

(* BFS for a shortest augmenting path in the residual graph. Residual arcs
   exist along graph edges in both directions (forward capacity and flow
   cancellation). *)
let find_augmenting g capacities flow ~source ~sink =
  let n = Graph.node_count g in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  visited.(source) <- true;
  let queue = Queue.create () in
  Queue.push source queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let consider v =
      if (not visited.(v)) && residual capacities flow u v > epsilon then begin
        visited.(v) <- true;
        parent.(v) <- u;
        if v = sink then found := true else Queue.push v queue
      end
    in
    Graph.iter_succ g u (fun v _ -> consider v);
    List.iter (fun (v, _) -> consider v) (Graph.pred g u)
  done;
  if not !found then None
  else begin
    let rec rebuild v acc = if v = source then v :: acc else rebuild parent.(v) (v :: acc) in
    Some (rebuild sink [])
  end

let max_flow g capacities ~source ~sink =
  Hashtbl.iter
    (fun _ c -> if c < 0. then invalid_arg "Maxflow: negative capacity")
    capacities;
  let flow : (Graph.node * Graph.node, float) Hashtbl.t = Hashtbl.create 64 in
  let value = ref 0. in
  if source <> sink then begin
    let rec augment () =
      match find_augmenting g capacities flow ~source ~sink with
      | None -> ()
      | Some path ->
        let rec bottleneck acc = function
          | u :: (v :: _ as rest) ->
            bottleneck (min acc (residual capacities flow u v)) rest
          | _ -> acc
        in
        let delta = bottleneck infinity path in
        let rec push = function
          | u :: (v :: _ as rest) ->
            (* Cancel reverse flow first, then add forward flow. *)
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
