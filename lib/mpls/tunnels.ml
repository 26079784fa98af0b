module Graph = Netgraph.Graph

type tunnel = {
  id : int;
  head : Graph.node;
  tail : Graph.node;
  path : Graph.node list;
  bandwidth : float;
}

type t = {
  graph : Graph.t;
  capacities : Netsim.Link.capacities;
  mutable next_id : int;
  mutable live : tunnel list;
  mutable signaling : int;
}

let create graph capacities =
  { graph; capacities; next_id = 0; live = []; signaling = 0 }

let reserved t link =
  List.fold_left
    (fun acc tunnel ->
      let rec on_path = function
        | u :: (v :: _ as rest) -> (u, v) = link || on_path rest
        | _ -> false
      in
      if on_path tunnel.path then acc +. tunnel.bandwidth else acc)
    0. t.live

let hops path = max 0 (List.length path - 1)

let establish t ~head ~tail ~bandwidth =
  if bandwidth <= 0. then Error "bandwidth must be positive"
  else begin
    match
      Cspf.path t.graph ~capacities:t.capacities ~reserved:(reserved t)
        ~bandwidth ~src:head ~dst:tail
    with
    | None -> Error "no path with sufficient residual bandwidth"
    | Some path ->
      let tunnel = { id = t.next_id; head; tail; path; bandwidth } in
      t.next_id <- t.next_id + 1;
      t.live <- t.live @ [ tunnel ];
      (* One Path downstream + one Resv upstream per hop. *)
      t.signaling <- t.signaling + (2 * hops path);
      Ok tunnel
  end

let signaling_messages t = t.signaling

let refresh_messages t ~period ~duration =
  if period <= 0. then invalid_arg "Tunnels.refresh_messages: period";
  let cycles = int_of_float (duration /. period) in
  List.fold_left
    (fun acc tunnel -> acc + (2 * hops tunnel.path * cycles))
    0 t.live

let router_state_entries t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun tunnel ->
      List.iter
        (fun router ->
          Hashtbl.replace table router
            (1 + Option.value ~default:0 (Hashtbl.find_opt table router)))
        tunnel.path)
    t.live;
  Hashtbl.fold (fun router count acc -> (router, count) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let total_state t =
  List.fold_left (fun acc (_, count) -> acc + count) 0 (router_state_entries t)

let encap_overhead_bytes _t ~packet_size ~label_bytes ~volume =
  if packet_size <= 0 then invalid_arg "Tunnels.encap_overhead_bytes: packet size";
  volume /. float_of_int packet_size *. float_of_int label_bytes
