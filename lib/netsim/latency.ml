type config = {
  ms_per_weight : float;
  service_ms : float;
  max_queue_ms : float;
}

let default_config = { ms_per_weight = 5.; service_ms = 0.12; max_queue_ms = 50. }

let link_delay_ms config g sim link =
  let u, v = link in
  let weight = Option.value ~default:1 (Netgraph.Graph.weight g u v) in
  let propagation = float_of_int weight *. config.ms_per_weight in
  let rate =
    Option.value ~default:0. (List.assoc_opt link (Sim.current_link_rates sim))
  in
  let utilization = rate /. Link.capacity (Sim.capacities sim) link in
  (* M/M/1 sojourn: service / (1 - rho), capped by the buffer. *)
  let queueing =
    if utilization >= 1. then config.max_queue_ms
    else min config.max_queue_ms (config.service_ms /. (1. -. utilization))
  in
  propagation +. queueing

let flow_delay_ms config sim id =
  let g = Igp.Network.graph (Sim.network sim) in
  let rec walk acc = function
    | u :: (v :: _ as rest) -> walk (acc +. link_delay_ms config g sim (u, v)) rest
    | _ -> acc
  in
  Option.map (walk 0.) (Sim.flow_path sim id)

let mean_flow_delay_ms ?(config = default_config) sim =
  let delays =
    List.filter_map
      (fun (flow : Flow.t) -> flow_delay_ms config sim flow.id)
      (Sim.active_flows sim)
  in
  Kit.Stats.mean delays
