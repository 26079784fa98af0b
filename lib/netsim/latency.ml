let ms_per_weight = 5.
let service_ms = 0.12
let max_queue_ms = 50.

let link_delay_ms g sim link =
  let u, v = link in
  let weight = Option.value ~default:1 (Netgraph.Graph.weight g u v) in
  let propagation = float_of_int weight *. ms_per_weight in
  let rate =
    Option.value ~default:0. (List.assoc_opt link (Sim.current_link_rates sim))
  in
  let utilization = rate /. Link.capacity (Sim.capacities sim) link in
  (* M/M/1 sojourn: service / (1 - rho), capped by the buffer. *)
  let queueing =
    if utilization >= 1. then max_queue_ms
    else min max_queue_ms (service_ms /. (1. -. utilization))
  in
  propagation +. queueing

let flow_delay_ms sim id =
  let g = Igp.Network.graph (Sim.network sim) in
  let rec walk acc = function
    | u :: (v :: _ as rest) -> walk (acc +. link_delay_ms g sim (u, v)) rest
    | _ -> acc
  in
  Option.map (walk 0.) (Sim.flow_path sim id)

let mean_flow_delay_ms sim =
  let delays =
    List.filter_map
      (fun (flow : Flow.t) -> flow_delay_ms sim flow.id)
      (Sim.active_flows sim)
  in
  Kit.Stats.mean delays
