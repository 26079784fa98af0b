module Link = Netsim.Link
module Sim = Netsim.Sim

type t = {
  topology : Netgraph.Topologies.demo;
  net : Igp.Network.t;
  caps : Link.capacities;
  sim : Sim.t;
  controller : Fibbing.Controller.t option;
  dt : float;
}

let prefix = Igp.Prefix.v "blue"

let stream_rate = 131072. (* 1 Mbps *)

let link_capacity = 2.75 *. 1024. *. 1024. (* 22 Mbps: ~21 streams *)

let backbone_capacity = 11. *. 1024. *. 1024. (* 88 Mbps: never the bottleneck *)

let video_duration = 300.

let fig2_links t =
  [
    ("A-R1", (t.topology.a, t.topology.r1));
    ("B-R2", (t.topology.b, t.topology.r2));
    ("B-R3", (t.topology.b, t.topology.r3));
  ]

let make ?(fibbing = true) ?(dt = 0.5) ?(rate_model = Sim.Max_min_fair)
    ?(aggregation = true) ?controller_config () =
  let topology = Netgraph.Topologies.demo () in
  let net = Igp.Network.create topology.graph in
  Igp.Network.announce_prefix net prefix ~origin:topology.c ~cost:0;
  (* The three links the paper plots are the capacity bottlenecks; the
     rest of the network (ingress and egress segments) has headroom, as
     in the demo where 31 streams traverse A-B unharmed but overload
     B-R2 (see DESIGN.md, F2 calibration). *)
  let caps = Link.capacities ~default:backbone_capacity in
  List.iter
    (fun link -> Link.set_link caps link link_capacity)
    [
      (topology.a, topology.r1);
      (topology.b, topology.r2);
      (topology.b, topology.r3);
    ];
  (* Fast-reacting monitor, as the demo controller must beat the surge:
     2 s SNMP polls, strongly weighted to the last window. *)
  let monitor =
    Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85
      ~clear_threshold:0.6 ~alpha:0.8 caps
  in
  let sim = Sim.create ~dt ~monitor ~rate_model ~aggregation ~flow_history:true net caps in
  let controller =
    if fibbing then begin
      let c = Fibbing.Controller.create ?config:controller_config net in
      Fibbing.Controller.attach c sim;
      Some c
    end
    else None
  in
  let t = { topology; net; caps; sim; controller; dt } in
  List.iter (fun (_, link) -> Sim.track_link sim link) (fig2_links t);
  t

let load_fig2_workload t =
  let flows =
    Video.Workload.fig2_schedule ~s1:t.topology.a ~s2:t.topology.b ~prefix
      ~rate:stream_rate ~video_duration
  in
  List.iter (Sim.add_flow t.sim) flows;
  flows

let run t ~until = Sim.run_until t.sim until

let fig2_series t =
  List.map (fun (_, link) -> Sim.link_series t.sim link) (fig2_links t)

let qoe t ~flows =
  Video.Qoe.summarize
    (List.map (fun flow -> Video.Client.replay ~dt:t.dt (Video.Client.trace t.sim flow)) flows)
