(** The paper's demo scenario, fully wired: Fig. 1a topology, the blue
    prefix at C, video servers at A (S1) and B (S2), clients behind C
    (D1, D2), SNMP-style monitoring, and the Fibbing controller.

    Calibration (DESIGN.md, experiment F2): 1 Mbps video streams
    (131072 bytes/s) and 22 Mbps links (2.75 MB/s ≈ 21 concurrent
    streams). One stream fits everywhere; 31 overload a single link
    (the first surge); 62 need both of B's links plus A's detour (the
    second surge) — the same regime as the paper's 4 MB/s peak figure. *)

type t = {
  topology : Netgraph.Topologies.demo;
  net : Igp.Network.t;
  caps : Netsim.Link.capacities;
  sim : Netsim.Sim.t;
  controller : Fibbing.Controller.t option;
  dt : float;
}

val prefix : Igp.Lsa.prefix
(** "blue" — the destination prefix of the paper's figures. *)

val stream_rate : float
(** Bytes/s of one video stream. *)

val link_capacity : float
(** Bytes/s of the three bottleneck links the paper plots (A–R1, B–R2,
    B–R3). *)

val backbone_capacity : float
(** Bytes/s of every other link (ingress/egress segments with headroom:
    in the demo 31 streams cross A–B unharmed yet overload B–R2). *)

val make :
  ?fibbing:bool ->
  ?dt:float ->
  ?rate_model:Netsim.Sim.rate_model ->
  ?aggregation:bool ->
  ?controller_config:Fibbing.Controller.config ->
  unit ->
  t
(** Build the demo network and simulation. [fibbing] (default true)
    attaches the controller; with [false] the network is left to plain
    IGP routing — the paper's "controller disabled" comparison run.
    [rate_model] defaults to instantaneous max-min fairness; pass
    [Aimd] for TCP-like ramps. [aggregation] (default true) is forwarded
    to [Netsim.Sim.create] — pass [false] for a per-flow A/B reference
    run. The three links of Fig. 2 (A–R1, B–R2, B–R3) are pre-tracked so
    their series include leading zeros. *)

val load_fig2_workload : t -> Netsim.Flow.t list
(** Schedule the paper's exact flow arrivals (1 @ 0 s, +30 @ 15 s,
    +31 @ 35 s) and return them. *)

val run : t -> until:float -> unit

val fig2_series : t -> Kit.Timeseries.t list
(** The recorded throughput series of the three links the paper's Fig. 2
    plots, in the order A-R1, B-R2, B-R3. *)

val qoe : t -> flows:Netsim.Flow.t list -> Video.Qoe.summary
(** Replay every flow through the playback-buffer client model. *)
