(** Flash-crowd workload generation.

    "Video streaming, in conjunction with social networks, have given
    birth to a new traffic pattern over the Internet: transient,
    localized traffic surges, known as flash crowds." This module builds
    the flow populations used by the experiments: the exact Fig. 2
    schedule, bursts with jittered arrivals, and Poisson surges. *)

type spec = {
  src : Netgraph.Graph.node;  (** Ingress router (where the server sits). *)
  prefix : Igp.Lsa.prefix;  (** Prefix hosting the clients. *)
  rate : float;  (** Per-stream bytes/s (the video bitrate). *)
  video_duration : float;  (** Seconds per video. *)
}

val crowd :
  ?jitter:float ->
  Kit.Prng.t ->
  spec list ->
  first_id:int ->
  count:int ->
  at:float ->
  Netsim.Flow.t list
(** Bulk flash-crowd generation at simulation scale: [count] streams
    dealt round-robin across [specs] (several ingress points surging at
    once), each delayed by a uniform jitter in [\[0, jitter\]] (default
    1 s) after [at]. Ids are [first_id ...]. Flows drawn from the same
    spec share (src, prefix, demand), so the simulator's flow-class
    aggregation collapses them into a handful of weighted groups no
    matter how large [count] is. *)

val fig2_schedule :
  s1:Netgraph.Graph.node ->
  s2:Netgraph.Graph.node ->
  prefix:Igp.Lsa.prefix ->
  rate:float ->
  video_duration:float ->
  Netsim.Flow.t list
(** The paper's exact Fig. 2 schedule: 1 flow from S1 at t = 0, 30 more
    from S1 at t = 15, 31 from S2 at t = 35 (no jitter — the paper adds
    them as a batch). *)
