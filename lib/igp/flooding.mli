(** Control-plane cost model for LSA flooding.

    When an LSA is (re)originated, OSPF reliably floods it over every
    adjacency: each directed link carries the update once (plus an ack we
    do not count separately). The number of rounds until every router has
    the update equals the origin's eccentricity in hops. These are the
    quantities behind the paper's "very limited control-plane overhead"
    claim and the TOVH experiment. *)

type cost = {
  messages : int;  (** LSA copies transmitted (one per directed link). *)
  rounds : int;  (** Propagation depth from the origin (BFS hops). *)
}

type loss
(** Lossy flooding: each transmission is lost with probability [drop]
    and retransmitted with exponential backoff. Attempt [k+1] is sent
    [min (2^k, 8)] rounds after attempt [k]; the 16th attempt to an
    adjacency always delivers (retransmit-until-acked, without unbounded
    tails). *)

val loss : ?drop:float -> seed:int -> unit -> loss
(** Default [drop] 0.1; raises [Invalid_argument] outside [\[0, 1)].
    Deterministic per seed. *)

type jitter
(** LSA delay/reorder model: every per-adjacency delivery pays a random
    extra latency of 0..[max_delay] rounds (queueing, scheduling, a slow
    control plane). Because a router refloods the instant the first copy
    arrives, uneven per-edge delays make updates reach routers {e out of
    order} — the reordering chaos fault is emergent, not scripted. *)

val jitter : ?max_delay:int -> seed:int -> unit -> jitter
(** Default [max_delay] 4 rounds; must be >= 1. Deterministic per
    seed. *)

val flood :
  ?loss:loss -> ?jitter:jitter -> Netgraph.Graph.t ->
  origin:Netgraph.Graph.node -> cost
(** Cost of flooding one LSA originated at [origin] over the physical
    topology. Only links between routers reachable from the origin
    count.

    With [loss], each adjacency drops copies independently and senders
    retransmit with capped exponential backoff until acked: [messages]
    includes every retry, and [rounds] is the time until the last router
    is informed (a router refloods as soon as the first copy arrives, so
    the arrival times are the shortest-path closure of the per-edge retry
    latencies). [loss] with [drop = 0.] is exactly the lossless model.

    With [jitter], every delivery additionally pays a random extra
    latency, so [rounds] stretches and arrivals reorder; combined with
    [loss] the latencies add. *)

val zero : cost

val add : cost -> cost -> cost
(** Messages add; rounds take the maximum (floods proceed in parallel). *)
