(** Asynchronous IGP reconvergence.

    A flooded LSA does not change the network atomically: each router
    receives it after the flood has travelled to it, runs SPF, and
    installs the new FIB — all at its own pace. Between the first and the
    last installation the network forwards with a {e mix} of old and new
    FIBs; this is where micro-loops and transient blackholes live, and
    why the paper's controller can react "quickly" (one LSA flood)
    while weight reconfiguration is "too slow" (every change replays
    this window on every router).

    [analyze] replays an LSDB change router by router, in installation
    order, and reports how long the network spends in unsafe mixed
    states. Fibbing's equal-cost additions are loop-free through the
    whole window; weight changes generally are not. *)

type timing = {
  flood_per_hop : float;  (** Seconds per flooding hop (default 0.01). *)
  spf_delay : float;
      (** SPF computation + FIB installation time per router
          (default 0.15). *)
  jitter : float;
      (** Deterministic per-router stagger added as
          [router_id mod 7 * jitter] (default 0.02), modelling unequal
          router load. *)
}

val installation_schedule :
  timing ->
  Netgraph.Graph.t ->
  origin:Netgraph.Graph.node ->
  (Netgraph.Graph.node * float) list
(** When each router installs the new FIB, relative to the origination
    time: flood depth x per-hop + SPF delay + jitter. Sorted by time;
    unreachable routers are omitted. *)

type report = {
  states : int;  (** Mixed states traversed (= routers that changed). *)
  unsafe_states : int;
  unsafe_window : float;  (** Total seconds spent in unsafe states. *)
  convergence_time : float;  (** Time of the last installation. *)
  first_problem : (float * string) option;
      (** Onset time and description of the first unsafe state. *)
}

val analyze :
  before:Network.t ->
  after:Network.t ->
  origin:Netgraph.Graph.node ->
  prefix:Lsa.prefix ->
  unit ->
  report
(** Replay the change from [before]'s routing to [after]'s: routers
    adopt their new FIB at the time {!installation_schedule} gives them
    under the default timing (0.01 s per hop, 0.15 s SPF delay, 0.02 s
    jitter); after every adoption the mixed state is checked. Both
    networks must share the same physical graph shape (same node ids). *)
