(** Discrete-time network simulation driver.

    The simulator advances in fixed steps of [dt] seconds. Each step it
    (1) activates/retires flows, (2) re-derives every active flow's path
    from the current FIBs (per-flow ECMP hashing; paths change only when
    the LSDB or the flow set changed), (3) computes the max-min fair
    rate allocation, (4) records the throughput series someone asked
    for (tracked links; every flow with [flow_history]), and (5) feeds
    the monitor, firing the poll hook (the Fibbing controller) when a
    polling cycle completes. Hooks may inject or retract fake LSAs; the
    new routing takes effect the following step, which models the
    (fast) IGP reconvergence after a Fibbing update.

    The active flows, their paths and their classes live in
    {!Placement}; this module keeps the clock, the event queues, faults,
    hooks and histories. *)

type t

type rate_model =
  | Max_min_fair
      (** Instantaneous max-min fair equilibrium ([Fairshare]); the
          default. *)
  | Aimd of Aimd.t
      (** TCP-like ramps; delivered throughput is capped at link
          capacity (excess offered load is dropped at the bottleneck
          queue). *)

val create :
  ?dt:float ->
  ?monitor:Monitor.t ->
  ?rate_model:rate_model ->
  ?convergence:Igp.Convergence.timing ->
  ?aggregation:bool ->
  ?flow_history:bool ->
  Igp.Network.t ->
  Link.capacities ->
  t
(** Default [dt] is 0.5 s.

    With [convergence], LSDB changes are not adopted atomically:
    routers switch from their old FIB to the new one at the times given
    by [Igp.Convergence.installation_schedule] (anchored at the change's
    originating router), and flows are routed against the mixed view in
    between — a flow caught in a transient micro-loop is unroutable (its
    packets are lost) until the loop resolves. Without it (the default),
    reconvergence is instantaneous.

    [aggregation] (default [true]) collapses flows sharing
    (src, prefix, demand, hashed path) into one weighted [Fairshare]
    group; each member's rate is the group's per-member level, which for
    identical flows equals their individual max-min rate, so the
    allocation is unchanged while a 100k-stream flash crowd costs a
    handful of groups per step. Pass [false] to force one group per flow
    (the pre-aggregation behavior, kept for A/B testing); AIMD always
    runs per-flow regardless.

    [flow_history] (default [false]) records the per-flow throughput
    series behind [flow_series], one sample per active flow per step.
    Turn it on only to read them ([Video.Client.trace] needs it); link
    series and the monitor are unaffected. *)

val network : t -> Igp.Network.t

val capacities : t -> Link.capacities

val monitor : t -> Monitor.t option

val time : t -> float

val dt : t -> float
(** The fixed step length the simulation was created with. *)

val add_flow : t -> Flow.t -> unit
(** Schedule a flow; its [start_time]/[duration] govern activation.
    Raises [Invalid_argument] if a field fails {!Flow.validate} (a
    record update bypasses [Flow.make]), if the id was ever added
    before — ids stay unique for the simulator's whole life, a stopped
    flow's id included — or if the start time is in the simulated past;
    an add that raises records nothing, so its id stays free. The add
    makes one small record, scheduled for both the start and the stop;
    the flow takes a slot only when it starts. Once no flow is active or
    scheduled, a step drops the slot arrays, so what the simulator keeps
    of a finished workload is its ids (see {!Kit.Int_set}). *)

val schedule : t -> time:float -> (t -> unit) -> unit
(** Schedule an arbitrary action (e.g. a link failure, a manual fake
    injection) to run at the start of the step covering [time]. Actions
    touching the LSDB take routing effect within the same step. Actions
    run in time order; equal timestamps preserve registration order.
    An action that schedules another for the current step runs it at the
    next step. Scheduling is O(1) amortized ({!Events.schedule}). *)

val fail_link : t -> time:float -> Link.t -> unit
(** Schedule a bidirectional link failure: both directions are removed
    from the topology and the IGP reconverges (flows re-hash onto
    surviving paths; flows with no path are starved and reported by
    [unroutable_flows]). The monitor (if any) forgets the link so a dead
    link cannot hold an alarm. Failing an already-failed link is a
    no-op. *)

val restore_link : t -> time:float -> Link.t -> unit
(** Schedule the counterpart of [fail_link]: both directions come back
    with the exact weights the failure removed, the IGP reconverges, and
    flows re-hash (possibly back onto the link). No-op if the link is
    not failed, and deferred while either endpoint is crashed (the
    router recovery restores its own adjacencies). *)

val crash_router : t -> time:float -> Netgraph.Graph.node -> unit
(** Schedule a router crash: all its adjacencies are torn down, its
    LSAs are flushed (any fake attached to or forwarding through it dies
    with it), and the monitor forgets its links. Idempotent while
    crashed. *)

val recover_router : t -> time:float -> Netgraph.Graph.node -> unit
(** Schedule the crashed router's recovery: adjacencies towards live
    neighbors are re-established with their original weights (edges to
    still-crashed neighbors wait for those neighbors) and the router
    re-originates its LSA. No-op if not crashed. *)

val fail_links : t -> time:float -> Link.t list -> unit
(** Schedule the failure of a whole edge set as {e one} action: the step
    that runs it sees the complete cut, never a partially-failed
    intermediate. This is how a partition fault lands atomically. Each
    link fails exactly as under [fail_link]. *)

val restore_links : t -> time:float -> Link.t list -> unit
(** Atomic counterpart of [fail_links]: restore every link of the set in
    one action (the partition heal). *)

val on_poll : t -> (t -> Monitor.alarm list -> unit) -> unit
(** Register a controller hook called after every monitor poll (requires
    a monitor). Multiple hooks run in registration order (O(1) per
    registration). *)

val on_step : t -> (t -> unit) -> unit
(** Hook called after every simulation step. *)

val on_route_change : t -> (t -> unit) -> unit
(** Hook called at the {e start} of any step on which the LSDB version
    changed (fault, fake expiry, scheduled injection) — after the
    change landed but before any flow is routed against it. A Fibbing
    controller participates in the IGP, so it hears a flood as fast as
    any router: this is where it revalidates installed lies the change
    may have invalidated, and where the watchdog's guard purges unsafe
    lie sets before they can forward a single packet. Hooks run in
    registration order and may themselves change the LSDB (their own
    changes do not re-trigger the hooks within the step). *)

val run_until : t -> float -> unit
(** Advance the simulation to the given time (multiple of [dt] steps). *)

val active_flows : t -> Flow.t list

type demand = {
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  path : Netgraph.Graph.node list option;
      (** The class's hashed path; [None] for a flow with no class. *)
  amount : float;  (** Offered rate: member count × per-stream demand. *)
}

val demand_matrix : t -> demand list
(** The offered traffic, read-only and aggregated: one entry per flow
    class (see [aggregation] in {!create}) and one entry, with path
    [None], per active flow that has no class — an unroutable flow
    ([unroutable_flows]; every other active flow has a class between
    steps). Costs O(classes + unroutable flows), plus one pass over
    the active flows when a class's smallest member has left since the
    last call.

    Ordering contract: entries come in ascending order of their smallest
    member flow id. A consumer that sums entries per key (prefix,
    source, upstream router) into a [Hashtbl] therefore meets its keys
    in the same first-seen order as a walk over [active_flows] (sorted
    by id) would, so [Hashtbl.fold] tie-breaks agree with such a walk.
    Sums agree bit for bit when demands are dyadic (every workload's
    stream rate is), and within n·ε relative otherwise, n being the
    number of streams summed.

    The view is valid between steps: paths and classes change only
    inside a step, so a poll hook may build it once and reuse it for
    the whole reaction, even across fake injections (new routing is
    adopted on the next step). *)

val flow_rate : t -> int -> float
(** Current allocated rate of a flow; [0.] if inactive or unroutable.
    The first by-id query after a flow started or stopped rebuilds an
    id index over the active flows; the others are one lookup. *)

val flow_path : t -> int -> Netgraph.Graph.node list option
(** Current path of an active flow (by id, as [flow_rate]). *)

val flow_series : t -> int -> Kit.Timeseries.t
(** Per-flow throughput history: one sample per step the flow was
    active, stamped at the step's start. Without [flow_history] (see
    {!create}) nothing is recorded, and this is a fresh empty series. *)

val link_series : t -> Link.t -> Kit.Timeseries.t
(** Per-link throughput history: one sample per step since the link was
    first asked for, through {!track_link} or an earlier call of this
    function, stamped at the step's start ([0.] when idle). A link
    nobody asked for has recorded nothing: the first call returns an
    empty series, which records from the next step on. *)

val track_link : t -> Link.t -> unit
(** Record the link's history from the next step on (idempotent). The
    simulator keeps no other link history. *)

val current_link_rates : t -> (Link.t * float) list
(** Per-link throughput during the last completed step. *)

val unroutable_flows : t -> int list
(** Ids of active flows that currently have no usable path, sorted. *)

val flow_classes : t -> int
(** Number of distinct flow classes currently allocated over — with
    aggregation, the number of (src, prefix, demand, path) groups;
    without, the number of routable active flows. *)
