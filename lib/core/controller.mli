(** The on-demand load-balancing controller of the paper's demo.

    The controller monitors link loads (SNMP in the demo, the [Netsim]
    monitor here) and, when a link exceeds the utilization threshold,
    computes where and how to deflect traffic:

    + find the congested link's upstream router [v] and the dominant
      destination prefix on the link;
    + gather candidate next hops at [v]: the current ones plus every
      loop-free alternate neighbor;
    + estimate the capacity available {i to v's traffic} through each
      candidate as the residual max-flow from the candidate to the
      prefix's egress, after subtracting the demand of flows not passing
      through [v] (the paper's controller knows the demands: "the servers
      notify the controller when they have a new client");
    + drop candidates offering less than 5% of the total availability,
      split traffic across the rest proportionally to it, compile the
      splits with [Augmentation.compile], and inject the fake LSAs;
    + when the available capacity at [v] cannot cover the demand, walk
      one hop upstream (towards the ingress) and repeat, at most 4 hops
      per reaction — this is what moves the intervention from B (even
      ECMP, the paper's Fig. 1c fB) to A (1/3–2/3 split, fakes fA) when
      the second flash crowd hits.

    Reactions are rate-limited per prefix by a cooldown, and all installed
    lies are withdrawn after a configurable calm period. Every action is
    recorded in a bounded event log used by the experiments.

    The LSDB is the one record of which lies exist. While it is alive,
    the controller owns every fake LSA in its network's LSDB — the lies
    it compiled, the ones it adopted at a restart or a resync, and any
    injected by hand: it refreshes, counts and withdraws them all. Its
    memory holds decisions only (per prefix: the requirements and the
    plan that compiled them, or a hold-down); a plan one of whose lies
    has left the LSDB (flushed with a failed link, expired, purged) is
    forgotten, its surviving lies count as adopted, and the next
    reaction compiles afresh. *)

type strategy =
  | Local_deflection
      (** The demo's reactive scheme: split at (or just upstream of) the
          congested link, proportionally to residual capacity. Minimal
          lies, no global knowledge needed beyond demands. *)
  | Global_optimal
      (** On every reaction, recompute the (1−ε)-optimal min–max flow
          for the prefix's current demands ([Te]-style pipeline supplied
          via [reoptimize]) and install it. More fakes, optimal
          utilization. *)

type config = {
  max_entries : int;
      (** FIB entries a reaction may use per router (default 4: small
          lies first — the demo's interventions use at most 3). *)
  cooldown : float;  (** Seconds between reactions for one prefix (4.). *)
  relax_after : float;
      (** Withdraw all lies after this many seconds with every link below
          the monitor's clear threshold (default 60.). *)
  strategy : strategy;  (** Default [Local_deflection]. *)
  lie_ttl : float;
      (** Age (seconds, default 30.) stamped on every installed fake and
          refreshed on each control iteration. A dead controller stops
          refreshing, so its lies expire and routing falls back to the
          pure IGP — the paper's graceful-degradation argument. Must be
          positive; clamped to {!Igp.Lsa.max_age}. *)
  max_backoff : float;
      (** Cap (seconds, default 60.) on the exponential pause after
          consecutive ineffective reactions. Must be >= [cooldown]. *)
  seat : Netgraph.Graph.node option;
      (** Where the controller physically sits (default [None] =
          omniscient). With a seat, reactions only consider links with
          at least one endpoint reachable from it — during a partition
          the far side's telemetry cannot arrive — and growth of the
          reachable set (a heal) triggers an adopt-or-withdraw resync. *)
}

type reoptimizer =
  Igp.Network.t ->
  prefix:Igp.Lsa.prefix ->
  capacities:(Netsim.Link.t -> float) ->
  demands:(Netgraph.Graph.node * float) list ->
  egress:Netgraph.Graph.node ->
  Requirements.router_requirement list
(** Computes the desired per-router splits for the prefix's demands on a
    {e lie-free} view of the network. The [Te] library provides the
    canonical implementation (Garg–Könemann + decomposition); it is
    injected rather than imported to keep this library's dependencies
    one-directional. *)

val default_config : config

type action = {
  time : float;
  description : string;
  fakes_installed : int;
      (** For an entry about one prefix: the fakes of its {e computed}
          plan, 0 when it has none (after a quarantine, say). Lies
          adopted at restart read 0 here; {!fake_count} counts them. A
          restart or resync entry carries {!fake_count}; a calm
          withdrawal, 0. *)
}

type t

val create : ?config:config -> ?reoptimize:reoptimizer -> Igp.Network.t -> t
(** [reoptimize] is required (at [react] time) when the strategy is
    [Global_optimal]; reactions fall back to local deflection and log an
    error if it is missing. *)

val attach : t -> Netsim.Sim.t -> unit
(** Register the controller on the simulation's monitor poll hook and
    its route-change hook (for {!revalidate}). The simulation must have
    been created with a monitor. Attach the controller {e before}
    arming a {!Netsim.Watchdog}: the owner's revalidation then runs
    ahead of the watchdog's guard-of-last-resort. *)

val react : t -> Netsim.Sim.t -> Netsim.Monitor.alarm list -> unit
(** One control iteration (called by the poll hook; callable directly in
    tests). *)

val withdraw_all : t -> unit
(** Retract every fake in the LSDB (a live controller owns them all) and
    forget every computed plan. Quarantine holds survive: a held prefix
    stays barred until its hold expires. No-op while crashed. *)

val quarantine :
  t -> time:float -> prefix:Igp.Lsa.prefix -> reason:string -> unit
(** Withdraw every lie for the prefix in the LSDB — those of its
    computed plan in a transiently safe order when one exists, the rest
    outright — and hold the prefix down for 12 seconds: reactions and installs for
    it are suppressed until the hold expires. Called by the controller's
    own revalidation when a topology change makes a steering unsafe, and
    wired to the watchdog's quarantine hook so a guard purge also enters
    hold-down. No-op while crashed. *)

val crash : t -> unit
(** Fault injection: the controller process dies. All in-memory state
    (requirements, plans, hold-downs, backoff) is lost; the lies survive
    in the LSDB but are no longer refreshed, so they age out and the
    network falls back to pure-IGP routing.
    [react] is a no-op while crashed. Idempotent. *)

val restart : t -> time:float -> unit
(** Fault injection: the controller comes back with empty memory and
    resyncs from the network itself — every fake LSA in the LSDB is
    either {e adopted} (its prefix is still announced and its forwarding
    link still exists: it is stamped now and, like every lie in the
    LSDB, refreshed, counted and withdrawn on calm) or {e withdrawn} on
    the spot. The same judgement runs at a resync after a partition
    heals, over the lies of prefixes without a computed plan. It never
    blindly reinstalls pre-crash state. No-op if alive. *)

val alive : t -> bool

val actions : t -> action list
(** Event log, oldest first. At most 4096 entries are retained — the
    oldest are dropped once the ring is full, so the controller never
    grows without bound over long scenarios. *)

val fake_count : t -> int
(** Fakes this controller owns: {!Igp.Lsdb.fake_count} of its network
    while alive, 0 while crashed. *)
