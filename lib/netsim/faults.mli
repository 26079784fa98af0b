(** Deterministic, seeded fault injection.

    A {!plan} is a time-ordered schedule of faults drawn from a seed;
    {!inject} arms it against a running simulation. Everything the plan
    breaks it also heals (except, optionally, the controller — whose
    lies must then age out on their own), so chaos properties can demand
    full reconvergence to the fault-free routing after the plan runs
    out. The controller is not a [Netsim] concept, so its crash/restart
    faults are delivered through callbacks. *)

type kind =
  | Link_down of Link.t
  | Link_up of Link.t
  | Router_crash of Netgraph.Graph.node
  | Router_recover of Netgraph.Graph.node
  | Partition of {
      side : Netgraph.Graph.node list;
      cut : Link.t list;
      duration : float;
    }
      (** Cut every edge in [cut] atomically (one scheduled action),
          splitting the graph with [side] on one shore, and restore the
          whole cut [duration] seconds later. The heal is implicit: a
          plan never carries separate [Link_up] events for cut edges. *)
  | Monitor_blackout of float
      (** Lose every monitor sample for this many seconds. *)
  | Monitor_sample_loss of { probability : float; duration : float }
      (** Drop each per-link sample independently. *)
  | Monitor_corruption of {
      probability : float;
      gain : float;
      duration : float;
    }
      (** Corrupt surviving samples: with [probability], scale a reading
          by a uniform factor in [\[0, gain)] ({!Monitor.corruption}) —
          phantom congestion above 1, stale/undercounting below. *)
  | Flooding_loss of { drop : float; duration : float }
      (** Per-hop LSA drop probability; floods pay retransmissions
          ({!Igp.Flooding.loss}) while active. *)
  | Lsa_delay of { max_delay : int; duration : float }
      (** Per-adjacency LSA delivery jitter of up to [max_delay] extra
          flooding rounds ({!Igp.Flooding.jitter}); routers on distinct
          paths from the origin then learn changes in different orders. *)
  | Controller_crash
  | Controller_restart

type event = { time : float; kind : kind }

type plan = { seed : int; until : float; events : event list }

val random_plan :
  ?faults:int -> seed:int -> until:float -> Netgraph.Graph.t -> plan
(** Draw [faults] fault episodes (default 4) over [\[0.5, until - 4]].
    Same seed, same graph: same plan. Guarantees: every link failure,
    router crash, and partition is healed by [until - 4]; no element
    suffers two overlapping faults; a crashed router never overlaps a
    failed incident link or a cut edge. Partition sides are grown by BFS
    from a random router (at most half the graph); when the crossing
    edges collide with already-faulted elements the draw degrades to a
    blackout. The controller crashes at most once and stays dead to the
    end with probability ~0.3. Raises [Invalid_argument] when
    [until <= 5]. *)

val inject :
  ?on_controller_crash:(Sim.t -> unit) ->
  ?on_controller_restart:(Sim.t -> unit) ->
  Sim.t ->
  plan ->
  unit
(** Schedule every event of the plan against the simulation. Monitor
    faults silently no-op when the sim has no monitor; controller faults
    call the given callbacks. Timed sub-PRNGs (sample loss, flooding
    loss) are derived from [plan.seed], so a replay is bit-identical. *)

val to_string : Netgraph.Graph.t -> plan -> string
(** Human-readable schedule, one event per line. *)
