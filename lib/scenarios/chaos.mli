(** Chaos experiment: the demo network under a random seeded fault
    schedule ({!Netsim.Faults}), with a live Fibbing controller that can
    itself crash and restart mid-run.

    The invariant under test is the paper's graceful-degradation
    argument made executable: after every fault heals and a long calm
    tail passes — during which a live controller withdraws its lies and
    a dead controller's lies age out — routing must be {e exactly} the
    fault-free pure-IGP state: topology bit-identical, zero fakes in the
    LSDB, every FIB equal to a from-scratch computation, and the probe
    flow (which has a physical path throughout) routable again. *)

type verdict = {
  seed : int;
  plan : Netsim.Faults.plan;
  edges_restored : bool;
  fakes_left : int;
  fibs_match : bool;
  unroutable_at_until : int list;
      (** Flows without a path when the faults have healed but lies may
          still be installed — informative, not part of [ok]. *)
  unroutable_at_end : int list;
  controller_alive : bool;
  reactions : int;
  violations : Netsim.Watchdog.violation list;
      (** Watchdog violations over the {e whole} run, every step — the
          strongest property: not only must the system reconverge, no
          intermediate state may ever loop, blackhole, or leak lies. *)
  quarantines : int;
      (** Lie sets purged by the watchdog's pre-routing guard (the
          controller's own revalidation usually withdraws first). *)
  watchdog_stats : Netsim.Watchdog.stats option;
      (** Work counters ([None] when the watchdog was off). *)
}

val ok : verdict -> bool
(** Topology whole, zero fakes, FIBs equal the fault-free reference,
    nothing unroutable after quiescence, and zero watchdog violations at
    every step. *)

val run :
  ?faults:int ->
  ?watchdog:bool ->
  seed:int ->
  until:float ->
  unit ->
  verdict
(** Deterministic: same seed, same verdict. Faults all heal by
    [until - 4]; the run continues for a fixed quiescence tail past
    [until]. Requires [until >= 16]. With [Obs] telemetry enabled the
    whole run is traced on the shared timeline ([fibbingctl chaos]).
    [watchdog] (default [true]) arms a {!Netsim.Watchdog} after the
    controller attaches and wires guard purges into the controller's
    quarantine hold-down; the controller sits at R3, so during a
    partition it only reacts to links its side can observe. *)

val sweep :
  pool:Kit.Pool.t ->
  ?faults:int ->
  ?watchdog:bool ->
  seeds:int list ->
  until:float ->
  unit ->
  (verdict * string option) list
(** [run] over every seed, one scenario per domain of [pool], results in
    [seeds] order. This is the library's only parallel section.
    When telemetry is enabled each run executes inside [Obs.capture] and
    pairs its verdict with its private timeline rendered as JSON lines
    ([None] while disabled) — sequence numbers restart at 0 per run, so
    both verdicts and timelines are byte-identical to a sequential sweep
    at any pool width. Runs never touch the shared Obs rings. *)

val pp : Format.formatter -> verdict -> unit
