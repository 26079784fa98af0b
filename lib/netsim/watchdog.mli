(** Continuous runtime safety layer.

    Install-time checks ([Fibbing.Transient]) prove a lie set safe at
    the moment it is injected — but faults, partitions, and corrupted
    telemetry can invalidate an installed lie set long after the check
    passed (a link failure elsewhere can turn a verified lie into a
    forwarding loop). The watchdog re-verifies a registry of invariants
    continuously:

    - {b per-prefix safety}: the live forwarding graph of every
      announced prefix is loop-free and blackhole-free
      ({!Igp.Safety.verdict});
    - {b lie budget}: at most 64 fakes installed;
    - {b lie freshness}: every installed fake carries an expiry
      (mortal), not further out than {!Igp.Lsa.max_age}, and not
      silently past due;
    - {b lie anchoring}: every fake's forwarding adjacency still exists;
    - {b utilization bound}: delivered per-link throughput respects
      capacity.

    Checks run at two boundaries. The {e post-step check} (every
    [Sim.on_step]) verifies the state the step actually forwarded with;
    any hit is a violation, emitted as an Obs timeline event and a
    metrics counter. The {e pre-routing guard} ([Sim.on_route_change])
    runs when a topology change lands, {e before} flows are routed: a
    prefix whose state turned unsafe has its fakes purged on the spot
    (the lie quarantine of last resort — any IGP speaker can
    MaxAge-flood a poisoned LSA), so the unsafe state never carries
    traffic. A state that turned unsafe after the guard ran (a lie
    injected by a later hook of the same step) is caught by the
    post-step check and purged by the next step's guard, so it carries
    traffic for at most that one step. A live controller's own
    revalidation hook, registered earlier, normally withdraws first;
    the guard covers dead controllers and unowned lies.

    Steady state costs ~nothing: the safety sweep is gated on the LSDB
    version and the SPF engine's dirty log, so steps without an
    effective routing change skip it entirely (the cheap O(#fakes) and
    O(#loaded links) scans still run). A sweep checks the prefixes whose
    rows the log names and those whose last check was unsafe or
    malformed; it checks every prefix on router-wide or full dirt, on
    the first change after {!arm}, and when the post-step check left an
    unsafe state for the guard. It reports exactly the violations and
    quarantines a sweep of every prefix would, in the same order: an
    unchecked prefix still has the FIB table its last, clean check
    saw. *)

type kind =
  | Forwarding_loop
  | Blackhole
  | Lie_budget
  | Stale_lie  (** Immortal, past-due, or over-aged fake. *)
  | Dangling_lie  (** Forwarding adjacency gone but fake still installed. *)
  | Link_overload
  | Malformed_fib
      (** An installed FIB violates {!Igp.Fib.invariant} (non-positive
          multiplicity or non-canonical entries). *)

type violation = {
  time : float;
  kind : kind;
  prefix : Igp.Lsa.prefix option;
      (** The prefix the violation is attributed to, when per-prefix. *)
  subject : string;  (** Fake id, link name, or prefix. *)
  detail : string;
}

type t

val arm : Sim.t -> t
(** Register the watchdog's hooks on the simulation: the guard on
    [Sim.on_route_change], the post-step check on [Sim.on_step]. *)

val on_quarantine : t -> (prefix:Igp.Lsa.prefix -> reason:string -> unit) -> unit
(** Called when the pre-routing guard purges a prefix's lies — lets a
    live controller drop its own bookkeeping for the prefix and enter
    hold-down. *)

val violations : t -> violation list
(** Recorded violations, oldest first (the newest 256). *)

val violation_count : t -> int
(** Total violations reported (not bounded by the ring). *)

val quarantine_count : t -> int
(** Prefix quarantines performed by the pre-routing guard. *)

type stats = {
  steps_checked : int;
  safety_sweeps : int;  (** Per-prefix safety walks actually run. *)
  safety_skipped : int;  (** Post-step checks that skipped the sweep. *)
  violations : int;
  quarantines : int;
}

val stats : t -> stats
(** Work counters backing the overhead gate: in steady state
    [safety_skipped] must dominate [safety_sweeps]. *)
