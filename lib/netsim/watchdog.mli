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
    - {b lie budget}: at most [max_fakes] fakes installed;
    - {b lie freshness}: every installed fake carries an expiry
      (mortal), not further out than [max_lie_age], and not silently
      past due;
    - {b lie anchoring}: every fake's forwarding adjacency still exists;
    - {b utilization bound}: delivered per-link throughput respects
      [utilization_bound * capacity].

    Checks run at two boundaries. The {e post-step check} (every
    [Sim.on_step]) verifies the state the step actually forwarded with;
    any hit is a violation, emitted as an Obs timeline event and a
    metrics counter (and raised when [fail_fast]). The {e pre-routing
    guard} ([Sim.on_route_change], enabled by [guard]) runs when a
    topology change lands, {e before} flows are routed: a prefix whose
    state turned unsafe has its fakes purged on the spot (the lie
    quarantine of last resort — any IGP speaker can MaxAge-flood a
    poisoned LSA), so the unsafe state never carries traffic. A live
    controller's own revalidation hook, registered earlier, normally
    withdraws first; the guard covers dead controllers and unowned
    lies.

    Steady state costs ~nothing: the safety sweep is gated on the LSDB
    version and the SPF engine's dirty-router log, so steps without an
    effective routing change skip it entirely (the cheap O(#fakes) and
    O(#loaded links) scans still run). *)

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

exception Tripped of violation
(** Raised by the post-step check when [fail_fast] is set. *)

type config = {
  max_fakes : int;  (** Lie budget (default 64). *)
  max_lie_age : float;
      (** Upper bound on expiry - now (default {!Igp.Lsa.max_age}). *)
  require_mortal : bool;
      (** Flag fakes installed without an expiry (default [true]). *)
  utilization_bound : float;
      (** Delivered-rate bound as a fraction of capacity (default 1.0 —
          the max-min allocator never exceeds capacity). *)
  guard : bool;
      (** Arm the pre-routing quarantine guard (default [true]). *)
  fail_fast : bool;
      (** Raise {!Tripped} on the first post-step violation (default
          [false]). *)
  history : int;  (** Violation ring capacity (default 256). *)
}

type t

val arm : ?config:config -> Sim.t -> t
(** Register the watchdog's hooks on the simulation. Raises
    [Invalid_argument] on a non-positive [max_lie_age],
    [utilization_bound] or [history], or a negative [max_fakes]. *)

val on_quarantine : t -> (prefix:Igp.Lsa.prefix -> reason:string -> unit) -> unit
(** Called when the pre-routing guard purges a prefix's lies — lets a
    live controller drop its own bookkeeping for the prefix and enter
    hold-down. *)

val violations : t -> violation list
(** Recorded violations, oldest first (bounded by [history]). *)

val violation_count : t -> int
(** Total violations reported (not bounded by the ring). *)

val quarantine_count : t -> int
(** Prefix quarantines performed by the pre-routing guard. *)

type stats = {
  steps_checked : int;
  safety_sweeps : int;  (** Full per-prefix safety walks actually run. *)
  safety_skipped : int;  (** Post-step checks that skipped the sweep. *)
  violations : int;
  quarantines : int;
}

val stats : t -> stats
(** Work counters backing the overhead gate: in steady state
    [safety_skipped] must dominate [safety_sweeps]. *)
