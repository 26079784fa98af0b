(** SNMP-like link monitoring.

    In the demo, "a Fibbing controller, connected to R3, monitors link
    loads using SNMP". We model the same information flow: the simulator
    feeds byte-counter increments to the monitor; every [poll_interval]
    seconds the monitor computes per-link utilization over the last
    window, smooths it with an EWMA, and raises alarms for links above
    the threshold or clears for links that dropped back below it. *)

type t

type alarm = {
  link : Link.t;
  utilization : float;  (** Smoothed utilization (load/capacity). *)
  raised : bool;  (** [true] = overload alarm, [false] = cleared. *)
}

val create :
  ?poll_interval:float ->
  ?threshold:float ->
  ?clear_threshold:float ->
  ?alpha:float ->
  Link.capacities ->
  t
(** Defaults: poll every 2 s, alarm above 0.9, clear below 0.7, EWMA
    alpha 0.5. Raises [Invalid_argument] unless [poll_interval > 0],
    [clear_threshold <= threshold] and [alpha] is in (0, 1]. *)

val observe : t -> time:float -> dt:float -> (Link.t * float) list -> unit
(** Account [rate * dt] bytes on each link for the interval ending at
    [time]. Rates are bytes/s. *)

val poll_due : t -> time:float -> bool

val poll : t -> time:float -> alarm list
(** Complete a polling cycle: returns newly raised and newly cleared
    alarms (state transitions only, not repeats). Resets the window
    counters.

    A poll at (or within a microsecond of) the previous poll's time is a
    no-op returning [[]]: the counters have not advanced, and dividing
    the window bytes by a ~zero-length window would fabricate absurd
    utilization spikes and spurious alarms. *)

val forget : t -> Link.t -> unit
(** Drop all monitoring state for one link (window bytes, smoothed
    utilization, alarm). Called when the link leaves the topology so a
    dead link cannot hold an alarm forever; its history series is kept
    for reporting. *)

val prune : t -> alive:(Link.t -> bool) -> unit
(** [forget] every known link for which [alive] is false. *)

val mute : t -> until:float -> unit
(** Fault injection: lose every sample observed at or before [until]
    (an SNMP blackout). Muting never rewinds an already-later mute. *)

val set_sample_loss : t -> (Kit.Prng.t * float) option -> unit
(** Fault injection: drop each per-link sample independently with the
    given probability (deterministic per PRNG). [None] disables. *)

type corruption
(** Corrupted/stale telemetry: each surviving per-link sample is, with
    some probability, scaled by a uniform random factor in [\[0, gain)] —
    factors above 1 fabricate phantom congestion (spurious alarms),
    factors below 1 model stale or undercounting readings (missed
    congestion). *)

val corruption : ?probability:float -> ?gain:float -> seed:int -> unit -> corruption
(** Defaults: probability 0.3, gain 2.0 (so corrupt readings range from
    zero to double the truth). Probability must be in [\[0, 1)], gain
    positive; deterministic per seed. *)

val set_corruption : t -> corruption option -> unit
(** Fault injection: corrupt samples as described above. Applied after
    sample loss (a dropped sample is dropped, not corrupted). [None]
    disables. *)

val fold_utilizations : t -> init:'a -> (Link.t -> float -> 'a -> 'a) -> 'a
(** Fold over every link ever observed (and not forgotten) with its
    smoothed utilization, in no particular order. *)

val threshold : t -> float

val clear_threshold : t -> float
