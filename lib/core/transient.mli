(** Transient safety of lie installation.

    Fakes are flooded one LSA at a time; between two injections the
    network forwards with a {e partial} lie. A partial lie can loop even
    when the complete plan is correct — e.g. an override that sends R3
    via B, installed before the pin that keeps B on its old path, makes
    R3 and B point at each other. This module checks intermediate states
    and searches for an installation (and a removal) order whose every
    prefix-forwarding graph is loop-free and blackhole-free — the
    per-update consistency concern the Fibbing architecture delegates to
    its controller.

    The granularity is one converged state per injected fake; individual
    routers' update races within one flood are below this model's
    resolution (and are the subject of the ordered-update literature the
    SIGCOMM'15 paper cites). *)

type violation = {
  step : int;  (** 1-based index of the injection that broke the state. *)
  fake_id : string;  (** The fake injected at that step. *)
  problem : string;  (** Human-readable description (loop / blackhole). *)
}

val check_order :
  Igp.Network.t ->
  prefix:Igp.Lsa.prefix ->
  Igp.Lsa.fake list ->
  (unit, violation) result
(** Simulate injecting the fakes in the given order on a clone of the
    network, checking safety after every step. *)

val safe_order :
  Igp.Network.t -> Augmentation.plan -> (Igp.Lsa.fake list, string) result
(** Greedy search for a safe installation order of the plan's fakes:
    at each step pick some uninstalled fake whose injection keeps the
    state safe. Greedy is complete here in practice because installing a
    fake never invalidates previously safe fakes of a verified plan; if
    no safe next step exists the search reports the blocked state. *)

val apply_safely :
  Igp.Network.t -> Augmentation.plan -> (unit, string) result
(** Find a safe order and inject along it. The network is untouched on
    [Error]. *)

val revert_safely :
  Igp.Network.t -> Augmentation.plan -> (Igp.Lsa.fake list, string) result
(** Find a safe removal order and retract along it, returning the order
    used: every state after a prefix of it was checked safe. On [Error]
    the plan remains fully installed. *)
