(** TCP-like AIMD rate dynamics.

    [Fairshare] jumps to the max-min equilibrium instantly; real video
    sessions ramp up and back off. This model keeps a rate per flow and,
    each step, additively grows every uncongested flow towards its
    demand and multiplicatively shrinks every flow crossing a link whose
    offered load exceeds capacity. Under stationary conditions the rates
    oscillate around the fair share (the classic AIMD result); the
    simulator exposes it as an alternative allocator so the Fig. 2
    curves can be reproduced with convergence dynamics visible. *)

type t

val create : unit -> t
(** A new flow starts at 10% of its demand; uncongested flows gain 25%
    of their demand per second; congested flows multiply their rate by
    0.7. *)

val update :
  t -> dt:float -> capacities:Link.capacities -> Fairshare.route list ->
  (int * float) list
(** Advance one step for the given routed flows and return their rates.
    Flows unseen before are initialized; rates never exceed demand. *)

val forget : t -> int -> unit
(** Drop a departed flow's state. *)
