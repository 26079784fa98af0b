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

val create :
  ?initial_fraction:float ->
  ?increase_per_s:float ->
  ?decrease_factor:float ->
  unit ->
  t
(** A new flow starts at [initial_fraction] of its demand (default 0.1);
    uncongested flows gain [increase_per_s] of their demand per second
    (default 0.25); congested flows multiply by [decrease_factor]
    (default 0.7, in (0, 1)). *)

val update :
  t -> dt:float -> capacities:Link.capacities -> Fairshare.route list ->
  (int * float) list
(** Advance one step for the given routed flows and return their rates.
    Flows unseen before are initialized; rates never exceed demand. *)

val forget : t -> int -> unit
(** Drop a departed flow's state. *)
