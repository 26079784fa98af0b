(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator (workload generation,
    random topologies, flow hashing seeds) draws from an explicit [Prng.t]
    so that experiments are reproducible bit-for-bit from a seed. *)

type t

val create : seed:int -> t
(** [create ~seed] returns an independent generator. Two generators with
    the same seed produce the same stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (used for Poisson
    arrival processes). Requires [mean > 0.]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
