(** Mutable binary min-heap keyed by float priorities.

    Used by the water-filling kernel ([Netsim.Fairshare]) and the
    min-cost-flow solver ([Te.Mcf]). Duplicate insertions of the same
    element are allowed; stale entries are the caller's concern (lazy
    deletion). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> priority:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry, if any. Ties are broken
    arbitrarily but deterministically. The heap keeps no reference to a
    popped value. *)

val peek : 'a t -> (float * 'a) option

(** Monomorphic binary min-heap with unboxed [int] priorities and [int]
    payloads — the Dijkstra workhorse.

    There is deliberately no [decrease_key]: Dijkstra relaxations push a
    fresh (priority, node) pair instead, and pops of already-settled
    nodes are skipped by the caller (lazy deletion). This keeps every
    operation allocation-free on the hot path at the cost of a heap that
    may transiently hold O(edges) stale entries. *)
module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] pre-sizes the backing arrays (default grows on demand). *)

  val push : t -> priority:int -> int -> unit

  val pop : t -> (int * int) option
  (** Remove and return the minimum-priority entry, if any. *)
end
