(** Bounded ring buffer: a FIFO of fixed capacity that overwrites its
    oldest element when full. Used for event logs and trace buffers that
    must not grow without bound over long simulations. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val push : 'a t -> 'a -> unit
(** Append, evicting the oldest element when the ring is full. *)

val dropped : 'a t -> int
(** Total elements evicted since creation (or the last [clear]). *)

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val clear : 'a t -> unit
(** Drop every element and reset the [dropped] counter. *)
