(** Small statistics helpers for experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; [0.] on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0, 100\]], nearest-rank method on the
    sorted sample. Raises [Invalid_argument] on the empty list. *)

val total : float list -> float

val ewma : alpha:float -> float -> float -> float
(** [ewma ~alpha previous sample] is the exponentially weighted moving
    average update [alpha *. sample +. (1. -. alpha) *. previous].
    Requires [0. <= alpha && alpha <= 1.]. *)
