(** Time-ordered event queue for the discrete-event simulator. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** Times may be scheduled in any order; negative times are rejected. *)

val drain : 'a t -> time:float -> ('a -> unit) -> unit
(** Remove every event with timestamp [<= time], in chronological order,
    and call the function on each as it is removed. Allocates nothing
    itself. *)
