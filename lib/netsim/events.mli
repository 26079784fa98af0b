(** Time-ordered event queue for the discrete-event simulator. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** Times may be scheduled in any order; negative times are rejected. *)

val pop_until : 'a t -> time:float -> (float * 'a) list
(** Remove and return every event with timestamp [<= time], in
    chronological order. *)
