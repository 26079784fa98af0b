(* Fixture for check_modules: one value of each kind the check sorts. *)

val dead : int
(** Called by nothing outside this module: the only value to flag. *)

val opened : int
(** Called bare, by a file that opens [Shapes]. *)

val reexported : int
(** Called only as [Geometry.reexported], through [include Shapes]. *)

val allowed : int
(** Uncalled, but on the allow-list. *)
