(* Fixture for check_modules: one value of each kind the check sorts. *)

val dead : int
(** Called by nothing outside this module: the only value to flag. *)

val opened : int
(** Called bare, by a file that opens [Shapes]. *)

val reexported : int
(** Called only as [Geometry.reexported], through [include Shapes]. *)

val allowed : int
(** Uncalled, but on the allow-list. *)

val scale : ?factor:int -> ?unit_name:(?upper:bool -> string -> string) -> int -> int
(** Called with [~factor] only: [unit_name] is the one option to flag;
    [upper] is the callback's, not [scale]'s. *)
