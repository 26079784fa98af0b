(** Typed attribute values attached to trace spans and timeline events,
    with deterministic JSON rendering (same value, same bytes — the
    timeline determinism guarantee depends on it). *)

type value = String of string | Int of int | Float of float | Bool of bool

type t = string * value

val escape : string -> string
(** JSON string-body escaping. *)

val list_to_json : t list -> string
(** A JSON object [{"k":v,...}] in the given order: strings are escaped,
    floats rendered with ["%.6g"]. *)

val pp_list : Format.formatter -> t list -> unit
(** Renders [k=v k=v ...] for human-readable tables. *)
