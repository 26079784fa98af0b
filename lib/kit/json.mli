(** Minimal JSON reader/writer.

    The repo emits JSON in several places (telemetry lines, bench
    snapshots, exporters) and now also needs to read some of it back
    (bench history rows, golden-file tests) without adding a parser
    dependency. This is a small, strict JSON implementation: full
    escape handling, numbers as [float], objects as association lists
    in source order.

    Not a streaming parser — intended for single documents or JSONL
    lines up to a few megabytes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses one complete JSON document; trailing whitespace is allowed,
    any other trailing input is an error, and so is a number that
    overflows [float] (JSON has no infinity to print it back as).
    Errors carry a byte offset. *)

val parse_lines : string -> (t list, string) result
(** Parses JSONL: one document per non-empty line. *)

val to_string : t -> string
(** Compact rendering. Floats holding integral values in the safe
    range print without a fractional part, so int-valued counters
    round-trip as [42], not [42.]. *)
