(** Append-only time series of (time, value) samples, used to record link
    throughput over the course of a simulation (paper Fig. 2). *)

type t

val create : name:string -> t

val add : t -> time:float -> float -> unit
(** Samples must be appended in non-decreasing time order; raises
    [Invalid_argument] otherwise. *)

val samples : t -> (float * float) list
(** All samples in chronological order. *)

val to_csv : ?step:float -> t list -> string
(** CSV with a header row ("time,<name>,<name>,...") and one row per
    [step] seconds (default 1.0), resampled like [pp_rows] (each cell is
    the most recent sample at or before its time, [0.] before the
    first); for feeding
    the series to external plotting tools. *)

val pp_rows : ?step:float -> Format.formatter -> t list -> unit
(** Print aligned rows [time v1 v2 ...] resampled on a common grid of
    [step] (default 1.0) seconds from time 0 to the last sample — the
    textual equivalent of the paper's Fig. 2 plot. *)
