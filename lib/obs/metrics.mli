(** Global metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Handles are found-or-created by name and stay valid forever —
    instrument at module top level ([let c = Metrics.counter "x.y"]) so
    the hot path is a single flag check plus an unboxed cell update, with
    no lookup and no allocation. All update operations are no-ops while
    the global switch (see [Obs.enable]) is off.

    Percentiles are estimated from the histogram's buckets by linear
    interpolation inside the bucket holding the rank: exact to within
    one bucket's width (default buckets are log-spaced at ratio 1.25
    from 1e-3 to 1e4, sized for millisecond timings). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or create. Raises [Invalid_argument] if the name is already
    registered as a different kind. *)

val gauge : string -> gauge

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; values above the
    last bound land in an unbounded overflow bucket. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [0.] when empty. *)
  max : float;  (** [0.] when empty. *)
  p50 : float;
  p95 : float;
  p99 : float;
}

val dump_buckets : unit -> (string * (float * int) list) list
(** OpenMetrics-style cumulative buckets for every registered histogram,
    sorted by name — the exporter pairs this with {!dump}. Each pair
    counts the observations at or below the upper bound, ending with
    [(infinity, total)]; each histogram is a coherent snapshot taken
    under its lock. *)

type snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

val dump : unit -> (string * snapshot) list
(** Every registered metric, sorted by name. *)

val to_json_lines : unit -> string
(** One JSON object per line, sorted by name; deterministic. *)

val pp_table : Format.formatter -> unit -> unit

val reset : unit -> unit
(** Zero every value. Registrations (and outstanding handles) survive. *)
