(** Bench history: append-only JSONL rows of per-track counters, and a
    rolling-baseline regression gate over them.

    [bench prof --history FILE --tag SHA] appends one row per track
    (deterministic counters first: allocated words, GC collections,
    workload sizes; wall-time and cores/domains as context);
    [bench gate] then compares the newest row of each track and
    workload against the median of the previous rows and fails on any gated counter
    exceeding its noise band. The gate logic lives here, in the
    library, so tests can drive it on synthetic histories without
    spawning the bench binary. *)

type row = {
  tag : string;  (** Commit SHA or a free-form label. *)
  track : string;  (** e.g. ["spf_churn"], ["water_fill"], ["sim_step"]. *)
  values : (string * float) list;
      (** Counters and context, flat. The workload-size keys
          ([prefixes], [routers], [links], [flows], [groups], [cycles],
          [domains], [seeds], [chaos_seeds], and [live_gc], the basis
          of the allocation counts) must match exactly for a row to
          join the baseline, so a workload-size change starts a fresh
          baseline instead of comparing apples to oranges. Every
          other key is a measurement: gated when {!gate} has a band
          for it, otherwise only recorded. *)
}

val row_to_json : row -> string
(** One line, no trailing newline:
    [{"tag":...,"track":...,"k":v,...}]. *)

val append : file:string -> row list -> unit
(** Appends one line per row, creating the file if needed. *)

val load : file:string -> row list
(** Rows in file order; [[]] if the file does not exist. Raises
    [Failure] on a malformed line. *)

val workload : row -> string
(** The row's workload-size keys as sorted [k=v] pairs, space-separated
    ([""] when it has none). Rows gate together when their track and
    workload agree. *)

type verdict = {
  v_track : string;
  v_workload : string;  (** {!workload} of the compared rows. *)
  v_counter : string;
  current : float;
  baseline : float;  (** Median of the baseline window. *)
  limit : float;  (** [baseline * (1 + rel) + abs]. *)
  ok : bool;
}

val gate : row list -> verdict list
(** For each track and {!workload} (in first-appearance order): the
    newest row is compared against the median of up to 5
    immediately-preceding rows of that track and workload, so a track
    that records two workload sizes per run gates each. A track and
    workload with no comparable history produce no verdicts — the first
    CI run bootstraps the baseline rather than failing. The bands are
    tight (+2% plus a small slack) on the deterministic counters
    [alloc_words], [installed], [approx_bytes], [rows_written],
    [rehashed] and [visited_per_update], +2% plus 0.1 word on
    [words_per_event], +25% and +100% on minor and major
    collections, +50% + 1 ms on [wall_ms], and +200% + 5 ms on the
    table timings [build_ms], [warm_ms] and [lie_cycle_ms] (wall time
    on shared runners moves 2x between identical runs, so these only
    catch a gross regression). Only regressions (increases) fail;
    improvements pass and tighten the rolling baseline. *)

val gate_ok : verdict list -> bool

val pp_verdicts : Format.formatter -> verdict list -> unit
