(** The scenario timeline: one ordered, replayable event stream merging
    monitor polls, alarms, controller reactions and SPF/FIB recompute
    spans.

    Subsystems [record] events as they act; completed {!Trace} spans are
    merged in on export (a span appears at its begin position — spans and
    events share one global sequence counter, so interleaving is causal).
    Events live in a bounded ring; recording is a no-op while the
    library is disabled. *)

type event = {
  time : float;
  seq : int;
  source : string;  (** Emitting subsystem, e.g. "monitor". *)
  kind : string;  (** Event type within the source, e.g. "alarm". *)
  attrs : Attr.t list;
}

val record : ?time:float -> source:string -> kind:string -> Attr.t list -> unit
(** [time] defaults to [Clock.now ()]. Callers on hot paths should
    guard the call (and the [attrs] allocation) with [Obs.enabled]. *)

val events : ?include_spans:bool -> unit -> event list
(** The merged stream ordered by sequence number. [include_spans]
    (default [true]) converts each completed span into an event
    ([source = "trace"], kind = span name, with a ["duration_ms"]
    attribute appended). *)

val to_json_lines : ?include_spans:bool -> unit -> string
(** One JSON object per event, deterministic for deterministic inputs. *)

val pp_table : ?include_spans:bool -> Format.formatter -> unit -> unit

val reset : unit -> unit

val merge : events:event list -> spans:Trace.span list -> event list
(** Convert each span to the event it merges in as (positioned at the
    span's begin, [seq] and [start_time]; [source = "trace"], kind =
    span name, a ["duration_ms"] attribute appended), append, sort by
    [seq] — the
    same merge [events] performs on the live rings, applied to explicit
    lists (e.g. an [Obs.capture] result). *)

val render_json_lines : event list -> string
(** The [to_json_lines] format applied to an explicit event list. *)

(**/**)

val begin_scope : unit -> unit
(** Internal, used by [Obs.capture]: until the matching [end_scope] in
    the same domain, events recorded by this domain accumulate in a
    private buffer instead of the shared ring. *)

val end_scope : unit -> event list
(** Pop the innermost scope of the calling domain and return its events
    in recording order ([[]] if no scope is open). *)
