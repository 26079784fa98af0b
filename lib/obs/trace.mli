(** Structured trace spans.

    [with_span "spf.recompute" ~attrs f] stamps a begin/end pair around
    [f] and stores the completed span in a bounded in-memory ring.
    Spans nest: a span opened inside another becomes its child, and
    every span carries a global sequence number shared with
    {!Timeline} events, so the two streams merge into one causal
    order. When the library is disabled ([Obs.disable]), [with_span]
    is the identity on [f] — one flag check, no clock read, no
    allocation beyond the caller's [attrs] list. *)

type span = {
  seq : int;  (** Global order at span begin; also the span's id. *)
  parent : int option;  (** Enclosing span's [seq]. *)
  depth : int;
  name : string;
  attrs : Attr.t list;
  start_time : float;
  end_time : float;
  domain : int;
      (** Id of the domain that ran the span. Exporters use it as the
          thread lane; it is deliberately absent from the JSON-line
          rendering, which must stay a pure function of the logical
          run regardless of which worker executed it. *)
}

val with_span :
  ?attrs:Attr.t list -> ?late_attrs:(unit -> Attr.t list) -> string -> (unit -> 'a) -> 'a
(** Runs the function, recording the span even when it raises.
    [late_attrs] is evaluated once at span end (also on the raising
    path) and appended after [attrs] — for values only known when the
    work is done, e.g. {!Prof} GC deltas. *)

val spans : unit -> span list
(** Completed spans retained by the ring, in completion order. *)

val dropped : unit -> int
(** Spans evicted by the ring since the last [reset]. *)

val pp_tree : Format.formatter -> unit -> unit
(** Spans as an indented forest (children under parents, by [seq]).
    Spans whose parent was evicted from the ring print as roots. *)

val set_capacity : int -> unit
(** Resize the ring (default 16384). Drops all retained spans. *)

val reset : unit -> unit

(**/**)

val begin_scope : unit -> unit
(** Internal, used by [Obs.capture]: until the matching [end_scope] in
    the same domain, spans completed by this domain accumulate in a
    private buffer instead of the shared ring. *)

val end_scope : unit -> span list
(** Pop the innermost scope of the calling domain and return its spans
    in completion order ([[]] if no scope is open). *)
