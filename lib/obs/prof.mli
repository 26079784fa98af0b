(** Allocation/GC profiling attached to trace spans.

    [with_span] behaves like {!Trace.with_span}, but when profiling is
    switched on it additionally snapshots the GC counters around the
    function and appends the delta (words allocated in the minor and
    major heaps, promotions, collection counts, compactions) as span
    attributes — so [fibbingctl trace --prof] shows words-allocated per
    [spf.recompute] / [fairshare.water_fill] / [sim.step] span.

    Profiling has its own switch, layered under the global one and
    {b off by default}: GC counters are monotone per domain but their
    deltas depend on heap state carried in from earlier work (how full
    the nursery was, when the last slice ran), so they are not a pure
    function of the logical run. The byte-identical timeline guarantees
    (chaos replays, parallel-vs-sequential equality) therefore hold
    with profiling off; turn it on only when reading the numbers.

    Domain safety: the word counters ([Gc.minor_words], [Gc.counters])
    are the calling domain's own, read live; the collection counts come
    from [Gc.quick_stat]. Spans never migrate domains mid-flight (the
    span stack is domain-local), so before/after snapshots always come
    from the same domain. A span's delta covers only allocation done by
    its own domain — work fanned out to a pool is attributed to the
    workers' spans, not the caller's.

    Cost: with profiling (or [Obs]) off, one extra atomic load on top
    of [Trace.with_span]'s flag check — the <5% disabled-overhead gate
    is unaffected. *)

type snap = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}
(** Either an absolute reading or a delta of two. *)

val enable : unit -> unit
val disable : unit -> unit

val snapshot : unit -> snap
(** The calling domain's GC counters. Words (minor, promoted, major) are
    read live, so a direct major allocation counts as soon as it is
    made, not at the next collection; collection counts come from
    [Gc.quick_stat]. *)

val delta : before:snap -> after:snap -> snap

val allocated_words : snap -> float
(** Total words allocated: [minor + major - promoted] (promotions move
    existing words, they are not new allocation). *)

val with_span :
  ?attrs:Attr.t list -> ?alloc_counter:Metrics.counter -> string -> (unit -> 'a) -> 'a
(** [Trace.with_span] plus, when profiling is on, the GC delta of the
    wrapped function as late attributes. [alloc_counter], if given,
    accumulates the span's allocated words (rounded down) into a
    metrics counter so the totals show up in [fibbingctl metrics]. *)
