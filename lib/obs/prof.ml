type snap = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

(* Separate switch, off by default: GC deltas are not a pure function
   of the logical run (see prof.mli), so the determinism-sensitive
   paths never turn this on. *)
let on = Atomic.make false

let enable () = Atomic.set on true

let disable () = Atomic.set on false

(* [Gc.quick_stat]'s word counters only catch up at collection
   boundaries on OCaml 5: between two minor collections its
   [minor_words] does not move at all, and its [major_words] misses
   every direct major allocation since the last one. [Gc.minor_words]
   reads the live allocation pointer and [Gc.counters] the calling
   domain's live promoted and major words (its minor words lag like
   quick_stat's), so the words come from there; the collection counts
   are exactly what quick_stat reports. *)
let snapshot () =
  let s = Gc.quick_stat () in
  let minor_words = Gc.minor_words () in
  let _, promoted_words, major_words = Gc.counters () in
  {
    minor_words;
    promoted_words;
    major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
  }

let zero =
  {
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
  }

let delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
  }

let allocated_words d = d.minor_words +. d.major_words -. d.promoted_words

let delta_attrs d =
  [
    ("alloc_words", Attr.Float (allocated_words d));
    ("minor_words", Attr.Float d.minor_words);
    ("promoted_words", Attr.Float d.promoted_words);
    ("major_words", Attr.Float d.major_words);
    ("minor_collections", Attr.Int d.minor_collections);
    ("major_collections", Attr.Int d.major_collections);
    ("compactions", Attr.Int d.compactions);
  ]

let with_span ?attrs ?alloc_counter name f =
  if not (Atomic.get State.enabled && Atomic.get on) then
    (* Forward the option itself: re-wrapping [~attrs] would box a
       [Some] on every disabled call. *)
    Trace.with_span ?attrs name f
  else begin
    let attrs = Option.value attrs ~default:[] in
    (* The before-snapshot is taken inside the wrapped function so the
       span machinery's own prologue allocation is not charged to the
       span; the after-snapshot runs at span end, before the span
       record itself is built. Both run on the same domain as [f]. *)
    let before = ref zero in
    let late () =
      let d = delta ~before:!before ~after:(snapshot ()) in
      (match alloc_counter with
      | Some c -> Metrics.add c (int_of_float (allocated_words d))
      | None -> ());
      delta_attrs d
    in
    Trace.with_span ~attrs ~late_attrs:late name (fun () ->
        before := snapshot ();
        f ())
  end
