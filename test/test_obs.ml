(* Tests for the Obs telemetry library: metrics round-trips, percentile
   estimates against a sorted oracle, span nesting, timeline ordering,
   the Kit.Ring buffer backing the bounded logs, and end-to-end
   determinism of the traced F2 demo scenario.

   Obs state is global and tests run sequentially in one process, so
   every test brackets its work with [with_obs] (reset + enable +
   disable) and never leaves the switch on. *)

let checkf = Alcotest.(check (float 1e-6))

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Metric reads go through the registry dump, by name, as the exporters
   read them. *)
let metric name = List.assoc name (Obs.Metrics.dump ())

let counter_value name =
  match metric name with Obs.Metrics.Counter n -> n | _ -> Alcotest.fail name

let gauge_value name =
  match metric name with Obs.Metrics.Gauge v -> v | _ -> Alcotest.fail name

let summary name =
  match metric name with Obs.Metrics.Histogram s -> s | _ -> Alcotest.fail name

let test_counter_roundtrip () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test.counter" in
      Alcotest.(check int) "starts at zero" 0 (counter_value "test.counter");
      Obs.Metrics.incr c;
      Obs.Metrics.add c 41;
      Alcotest.(check int) "incr + add" 42 (counter_value "test.counter");
      (* Find-or-create returns the same cell. *)
      let c' = Obs.Metrics.counter "test.counter" in
      Obs.Metrics.incr c';
      Alcotest.(check int) "same cell by name" 43 (counter_value "test.counter"))

let test_gauge_roundtrip () =
  with_obs (fun () ->
      let g = Obs.Metrics.gauge "test.gauge" in
      checkf "starts at zero" 0. (gauge_value "test.gauge");
      Obs.Metrics.set g 2.5;
      Obs.Metrics.set g 1.25;
      checkf "last write wins" 1.25 (gauge_value "test.gauge"))

let test_histogram_roundtrip () =
  with_obs (fun () ->
      let h =
        Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test.histogram"
      in
      List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 3.; 100. ];
      let s = summary "test.histogram" in
      Alcotest.(check int) "count" 4 s.count;
      checkf "sum" 105. s.sum;
      checkf "min" 0.5 s.min;
      checkf "max" 100. s.max;
      (* rank(0.5) = ceil(0.5 * 4) = 2 -> second bucket (1, 2], fully
         interpolated to its upper bound. *)
      checkf "p50 lands in its bucket" 2. s.p50)

let test_disabled_ops_are_noops () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.Metrics.counter "test.disabled.counter" in
  let g = Obs.Metrics.gauge "test.disabled.gauge" in
  let h = Obs.Metrics.histogram "test.disabled.histogram" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 7;
  Obs.Metrics.set g 3.;
  Obs.Metrics.observe h 1.;
  Alcotest.(check int) "counter untouched" 0 (counter_value "test.disabled.counter");
  checkf "gauge untouched" 0. (gauge_value "test.disabled.gauge");
  Alcotest.(check int) "histogram untouched" 0 (summary "test.disabled.histogram").count

let test_kind_mismatch_rejected () =
  ignore (Obs.Metrics.counter "test.kind");
  Alcotest.(check bool) "gauge under a counter name" true
    (try
       ignore (Obs.Metrics.gauge "test.kind");
       false
     with Invalid_argument _ -> true)

let test_reset_keeps_handles () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test.reset.counter" in
      Obs.Metrics.add c 5;
      Obs.Metrics.reset ();
      Alcotest.(check int) "zeroed" 0 (counter_value "test.reset.counter");
      Obs.Metrics.incr c;
      Alcotest.(check int) "handle still live" 1 (counter_value "test.reset.counter");
      Alcotest.(check bool) "registration survives in dump" true
        (List.mem_assoc "test.reset.counter" (Obs.Metrics.dump ())))

let test_metrics_json_deterministic () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test.json.counter" in
      Obs.Metrics.add c 3;
      let j1 = Obs.Metrics.to_json_lines () in
      let j2 = Obs.Metrics.to_json_lines () in
      Alcotest.(check string) "stable output" j1 j2;
      Alcotest.(check bool) "contains the counter" true
        (let rec contains i =
           i + 17 <= String.length j1
           && (String.sub j1 i 17 = "test.json.counter" || contains (i + 1))
         in
         contains 0))

(* Percentile estimates vs. a sorted-sample oracle. The histogram's
   default buckets are log-spaced at ratio 1.25, and the estimate is
   interpolated within the bucket holding the nearest-rank sample, so
   estimate/oracle must stay within one bucket ratio. *)
let pct_gen =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 80) (int_range 0 1_000_000))

let prop_percentile_oracle =
  QCheck.Test.make ~name:"quantile tracks the nearest-rank oracle" ~count:200
    pct_gen (fun (n, seed) ->
      let prng = Kit.Prng.create ~seed in
      let values = List.init n (fun _ -> 0.01 +. Kit.Prng.float prng 50.) in
      Obs.reset ();
      Obs.enable ();
      let h = Obs.Metrics.histogram "test.pct" in
      List.iter (Obs.Metrics.observe h) values;
      let sorted = Array.of_list (List.sort compare values) in
      let ok =
        List.for_all
          (fun (q, q_of) ->
            let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
            let oracle = sorted.(rank - 1) in
            let est = q_of (summary "test.pct") in
            est >= (oracle /. 1.2501) -. 1e-9
            && est <= (oracle *. 1.2501) +. 1e-9)
          Obs.Metrics.
            [
              (0.5, fun s -> s.p50); (0.95, fun s -> s.p95); (0.99, fun s -> s.p99);
              (1.0, fun s -> s.max);
            ]
      in
      Obs.disable ();
      ok)

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_obs (fun () ->
      let result =
        Obs.Trace.with_span "outer" (fun () ->
            Obs.Trace.with_span "inner" (fun () -> 7))
      in
      Alcotest.(check int) "value passes through" 7 result;
      match Obs.Trace.spans () with
      | [ inner; outer ] ->
        (* Completion order: inner closes first. *)
        Alcotest.(check string) "inner name" "inner" inner.Obs.Trace.name;
        Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
        Alcotest.(check int) "outer is a root" 0 outer.depth;
        Alcotest.(check bool) "outer has no parent" true (outer.parent = None);
        Alcotest.(check int) "inner nested once" 1 inner.depth;
        Alcotest.(check bool) "inner's parent is outer" true
          (inner.parent = Some outer.seq);
        Alcotest.(check bool) "begin order: outer first" true
          (outer.seq < inner.seq)
      | spans ->
        Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_span_exception_safety () =
  with_obs (fun () ->
      (try Obs.Trace.with_span "boom" (fun () -> raise Exit)
       with Exit -> ());
      Alcotest.(check int) "raising span still recorded" 1
        (List.length (Obs.Trace.spans ()));
      (* The span stack was popped: the next span is a root again. *)
      Obs.Trace.with_span "after" ignore;
      let after =
        List.find
          (fun (s : Obs.Trace.span) -> s.name = "after")
          (Obs.Trace.spans ())
      in
      Alcotest.(check int) "stack unwound" 0 after.depth;
      Alcotest.(check bool) "no stale parent" true (after.parent = None))

let test_span_disabled_is_identity () =
  Obs.reset ();
  Obs.disable ();
  Alcotest.(check int) "runs the function" 9
    (Obs.Trace.with_span "ghost" (fun () -> 9));
  Alcotest.(check int) "records nothing" 0 (List.length (Obs.Trace.spans ()))

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_merges_spans_causally () =
  with_obs (fun () ->
      Obs.Timeline.record ~time:1. ~source:"a" ~kind:"one" [];
      ignore
        (Obs.Trace.with_span "work" (fun () ->
             Obs.Timeline.record ~time:2. ~source:"a" ~kind:"two" [];
             ()));
      Obs.Timeline.record ~time:3. ~source:"a" ~kind:"three" [];
      let ev = Obs.Timeline.events () in
      Alcotest.(check (list string)) "span merges at its begin position"
        [ "one"; "work"; "two"; "three" ]
        (List.map (fun e -> e.Obs.Timeline.kind) ev);
      let w = List.find (fun e -> e.Obs.Timeline.kind = "work") ev in
      Alcotest.(check string) "span events come from trace" "trace" w.source;
      Alcotest.(check bool) "span event carries duration" true
        (List.mem_assoc "duration_ms" w.attrs);
      let seqs = List.map (fun e -> e.Obs.Timeline.seq) ev in
      Alcotest.(check bool) "seqs strictly increasing" true
        (List.sort_uniq compare seqs = seqs);
      (* Excluding spans drops only the trace-sourced event. *)
      Alcotest.(check int) "include_spans:false" 3
        (List.length (Obs.Timeline.events ~include_spans:false ())))

let test_timeline_disabled_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  Obs.Timeline.record ~time:1. ~source:"a" ~kind:"ghost" [];
  Alcotest.(check int) "no events" 0 (List.length (Obs.Timeline.events ()))

(* ------------------------------------------------------------------ *)
(* Kit.Ring (bounded buffer behind event logs and trace rings)         *)
(* ------------------------------------------------------------------ *)

let test_ring_eviction () =
  let r = Kit.Ring.create ~capacity:3 in
  List.iter (Kit.Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 3; 4; 5 ]
    (Kit.Ring.to_list r);
  Alcotest.(check int) "dropped count" 2 (Kit.Ring.dropped r);
  Kit.Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Kit.Ring.to_list r);
  Alcotest.(check int) "clear resets dropped" 0 (Kit.Ring.dropped r)

let test_ring_validates_capacity () =
  Alcotest.(check bool) "capacity must be positive" true
    (try
       ignore (Kit.Ring.create ~capacity:0 : int Kit.Ring.t);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Controller log bounding (satellite: event log in a ring)            *)
(* ------------------------------------------------------------------ *)

let test_controller_log_bounded () =
  (* Each restart logs one action: 4097 crash/restart pairs overflow the
     4096-entry log by one, evicting the oldest. *)
  let d = Scenarios.Demo.make ~fibbing:false () in
  let c = Fibbing.Controller.create d.Scenarios.Demo.net in
  for i = 0 to 4096 do
    Fibbing.Controller.crash c;
    Fibbing.Controller.restart c ~time:(float_of_int i)
  done;
  let actions = Fibbing.Controller.actions c in
  Alcotest.(check int) "capacity retained" 4096 (List.length actions);
  Alcotest.(check (float 0.)) "oldest evicted" 1.
    (List.hd actions).Fibbing.Controller.time

(* ------------------------------------------------------------------ *)
(* End-to-end: traced F2 demo is deterministic and causally ordered    *)
(* ------------------------------------------------------------------ *)

let traced_f2_run () =
  let d = Scenarios.Demo.make ~fibbing:true () in
  Obs.reset ();
  Obs.enable ();
  (* Simulation time as the telemetry clock: reruns are byte-identical. *)
  Obs.Clock.set_source (fun () -> Netsim.Sim.time d.Scenarios.Demo.sim);
  ignore (Scenarios.Demo.load_fig2_workload d);
  Scenarios.Demo.run d ~until:25.;
  Obs.disable ();
  Obs.Clock.use_cpu_time ();
  (Obs.Timeline.to_json_lines (), Obs.Timeline.events ())

let test_f2_timeline_deterministic () =
  let j1, ev = traced_f2_run () in
  let j2, _ = traced_f2_run () in
  Alcotest.(check bool) "two runs byte-identical" true (String.equal j1 j2);
  let find pred = List.find_opt pred ev in
  let alarm =
    find (fun e -> e.Obs.Timeline.source = "monitor" && e.kind = "alarm")
  in
  let action =
    find (fun e -> e.Obs.Timeline.source = "controller" && e.kind = "action")
  in
  let spf =
    find (fun e -> e.Obs.Timeline.source = "trace" && e.kind = "spf.recompute")
  in
  (match (alarm, action) with
  | Some a, Some c ->
    Alcotest.(check bool) "alarm precedes controller reaction" true
      (a.Obs.Timeline.seq < c.Obs.Timeline.seq)
  | None, _ -> Alcotest.fail "no monitor alarm in timeline"
  | _, None -> Alcotest.fail "no controller action in timeline");
  Alcotest.(check bool) "SPF recompute spans present" true (spf <> None);
  Alcotest.(check bool) "timeline non-trivial" true (List.length ev > 20)

(* ------------------------------------------------------------------ *)
(* Capture scopes and domain safety                                    *)
(* ------------------------------------------------------------------ *)

let test_capture_isolates_run () =
  with_obs (fun () ->
      Obs.Timeline.record ~time:1. ~source:"outer" ~kind:"before" [];
      let v, cap =
        Obs.capture (fun () ->
            Obs.Timeline.record ~time:2. ~source:"inner" ~kind:"a" [];
            Obs.Trace.with_span "work" (fun () ->
                Obs.Timeline.record ~time:3. ~source:"inner" ~kind:"b" []);
            7)
      in
      Alcotest.(check int) "result threaded through" 7 v;
      Alcotest.(check int) "captured both events" 2 (List.length cap.Obs.events);
      Alcotest.(check int) "captured the span" 1 (List.length cap.Obs.spans);
      (* Private sequence numbering restarts at zero for each capture. *)
      Alcotest.(check int) "first captured seq is 0" 0
        (List.hd cap.Obs.events).Obs.Timeline.seq;
      Alcotest.(check bool) "capture renders to json" true
        (String.length (Obs.capture_json cap) > 0);
      (* Nothing from the capture leaked onto the shared rings. *)
      let shared = Obs.Timeline.events () in
      Alcotest.(check int) "shared ring has only the outer event" 1
        (List.length shared);
      (* Recording after the capture goes back to the shared ring. *)
      Obs.Timeline.record ~time:4. ~source:"outer" ~kind:"after" [];
      Alcotest.(check int) "shared recording resumes" 2
        (List.length (Obs.Timeline.events ())))

let test_capture_identical_across_runs () =
  (* Two captures of the same work render byte-identically even with
     shared-ring traffic interleaved between them — the per-capture
     sequence restart makes the timeline a pure function of the run. *)
  with_obs (fun () ->
      let run () =
        Obs.capture (fun () ->
            Obs.Clock.set_source (fun () -> 0.);
            Obs.Timeline.record ~source:"sim" ~kind:"step" [];
            Obs.Trace.with_span "tick" (fun () -> ()))
      in
      let _, c1 = run () in
      Obs.Timeline.record ~time:9. ~source:"noise" ~kind:"between" [];
      let _, c2 = run () in
      Alcotest.(check string) "byte-identical timelines"
        (Obs.capture_json c1) (Obs.capture_json c2))

let test_parallel_counter_increments () =
  with_obs (fun () ->
      let c = Obs.Metrics.counter "test.parallel.counter" in
      let pool = Kit.Pool.create ~domains:4 () in
      ignore (Kit.Pool.map pool ~n:1000 (fun _ -> Obs.Metrics.incr c));
      Alcotest.(check int) "no lost updates across domains" 1000
        (counter_value "test.parallel.counter"))

(* ------------------------------------------------------------------ *)
(* Prof: GC deltas on spans                                            *)
(* ------------------------------------------------------------------ *)

let with_prof f =
  Obs.reset ();
  Obs.enable ();
  Obs.Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.disable ();
      Obs.disable ())
    f

let prof_attr name (s : Obs.Trace.span) =
  match List.assoc_opt name s.attrs with
  | Some (Obs.Attr.Float v) -> Some v
  | Some (Obs.Attr.Int v) -> Some (float_of_int v)
  | Some _ | None -> None

(* Small blocks: they stay in the minor heap (large arrays go straight
   to the major heap; see [test_prof_counts_major_live]). *)
let churn_minor n =
  for i = 1 to n do
    ignore (Sys.opaque_identity (ref i))
  done

let test_prof_span_attrs () =
  with_prof (fun () ->
      Obs.Prof.with_span "alloc" (fun () -> churn_minor 1000);
      match Obs.Trace.spans () with
      | [ s ] ->
        (match prof_attr "alloc_words" s with
        | None -> Alcotest.fail "alloc_words attr missing"
        | Some w ->
          (* 1000 refs = 2000 words minimum. *)
          Alcotest.(check bool) "counts the refs" true (w >= 2000.))
      | l ->
        Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l)))

let test_prof_off_means_plain_spans () =
  with_obs (fun () ->
      Obs.Prof.with_span "plain" (fun () -> churn_minor 100);
      match Obs.Trace.spans () with
      | [ s ] ->
        Alcotest.(check bool) "no prof attrs with prof off" true
          (prof_attr "alloc_words" s = None)
      | _ -> Alcotest.fail "expected 1 span")

let test_prof_alloc_counter () =
  with_prof (fun () ->
      let c = Obs.Metrics.counter "test.prof.alloc" in
      Obs.Prof.with_span "alloc" ~alloc_counter:c (fun () -> churn_minor 500);
      Alcotest.(check bool) "counter accumulates the words" true
        (counter_value "test.prof.alloc" >= 1000))

(* A large array goes straight to the major heap. Between two snapshots
   with no collection in between, the words are counted at once, not at
   the next collection boundary. A collection that falls in between
   (the snapshots' own allocation can trigger one) is retried. *)
let test_prof_counts_major_live () =
  let rec bracket attempts =
    let before = Obs.Prof.snapshot () in
    ignore (Sys.opaque_identity (Array.make 1000 0));
    let after = Obs.Prof.snapshot () in
    let d = Obs.Prof.delta ~before ~after in
    if d.minor_collections = 0 && d.major_collections = 0 then d
    else if attempts > 1 then bracket (attempts - 1)
    else Alcotest.fail "a collection fell inside every bracket"
  in
  let d = bracket 10 in
  Alcotest.(check bool) "major words counted" true (d.major_words >= 1000.);
  Alcotest.(check bool) "allocated words counted" true (Obs.Prof.allocated_words d >= 1000.)

(* The disabled-overhead gate, in allocation terms: with everything
   off, a prof span is the wrapped call plus flag checks — no words. *)
let test_prof_disabled_allocates_nothing () =
  Obs.reset ();
  Obs.disable ();
  let f () = () in
  for _ = 1 to 100 do
    Obs.Prof.with_span "x" f
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Prof.with_span "x" f
  done;
  let per_call = (Gc.minor_words () -. w0) /. 1000. in
  Alcotest.(check bool) "under 2 words per disabled call" true (per_call < 2.)

let prop_prof_nested_sums =
  QCheck.Test.make ~count:30
    ~name:"prof deltas non-negative; parent covers children"
    QCheck.(list_of_size Gen.(int_range 1 6) (int_range 0 300))
    (fun sizes ->
      Obs.reset ();
      Obs.enable ();
      Obs.Prof.enable ();
      Obs.Prof.with_span "parent" (fun () ->
          List.iter
            (fun n -> Obs.Prof.with_span "child" (fun () -> churn_minor n))
            sizes;
          churn_minor 10);
      Obs.Prof.disable ();
      Obs.disable ();
      let spans = Obs.Trace.spans () in
      let w s =
        match prof_attr "minor_words" s with
        | Some v -> v
        | None -> QCheck.Test.fail_report "span without prof attrs"
      in
      let parent = List.find (fun (s : Obs.Trace.span) -> s.name = "parent") spans in
      let children =
        List.filter (fun (s : Obs.Trace.span) -> s.name = "child") spans
      in
      List.length children = List.length sizes
      && List.for_all (fun s -> w s >= 0.) spans
      (* Minor words are monotone within the domain, and every child
         window is contained in the parent's, so the parent's delta
         dominates the children's sum exactly. *)
      && w parent >= List.fold_left (fun acc s -> acc +. w s) 0. children)

(* ------------------------------------------------------------------ *)
(* Exporters: Chrome trace events and OpenMetrics                      *)
(* ------------------------------------------------------------------ *)

let member k = function Kit.Json.Obj kvs -> List.assoc_opt k kvs | _ -> None
let json_str k e = match member k e with Some (Kit.Json.Str s) -> Some s | _ -> None
let json_num k e = match member k e with Some (Kit.Json.Num x) -> Some x | _ -> None

(* Golden-shape test on the fixed F2 run: parse the document back and
   validate required fields and timestamp ordering (byte-golden would
   tie the test to GC noise once prof is on). *)
let test_chrome_trace_shape () =
  Obs.Prof.enable ();
  ignore (traced_f2_run ());
  Obs.Prof.disable ();
  let doc = Obs.Export.chrome_trace_live () in
  match Kit.Json.parse doc with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
    let events =
      match member "traceEvents" j with
      | Some (Kit.Json.List l) -> l
      | _ -> Alcotest.fail "traceEvents missing"
    in
    Alcotest.(check bool) "non-trivial event count" true
      (List.length events > 20);
    let last_ts = ref neg_infinity in
    let seen_complete = ref false in
    List.iter
      (fun e ->
        let ph =
          match json_str "ph" e with
          | Some p -> p
          | None -> Alcotest.fail "event without ph"
        in
        if json_str "name" e = None then Alcotest.fail "event without name";
        if ph <> "M" then begin
          (match (json_num "ts" e, json_num "pid" e, json_num "tid" e) with
          | Some ts, Some _, Some _ ->
            Alcotest.(check bool) "ts nondecreasing" true (ts >= !last_ts);
            last_ts := ts
          | _ -> Alcotest.fail "event without ts/pid/tid");
          if ph = "X" then begin
            seen_complete := true;
            match json_num "dur" e with
            | Some dur -> Alcotest.(check bool) "dur >= 0" true (dur >= 0.)
            | None -> Alcotest.fail "complete event without dur"
          end
        end)
      events;
    Alcotest.(check bool) "has complete (span) events" true !seen_complete;
    Alcotest.(check bool) "spf.recompute span exported" true
      (List.exists (fun e -> json_str "name" e = Some "spf.recompute") events);
    (* Prof was on for the run, so span args carry GC deltas. *)
    Alcotest.(check bool) "span args carry alloc_words" true
      (List.exists
         (fun e ->
           json_str "ph" e = Some "X"
           && (match member "args" e with
              | Some args -> (
                match json_num "alloc_words" args with
                | Some w -> w >= 0.
                | None -> false)
              | None -> false))
         events)

let sample_value line =
  match String.rindex_opt line ' ' with
  | None -> Alcotest.fail ("bad sample line: " ^ line)
  | Some i -> (
    let v = String.sub line (i + 1) (String.length line - i - 1) in
    match float_of_string_opt v with
    | Some f -> f
    | None -> Alcotest.fail ("bad sample value: " ^ line))

let test_open_metrics_shape () =
  ignore (traced_f2_run ());
  let txt = Obs.Export.open_metrics () in
  Alcotest.(check bool) "terminated by # EOF" true
    (String.length txt >= 6
    && String.sub txt (String.length txt - 6) 6 = "# EOF\n");
  let lines =
    String.split_on_char '\n' txt |> List.filter (fun l -> l <> "")
  in
  (* Every sample line carries a numeric value. *)
  List.iter
    (fun l -> if l.[0] <> '#' then ignore (sample_value l))
    lines;
  (* Counters are sanitized and suffixed _total. *)
  Alcotest.(check bool) "spf.runs exposed as spf_runs_total" true
    (List.exists (String.starts_with ~prefix:"spf_runs_total ") lines);
  (* Histogram buckets: explicit bounds, cumulative, +Inf equals count. *)
  let buckets =
    List.filter
      (String.starts_with ~prefix:"spf_recompute_ms_bucket{le=\"")
      lines
  in
  Alcotest.(check bool) "histogram has explicit buckets" true
    (List.length buckets > 2);
  let values = List.map sample_value buckets in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "buckets cumulative" true (v >= prev);
         v)
       0. values);
  Alcotest.(check bool) "last bucket is +Inf" true
    (String.starts_with ~prefix:"spf_recompute_ms_bucket{le=\"+Inf\"}"
       (List.nth buckets (List.length buckets - 1)));
  let count_line =
    List.find (String.starts_with ~prefix:"spf_recompute_ms_count ") lines
  in
  checkf "+Inf bucket equals count" (sample_value count_line)
    (List.nth values (List.length values - 1));
  (* TYPE headers exist for the three kinds. *)
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "a %s family is declared" kind)
        true
        (List.exists
           (fun l ->
             String.starts_with ~prefix:"# TYPE " l
             && String.ends_with ~suffix:(" " ^ kind) l)
           lines))
    [ "counter"; "gauge"; "histogram" ]

(* ------------------------------------------------------------------ *)
(* Bench history and the regression gate                               *)
(* ------------------------------------------------------------------ *)

let hrow tag track values = { Obs.History.tag; track; values }

let test_history_gate_verdicts () =
  let base = [ ("alloc_words", 1000.); ("wall_ms", 5.); ("flows", 100.) ] in
  let rows = [ hrow "a" "t" base; hrow "b" "t" base ] in
  let v = Obs.History.gate rows in
  Alcotest.(check bool) "stable history passes" true
    (v <> [] && Obs.History.gate_ok v);
  (* +10% allocated words is far outside the 2% band. *)
  let regressed =
    rows
    @ [
        hrow "c" "t"
          [ ("alloc_words", 1100.); ("wall_ms", 5.); ("flows", 100.) ];
      ]
  in
  Alcotest.(check bool) "synthetic regression row fails" false
    (Obs.History.gate_ok (Obs.History.gate regressed));
  (* Wall-time noise inside its (wide) band is fine. *)
  let noisy =
    rows
    @ [
        hrow "c" "t"
          [ ("alloc_words", 1000.); ("wall_ms", 7.); ("flows", 100.) ];
      ]
  in
  Alcotest.(check bool) "wall noise within band passes" true
    (Obs.History.gate_ok (Obs.History.gate noisy));
  (* A workload change (context key differs) starts a fresh baseline
     instead of comparing different experiments. *)
  let rescaled =
    rows
    @ [
        hrow "c" "t"
          [ ("alloc_words", 9000.); ("wall_ms", 50.); ("flows", 200.) ];
      ]
  in
  Alcotest.(check (list string)) "context change re-baselines"
    [ "flows=100"; "flows=100" ]
    (List.map
       (fun (v : Obs.History.verdict) -> v.v_workload)
       (Obs.History.gate rescaled));
  (* First-ever row: bootstrap, nothing to compare. *)
  Alcotest.(check bool) "single row passes vacuously" true
    (Obs.History.gate [ hrow "a" "t" base ] = [])

(* Rows keyed like the fib_geant track: only the workload size splits a
   baseline, so a timing that moves between runs is compared, not taken
   for a new workload. *)
let test_history_gate_compares_timed_rows () =
  let geant prefixes warm_ms =
    hrow "x" "fib_geant"
      [ ("prefixes", prefixes); ("warm_ms", warm_ms); ("lie_cycle_ms", 0.03) ]
  in
  let v = Obs.History.gate [ geant 2000. 26.; geant 2000. 31. ] in
  Alcotest.(check (list string)) "timings compared" [ "warm_ms"; "lie_cycle_ms" ]
    (List.map (fun (v : Obs.History.verdict) -> v.v_counter) v);
  Alcotest.(check bool) "within the timing band" true (Obs.History.gate_ok v);
  Alcotest.(check bool) "a regressed deterministic counter fails" false
    (Obs.History.gate_ok
       (Obs.History.gate
          [
            hrow "a" "fib_trie" [ ("prefixes", 1e4); ("installed", 9000.); ("build_ms", 40.) ];
            hrow "b" "fib_trie" [ ("prefixes", 1e4); ("installed", 9500.); ("build_ms", 45.) ];
          ]));
  Alcotest.(check bool) "a new table size starts a fresh baseline" true
    (Obs.History.gate [ geant 2000. 26.; geant 4000. 26. ] = [])

(* A track that records two workload sizes per run gates each size: the
   9x regression at 10 000 prefixes must not hide behind a clean newest
   row at 50 000. *)
let test_history_gate_per_workload () =
  let trie prefixes installed =
    hrow "x" "fib_trie" [ ("prefixes", prefixes); ("installed", installed) ]
  in
  let rows =
    [ trie 1e4 100.; trie 5e4 500.; trie 1e4 100.; trie 5e4 500.;
      trie 1e4 900.; trie 5e4 500. ]
  in
  let v = Obs.History.gate rows in
  Alcotest.(check bool) "regression at 10 000 caught" true
    (List.exists
       (fun (v : Obs.History.verdict) -> v.current = 900. && not v.ok)
       v);
  Alcotest.(check (list string)) "one verdict per workload"
    [ "prefixes=10000"; "prefixes=50000" ]
    (List.map (fun (v : Obs.History.verdict) -> v.v_workload) v)

let test_history_file_roundtrip () =
  let file = Filename.temp_file "fibbing_hist" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let rows =
        [
          hrow "aaa" "spf_churn" [ ("alloc_words", 59087.7); ("routers", 22.) ];
          hrow "bbb" "water_fill" [ ("alloc_words", 2129604.25) ];
        ]
      in
      Obs.History.append ~file rows;
      Obs.History.append ~file rows;
      let back = Obs.History.load ~file in
      Alcotest.(check int) "two appends accumulate" 4 (List.length back);
      Alcotest.(check bool) "rows round-trip exactly" true
        (back = rows @ rows))

let with_history_file contents f =
  let file = Filename.temp_file "fibbing_hist" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc contents);
      f file)

let history_lines rows =
  String.concat "" (List.map (fun r -> Obs.History.row_to_json r ^ "\n") rows)

(* The reader is total: a mangled history file yields rows or the
   documented [Failure], never another exception. *)
let prop_history_load_total =
  Fuzz.total ~name:"History.load returns rows or raises Failure" ~count:1000
    ~run:(fun s ->
      with_history_file s (fun file ->
          match Obs.History.load ~file with
          | rows -> Ok rows
          | exception Failure msg -> Error msg))
    [
      history_lines [ hrow "aaa" "spf_churn" [ ("alloc_words", 59087.7); ("routers", 22.) ] ];
      history_lines
        [ hrow "a" "t" [ ("wall_ms", 5.) ]; hrow "b" "t" [ ("wall_ms", -1.5e-7) ] ];
      history_lines [ hrow "x\ty" "\"q\"" [] ];
    ]

let history_rows =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 8) in
  let key = map (fun k -> if k = "tag" || k = "track" then k ^ "_" else k) str in
  let value = map (fun v -> if Float.is_finite v then v else 0.) float in
  let row =
    map3
      (fun tag track values -> { Obs.History.tag; track; values })
      str str
      (list_size (0 -- 6) (pair key value))
  in
  QCheck.make ~print:history_lines (list_size (0 -- 5) row)

let prop_history_round_trip =
  QCheck.Test.make ~name:"History.append then load round-trips" ~count:500
    history_rows (fun rows ->
      with_history_file "" (fun file ->
          Obs.History.append ~file rows;
          Obs.History.load ~file = rows))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter round-trip" `Quick test_counter_roundtrip;
          Alcotest.test_case "gauge round-trip" `Quick test_gauge_roundtrip;
          Alcotest.test_case "histogram round-trip" `Quick
            test_histogram_roundtrip;
          Alcotest.test_case "disabled ops are no-ops" `Quick
            test_disabled_ops_are_noops;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "reset keeps handles" `Quick
            test_reset_keeps_handles;
          Alcotest.test_case "json deterministic" `Quick
            test_metrics_json_deterministic;
        ] );
      qsuite "metrics-props" [ prop_percentile_oracle ];
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "disabled is identity" `Quick
            test_span_disabled_is_identity;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "merges spans causally" `Quick
            test_timeline_merges_spans_causally;
          Alcotest.test_case "disabled records nothing" `Quick
            test_timeline_disabled_records_nothing;
        ] );
      ( "ring",
        [
          Alcotest.test_case "eviction" `Quick test_ring_eviction;
          Alcotest.test_case "validates capacity" `Quick
            test_ring_validates_capacity;
        ] );
      ( "controller-log",
        [
          Alcotest.test_case "bounded retention" `Quick
            test_controller_log_bounded;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "F2 timeline deterministic" `Quick
            test_f2_timeline_deterministic;
        ] );
      ( "capture",
        [
          Alcotest.test_case "capture isolates a run" `Quick
            test_capture_isolates_run;
          Alcotest.test_case "captures byte-identical across runs" `Quick
            test_capture_identical_across_runs;
          Alcotest.test_case "parallel counter increments" `Quick
            test_parallel_counter_increments;
        ] );
      ( "prof",
        [
          Alcotest.test_case "span carries GC deltas" `Quick
            test_prof_span_attrs;
          Alcotest.test_case "prof off means plain spans" `Quick
            test_prof_off_means_plain_spans;
          Alcotest.test_case "alloc counter accumulates" `Quick
            test_prof_alloc_counter;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_prof_disabled_allocates_nothing;
          Alcotest.test_case "major words counted live" `Quick
            test_prof_counts_major_live;
        ] );
      qsuite "prof-props" [ prop_prof_nested_sums ];
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick
            test_chrome_trace_shape;
          Alcotest.test_case "openmetrics shape" `Quick
            test_open_metrics_shape;
        ] );
      ( "history",
        [
          Alcotest.test_case "gate verdicts" `Quick test_history_gate_verdicts;
          Alcotest.test_case "gate compares timed rows" `Quick
            test_history_gate_compares_timed_rows;
          Alcotest.test_case "gate keys by workload" `Quick
            test_history_gate_per_workload;
          Alcotest.test_case "file round-trip" `Quick
            test_history_file_roundtrip;
        ] );
      qsuite "history-props" [ prop_history_load_total; prop_history_round_trip ];
    ]
