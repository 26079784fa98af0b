(* Parallel-equivalence tests: the worker-pool width must be
   unobservable in results. The chaos seed sweep, the library's one
   parallel section, runs at domains 1, 2 and 4, and its verdicts and
   captured timeline JSON are compared byte-for-byte. *)

let widths = [ 2; 4 ]

(* ---------- Chaos sweeps ---------- *)

let sweep domains =
  Scenarios.Chaos.sweep
    ~pool:(Kit.Pool.create ~domains ())
    ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~until:16. ()

let test_chaos_sweep_width_independent () =
  Obs.reset ();
  Obs.enable ();
  let reference = sweep 1 in
  let same = List.for_all (fun d -> sweep d = reference) widths in
  let shared_ring_events = Obs.Timeline.events ~include_spans:false () in
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check bool) "verdicts and timelines identical" true same;
  Alcotest.(check bool) "every run captured a non-empty timeline" true
    (List.for_all
       (fun (_, tl) -> match tl with Some s -> String.length s > 0 | None -> false)
       reference);
  (* Captured runs must not leak onto the shared timeline ring. *)
  Alcotest.(check int) "shared ring untouched by the sweep" 0
    (List.length shared_ring_events)

let test_chaos_sweep_matches_run () =
  (* The sweep is just [run] per seed: verdicts agree with direct calls. *)
  let direct =
    List.map
      (fun seed -> Scenarios.Chaos.run ~seed ~until:16. ())
      [ 1; 2; 3 ]
  in
  let swept =
    List.map fst
      (Scenarios.Chaos.sweep
         ~pool:(Kit.Pool.create ~domains:4 ())
         ~seeds:[ 1; 2; 3 ] ~until:16. ())
  in
  Alcotest.(check bool) "sweep = per-seed run" true (swept = direct)

let () =
  Alcotest.run "parallel"
    [
      ( "chaos",
        [
          Alcotest.test_case "sweep width-independent" `Quick
            test_chaos_sweep_width_independent;
          Alcotest.test_case "sweep matches run" `Quick
            test_chaos_sweep_matches_run;
        ] );
    ]
