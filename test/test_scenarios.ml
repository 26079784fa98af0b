let pfx = Igp.Prefix.v
(* Integration tests: the full demo scenario must reproduce the paper's
   observable results (Fig. 2 shape, the specific fakes of Fig. 1c, and
   the smooth-vs-stutter QoE claim). These are the repository's
   "does the reproduction actually reproduce" tests. *)

module Demo = Scenarios.Demo

let run_fibbing_on () =
  let d = Demo.make ~fibbing:true () in
  let flows = Demo.load_fig2_workload d in
  Demo.run d ~until:55.;
  (d, flows)

let run_fibbing_off () =
  let d = Demo.make ~fibbing:false () in
  let flows = Demo.load_fig2_workload d in
  Demo.run d ~until:55.;
  (d, flows)

(* Caching: the 55 s simulations take ~a second; share across checks. *)
let on = lazy (run_fibbing_on ())
let off = lazy (run_fibbing_off ())

(* The Fig. 2 series, labelled as in the paper. *)
let fig2 d = List.combine [ "A-R1"; "B-R2"; "B-R3" ] (Demo.fig2_series d)

let series_named d name =
  match List.assoc_opt name (fig2 d) with
  | Some series -> series
  | None -> Alcotest.failf "unknown link %s" name

let test_fig2_phase1_only_br2 () =
  let d, _ = Lazy.force on in
  let br2 = series_named d "B-R2" in
  let br3 = series_named d "B-R3" in
  let ar1 = series_named d "A-R1" in
  (* Before the surge: a single stream on B-R2 only. *)
  Alcotest.(check (float 1.)) "one stream on B-R2" Demo.stream_rate
    (Series.value_at br2 10.);
  Alcotest.(check (float 1e-6)) "B-R3 idle" 0. (Series.value_at br3 10.);
  Alcotest.(check (float 1e-6)) "A-R1 idle" 0. (Series.value_at ar1 10.)

let test_fig2_phase2_ecmp_at_b () =
  let d, _ = Lazy.force on in
  let br3 = series_named d "B-R3" in
  let ar1 = series_named d "A-R1" in
  (* After the first surge and the controller's reaction, B-R3 carries
     roughly half the 31 streams; A-R1 is still unused. *)
  let late_phase2 = Series.window_mean br3 ~from:25. ~until:34. in
  Alcotest.(check bool)
    (Printf.sprintf "B-R3 carries %.0f ~ half the surge" late_phase2)
    true
    (late_phase2 > 10. *. Demo.stream_rate && late_phase2 < 22. *. Demo.stream_rate);
  Alcotest.(check (float 1e-6)) "A-R1 still idle" 0.
    (Series.value_at ar1 30.)

let test_fig2_phase3_detour_via_r1 () =
  let d, _ = Lazy.force on in
  let ar1 = series_named d "A-R1" in
  let late = Series.window_mean ar1 ~from:45. ~until:54. in
  (* Roughly two thirds of A's 31 streams detour via R1. The upper bound
     is inclusive: A-R1's capacity is exactly 22 streams, and with
     demand-capped flows frozen at exactly their demand (the epsilon-
     tolerant fairshare freeze) a full link sits exactly on it. *)
  Alcotest.(check bool)
    (Printf.sprintf "A-R1 carries %.0f ~ 2/3 of A's streams" late)
    true
    (late > 14. *. Demo.stream_rate && late <= (22. *. Demo.stream_rate) +. 1.)

let test_fig2_no_link_over_capacity () =
  let d, _ = Lazy.force on in
  List.iter
    (fun (name, series) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s below capacity" name)
        true
        (Series.peak series <= Demo.link_capacity +. 1.))
    (fig2 d)

let test_fig2_total_throughput_grows () =
  (* The paper: "the maximal link load decreases while the overall load
     of the network increases". Total delivered rate in phase 3 must
     approach the full 62-stream demand. *)
  let d, _ = Lazy.force on in
  let total t =
    List.fold_left
      (fun acc series -> acc +. Series.value_at series t)
      0. (Demo.fig2_series d)
  in
  Alcotest.(check bool) "phase3 total > phase2 total" true (total 50. > total 30.);
  Alcotest.(check bool)
    (Printf.sprintf "phase3 near full demand: %.2e" (total 50.))
    true
    (total 50. > 55. *. Demo.stream_rate)

let test_controller_installs_exactly_demo_fakes () =
  let d, _ = Lazy.force on in
  let fakes = Igp.Network.fakes d.Demo.net in
  (* fB at B plus two fA at A — exactly the paper's Fig. 1c. *)
  Alcotest.(check int) "three fakes" 3 (List.length fakes);
  let at_b =
    List.filter (fun (f : Igp.Lsa.fake) -> f.attachment = d.Demo.topology.b) fakes
  in
  let at_a =
    List.filter (fun (f : Igp.Lsa.fake) -> f.attachment = d.Demo.topology.a) fakes
  in
  Alcotest.(check int) "one at B" 1 (List.length at_b);
  Alcotest.(check int) "two at A" 2 (List.length at_a);
  (match at_b with
  | [ f ] ->
    Alcotest.(check int) "fB total cost 2" 2 (Igp.Lsa.total_cost f);
    Alcotest.(check int) "fB forwards to R3" d.Demo.topology.r3 f.forwarding
  | _ -> ());
  List.iter
    (fun (f : Igp.Lsa.fake) ->
      Alcotest.(check int) "fA total cost 3" 3 (Igp.Lsa.total_cost f);
      Alcotest.(check int) "fA forwards to R1" d.Demo.topology.r1 f.forwarding)
    at_a

let test_fig2_aggregation_equivalent () =
  (* The aggregated flow engine is a pure optimization: the full F2 run
     with flow classes must produce the same Fig. 2 series, sample for
     sample, and the same QoE verdicts as the per-flow engine. *)
  let d_agg, _ = Lazy.force on in
  let d_solo = Demo.make ~fibbing:true ~aggregation:false () in
  let flows_solo = Demo.load_fig2_workload d_solo in
  Demo.run d_solo ~until:55.;
  List.iter2
    (fun agg solo ->
      Alcotest.(check int)
        "same sample count"
        (List.length (Kit.Timeseries.samples solo))
        (List.length (Kit.Timeseries.samples agg));
      List.iter2
        (fun (t_a, v_a) (t_s, v_s) ->
          Alcotest.(check (float 1e-9)) "same sample time" t_s t_a;
          Alcotest.(check (float 1e-6)) "same throughput sample" v_s v_a)
        (Kit.Timeseries.samples agg)
        (Kit.Timeseries.samples solo))
    (Demo.fig2_series d_agg) (Demo.fig2_series d_solo);
  let q_agg =
    let d, flows = Lazy.force on in
    Demo.qoe d ~flows
  in
  let q_solo = Demo.qoe d_solo ~flows:flows_solo in
  Alcotest.(check int) "same smooth sessions" q_solo.smooth_sessions
    q_agg.smooth_sessions;
  Alcotest.(check int) "same stalls" q_solo.total_stalls q_agg.total_stalls;
  Alcotest.(check (float 1e-6)) "same MOS" q_solo.mos q_agg.mos;
  Alcotest.(check bool) "classes actually aggregate" true
    (Netsim.Sim.flow_classes d_agg.Demo.sim
    < List.length (Netsim.Sim.active_flows d_agg.Demo.sim))

let test_qoe_smooth_with_fibbing () =
  let d, flows = Lazy.force on in
  let summary = Demo.qoe d ~flows in
  Alcotest.(check int) "all sessions smooth" summary.sessions summary.smooth_sessions;
  Alcotest.(check int) "no stalls" 0 summary.total_stalls

let test_qoe_stutters_without_fibbing () =
  let d, flows = Lazy.force off in
  let summary = Demo.qoe d ~flows in
  Alcotest.(check bool) "many stalls" true (summary.total_stalls > 50);
  Alcotest.(check int) "nobody smooth" 0 summary.smooth_sessions;
  let on_summary =
    let d_on, flows_on = Lazy.force on in
    Demo.qoe d_on ~flows:flows_on
  in
  Alcotest.(check bool) "MOS ordering" true (on_summary.mos > summary.mos +. 1.)

let test_off_run_overloads_br2 () =
  let d, _ = Lazy.force off in
  let br2 = series_named d "B-R2" in
  let br3 = series_named d "B-R3" in
  (* Without the controller everything stays on B-R2 at capacity and
     B-R3 never carries traffic. *)
  Alcotest.(check bool) "B-R2 saturated" true
    (Series.window_mean br2 ~from:20. ~until:34.
    >= Demo.link_capacity *. 0.99);
  Alcotest.(check (float 1e-6)) "B-R3 unused" 0. (Series.peak br3)

let test_controller_overhead_is_tiny () =
  let d, _ = Lazy.force on in
  (* 3 installs (plus any superseded retractions): a few dozen LSA
     messages on this 8-link network, vs. thousands of RSVP refreshes an
     MPLS deployment would send over the same hour. *)
  let messages = (Igp.Network.control_cost d.Demo.net).messages in
  Alcotest.(check bool)
    (Printf.sprintf "%d messages is small" messages)
    true
    (messages <= 10 * 16)

let test_deterministic_reruns () =
  let d1, _ = run_fibbing_on () in
  let d2, _ = run_fibbing_on () in
  let s1 = series_named d1 "B-R3" in
  let s2 = series_named d2 "B-R3" in
  Alcotest.(check bool) "identical series" true
    (Kit.Timeseries.samples s1 = Kit.Timeseries.samples s2)

(* ---------- failure recovery ---------- *)

let test_controller_heals_link_failure () =
  (* 31 streams from A; at t=25 the link B-R2 dies. B's remaining exit
     (B-R3) cannot carry them all; the controller must escalate to A and
     split across B and R1. *)
  let d = Demo.make ~fibbing:true () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow d.Demo.sim
      (Netsim.Flow.make ~id:i ~src:d.Demo.topology.a ~prefix:Demo.prefix
         ~demand:Demo.stream_rate ())
  done;
  Netsim.Sim.fail_link d.Demo.sim ~time:25. (d.Demo.topology.b, d.Demo.topology.r2);
  Demo.run d ~until:55.;
  (* After the failure and reaction, A must be splitting. *)
  let fib_a =
    Option.get (Igp.Network.fib d.Demo.net ~router:d.Demo.topology.a Demo.prefix)
  in
  Alcotest.(check (list int)) "A splits over B and R1"
    [ d.Demo.topology.b; d.Demo.topology.r1 ]
    (Igp.Fib.next_hops fib_a);
  Alcotest.(check (list int)) "nobody starved" []
    (Netsim.Sim.unroutable_flows d.Demo.sim);
  (* Both surviving bottlenecks below capacity at the end. *)
  List.iter
    (fun link ->
      let rate =
        Series.value_at (Netsim.Sim.link_series d.Demo.sim link) 54.
      in
      Alcotest.(check bool) "within capacity" true (rate <= Demo.link_capacity +. 1.))
    [ (d.Demo.topology.b, d.Demo.topology.r3);
      (d.Demo.topology.a, d.Demo.topology.r1) ]

let test_multi_prefix_isolation () =
  (* Two prefixes: blue at C (surging) and red at R4 (background). The
     controller must fix blue without touching red's routing. *)
  let d = Demo.make ~fibbing:true () in
  Igp.Network.announce_prefix d.Demo.net (pfx "red") ~origin:d.Demo.topology.r4 ~cost:0;
  let red_baseline =
    List.filter_map
      (fun router ->
        Option.map
          (fun fib -> (router, Igp.Fib.weights fib))
          (Igp.Network.fib d.Demo.net ~router (pfx "red")))
      (Igp.Network.routers d.Demo.net)
  in
  for i = 0 to 30 do
    Netsim.Sim.add_flow d.Demo.sim
      (Netsim.Flow.make ~id:i ~src:d.Demo.topology.a ~prefix:Demo.prefix
         ~demand:Demo.stream_rate ())
  done;
  (* A single background red flow. *)
  Netsim.Sim.add_flow d.Demo.sim
    (Netsim.Flow.make ~id:100 ~src:d.Demo.topology.b ~prefix:(pfx "red")
       ~demand:Demo.stream_rate ());
  Demo.run d ~until:30.;
  (match d.Demo.controller with
  | Some c ->
    ignore c;
    let lies p =
      List.exists
        (fun (f : Igp.Lsa.fake) -> Igp.Prefix.equal f.prefix p)
        (Igp.Network.fakes d.Demo.net)
    in
    Alcotest.(check bool) "blue got lies" true (lies Demo.prefix);
    Alcotest.(check bool) "red got none" false (lies (pfx "red"))
  | None -> Alcotest.fail "controller expected");
  (* Red routing identical to its baseline at every router. *)
  List.iter
    (fun (router, weights_before) ->
      match Igp.Network.fib d.Demo.net ~router (pfx "red") with
      | Some fib ->
        Alcotest.(check bool) "red untouched" true
          (Igp.Fib.weights fib = weights_before)
      | None -> Alcotest.fail "red lost reachability")
    red_baseline;
  (* And the red flow flows. *)
  Alcotest.(check (float 1.)) "red at demand" Demo.stream_rate
    (Netsim.Sim.flow_rate d.Demo.sim 100)

(* ---------- Script (scenario DSL) ---------- *)

let run_script text =
  let buffer = Buffer.create 256 in
  let out = Format.formatter_of_buffer buffer in
  let result = Scenarios.Script.run_string ~out text in
  Format.pp_print_flush out ();
  (result, Buffer.contents buffer)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_script_minimal () =
  let result, output =
    run_script
      {|
topology demo
prefix blue at C
flows 1 from A to blue rate 1000 at 0
run 5
report fibs
|}
  in
  Alcotest.(check bool) "runs" true (result = Ok ());
  Alcotest.(check bool) "fibs printed" true (contains output "B -> blue")

let test_script_steer_and_fakes () =
  let result, output =
    run_script
      {|
topology demo
prefix blue at C
controller off
flows 4 from B to blue rate 1000 at 0
steer B to R2:0.5,R3:0.5 at 2
run 6
report fakes
report fibs
|}
  in
  Alcotest.(check bool) "runs" true (result = Ok ());
  Alcotest.(check bool) "fake installed" true (contains output "fwd R3");
  Alcotest.(check bool) "B has ECMP" true (contains output "R2 x1, R3 x1")

let test_script_fail_command () =
  let result, output =
    run_script
      {|
topology demo
prefix blue at C
controller off
track B-R3
flows 1 from A to blue rate 1000 at 0
fail B-R2 at 2
run 6
report fibs
|}
  in
  Alcotest.(check bool) "runs" true (result = Ok ());
  (* After the failure B's route goes via R3. *)
  Alcotest.(check bool) "B via R3" true (contains output "B -> blue (cost 3): R3")

let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore

let test_script_parse_errors () =
  let check_error text fragment =
    match Scenarios.Script.run_string ~out:quiet text with
    | Error message ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" message fragment)
        true
        (contains message fragment)
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
  in
  check_error "nonsense command" "line 1";
  check_error "topology demo\nflows x from A to blue rate 1 at 0" "bad integer";
  check_error "capacity A_R1 5" "bad link";
  check_error "steer B to R2;0.5 at 1" "bad split";
  (* Prefix tokens are validated at parse time: the error carries the
     line number and the offending token. *)
  check_error "topology demo\nprefix 10.0.0.256/16 at C" "line 2";
  check_error "topology demo\nprefix 10.0.0.256/16 at C" "10.0.0.256";
  check_error "topology demo\nprefix 10.0.1.0/8 at C" "host bits";
  check_error "topology demo\nflows 1 from A to 10.0.0.0/40 rate 1 at 0"
    "mask length";
  (* Numbers out of their command's range are rejected at parse time,
     with the line, instead of raising when the command runs. *)
  List.iter
    (fun line -> check_error ("topology demo\nprefix blue at C\n" ^ line ^ "\nrun 1") "line 3")
    [
      "monitor poll 0";
      "monitor threshold 0.5 clear 0.9";
      "monitor alpha 7";
      "flows 1 from A to blue rate 0 at 0";
      "flows 1 from A to blue rate -5 at 0";
      "flows 1 from A to blue rate nan at 0";
      "flows 1 from A to blue rate 1 at 0 duration -1";
      "capacity default 0";
      "capacity default -1";
      "capacity A-R1 -3";
      "flooding loss 0.5 at 1 duration -2";
    ]

(* Every size the DSL takes is bounded at parse time, by a limit the
   error names: none of these may start to build or run. *)
let test_script_size_limits () =
  let rejected text limit =
    match Scenarios.Script.run_string ~out:quiet text with
    | Error message ->
      Alcotest.(check bool) (Printf.sprintf "%S names %s" message limit) true
        (contains message limit)
    | Ok () -> Alcotest.failf "expected %S to exceed %s" text limit
  in
  rejected "topology ring:100000000" "max_routers";
  rejected "topology ring:1001" "max_routers";
  rejected "topology grid:1000:2" "max_routers";
  rejected "topology grid:4611686018427387903:4611686018427387903" "max_routers";
  rejected "topology random:5000:1" "max_routers";
  rejected "topology twolevel:334" "max_routers";
  rejected "topology demo\nprefix blue at C\nrun 1e9" "max_time";
  rejected "topology demo\nprefix blue at C\nfail B-R2 at 90000\nrun 1" "max_time";
  rejected "topology demo\nprefix blue at C\nflows 100001 from A to blue rate 1 at 0\nrun 1"
    "max_flows";
  rejected
    "topology demo\nprefix blue at C\nflows 60000 from A to blue rate 1 at 0\n\
     flows 60000 from B to blue rate 1 at 0\nrun 1"
    "max_flows";
  rejected "topology demo\nprefix blue at C\nrun 1\nreport series step 0.01" "min_series_step";
  (* At the limits themselves, scripts parse (and small ones run). *)
  Alcotest.(check (result unit string)) "limits are inclusive" (Ok ())
    (Scenarios.Script.run_string ~out:quiet
       "topology twolevel:333\nprefix p at C0\nrun 0.5\nreport series step 0.1")

(* Small valid scripts covering every command, each ending in a short
   run. *)
let script_seeds =
  [
    "topology demo\nprefix blue at C cost 1\ncapacity default 900\n\
     capacity A-R1 400\nmonitor poll 1 threshold 0.8 clear 0.5 alpha 0.5\n\
     track A-R1\nflows 3 from A to blue rate 300 at 0 duration 3\n\
     blackout 1 at 0.5\nrun 2\nreport series step 0.5\nreport qoe\n";
    "topology demo\nprefix blue at C\ncontroller global\nmodel aimd\n\
     flows 2 from B to blue rate 100 at 0.5\nfail B-R2 at 1\n\
     restore B-R2 at 1.5\ncrash R3 at 0.5\nrecover R3 at 1\n\
     steer B to R2:0.5,R3:0.5 at 1.5\nrun 2\nreport fibs\nreport fakes\n\
     report loads\nreport latency\nreport audit\n";
    "topology ring:4\nprefix 10.0.0.0/8 at N0\ncontroller crash at 0.5\n\
     controller restart at 1\nflooding loss 0.2 at 0.5 duration 1 seed 3\n\
     flows 1 from N2 to 10.0.0.0/8 rate 5 at 0\nrun 1\nreport actions\n";
  ]

let test_script_seeds_run () =
  List.iter
    (fun text ->
      Alcotest.(check (result unit string)) "seed runs" (Ok ())
        (Scenarios.Script.run_string ~out:quiet text))
    script_seeds

(* The DSL is untrusted input: a one-byte mutation of a valid script
   must come back as [Ok] or [Error], never as an exception. *)
(* Also fuzzed: a script over [max_routers]. Its one-byte mutations
   either stay over a limit or shrink to a small ring. *)
let prop_script_total =
  Fuzz.total ~name:"run_string is total on mutated scripts" ~count:2000
    ~run:(Scenarios.Script.run_string ~out:quiet)
    (script_seeds
    @ [ "topology ring:5000\nprefix 10.0.0.0/8 at N0\nflows 1 from N2 to 10.0.0.0/8 rate 5 at 0\nrun 1\n" ])

let test_script_execution_errors () =
  (* Unknown router. *)
  (match run_script "topology demo\nprefix blue at Z\nrun 1" with
  | Error message, _ ->
    Alcotest.(check bool) "unknown router" true (contains message "unknown router")
  | Ok (), _ -> Alcotest.fail "expected failure");
  (* Config after first run. *)
  match
    run_script
      "topology demo\nprefix blue at C\nrun 1\ncapacity default 5\nrun 2"
  with
  | Error message, _ ->
    Alcotest.(check bool) "late capacity rejected" true
      (contains message "before the first run")
  | Ok (), _ -> Alcotest.fail "expected failure"

let test_script_model_and_extra_reports () =
  let result, output =
    run_script
      {|
topology demo
prefix blue at C
controller off
model aimd
flows 2 from A to blue rate 131072 at 0
run 10
report loads
report latency
|}
  in
  Alcotest.(check bool) "runs" true (result = Ok ());
  Alcotest.(check bool) "loads printed" true (contains output "B-R2");
  Alcotest.(check bool) "latency printed" true (contains output "mean one-way delay");
  (* model after run is rejected *)
  match
    run_script "topology demo\nprefix blue at C\nrun 1\nmodel aimd\nrun 2"
  with
  | Error message, _ ->
    Alcotest.(check bool) "late model rejected" true
      (contains message "before the first run")
  | Ok (), _ -> Alcotest.fail "expected failure"

let test_script_qoe_report () =
  let result, output =
    run_script
      {|
topology demo
prefix blue at C
controller off
flows 2 from A to blue rate 131072 at 0 duration 20
run 30
report qoe
|}
  in
  Alcotest.(check bool) "runs" true (result = Ok ());
  Alcotest.(check bool) "qoe line" true (contains output "sessions=2")

let () =
  Alcotest.run "scenarios"
    [
      ( "fig2",
        [
          Alcotest.test_case "phase 1: single stream" `Quick test_fig2_phase1_only_br2;
          Alcotest.test_case "phase 2: ECMP at B" `Quick test_fig2_phase2_ecmp_at_b;
          Alcotest.test_case "phase 3: detour via R1" `Quick test_fig2_phase3_detour_via_r1;
          Alcotest.test_case "no overload with fibbing" `Quick
            test_fig2_no_link_over_capacity;
          Alcotest.test_case "total throughput grows" `Quick
            test_fig2_total_throughput_grows;
          Alcotest.test_case "aggregation equivalent" `Quick
            test_fig2_aggregation_equivalent;
        ] );
      ( "fig1c",
        [
          Alcotest.test_case "controller reproduces demo fakes" `Quick
            test_controller_installs_exactly_demo_fakes;
        ] );
      ( "qoe",
        [
          Alcotest.test_case "smooth with fibbing" `Quick test_qoe_smooth_with_fibbing;
          Alcotest.test_case "stutters without" `Quick test_qoe_stutters_without_fibbing;
          Alcotest.test_case "off run overloads B-R2" `Quick test_off_run_overloads_br2;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "tiny control cost" `Quick test_controller_overhead_is_tiny;
        ] );
      ( "determinism",
        [ Alcotest.test_case "reruns identical" `Quick test_deterministic_reruns ] );
      ( "script",
        [
          Alcotest.test_case "minimal" `Quick test_script_minimal;
          Alcotest.test_case "steer + fakes" `Quick test_script_steer_and_fakes;
          Alcotest.test_case "fail command" `Quick test_script_fail_command;
          Alcotest.test_case "parse errors" `Quick test_script_parse_errors;
          Alcotest.test_case "execution errors" `Quick test_script_execution_errors;
          Alcotest.test_case "size limits" `Quick test_script_size_limits;
          Alcotest.test_case "model + extra reports" `Quick
            test_script_model_and_extra_reports;
          Alcotest.test_case "qoe report" `Quick test_script_qoe_report;
          Alcotest.test_case "fuzz seeds run" `Quick test_script_seeds_run;
        ] );
      ("script-props", [ QCheck_alcotest.to_alcotest prop_script_total ]);
      ( "resilience",
        [
          Alcotest.test_case "controller heals link failure" `Quick
            test_controller_heals_link_failure;
          Alcotest.test_case "multi-prefix isolation" `Quick test_multi_prefix_isolation;
        ] );
    ]
