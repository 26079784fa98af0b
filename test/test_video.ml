let pfx = Igp.Prefix.v
(* Tests for the video workload and QoE models. *)

let checkf = Alcotest.(check (float 1e-6))

(* The client's documented video bitrate: 1 Mbps, in bytes/s. *)
let bitrate = 131072.

(* Constant-rate sample series helper: [rate] bytes/s for [seconds]. *)
let constant_rate ~rate ~seconds ~dt =
  List.init (int_of_float (seconds /. dt)) (fun i -> (float_of_int i *. dt, rate))

(* ---------- Client ---------- *)

let test_client_smooth_at_full_rate () =
  let samples = constant_rate ~rate:bitrate ~seconds:40. ~dt:0.5 in
  let r = Video.Client.replay ~dt:0.5 { duration = 30.; samples = samples } in
  Alcotest.(check int) "no stalls" 0 r.stall_count;
  checkf "no stall time" 0. r.stall_time;
  Alcotest.(check bool) "smooth" true r.smooth;
  Alcotest.(check bool) "startup around buffer fill" true (r.startup_delay <= 4.);
  checkf "played everything" 30. r.played

let test_client_stalls_at_half_rate () =
  let samples = constant_rate ~rate:(bitrate /. 2.) ~seconds:60. ~dt:0.5 in
  let r = Video.Client.replay ~dt:0.5 { duration = 30.; samples = samples } in
  Alcotest.(check bool) "stalls" true (r.stall_count > 0);
  Alcotest.(check bool) "stall time accrues" true (r.stall_time > 5.);
  Alcotest.(check bool) "not smooth" false r.smooth

let test_client_fast_download_no_stall () =
  let samples = constant_rate ~rate:(bitrate *. 4.) ~seconds:20. ~dt:0.5 in
  let r = Video.Client.replay ~dt:0.5 { duration = 30.; samples = samples } in
  Alcotest.(check int) "no stalls" 0 r.stall_count;
  Alcotest.(check bool) "startup fast" true (r.startup_delay <= 1.)

let test_client_zero_rate_never_starts () =
  let samples = constant_rate ~rate:0. ~seconds:20. ~dt:0.5 in
  let r = Video.Client.replay ~dt:0.5 { duration = 30.; samples = samples } in
  checkf "nothing played" 0. r.played;
  Alcotest.(check bool) "not smooth" false r.smooth

let test_client_rate_drop_causes_stall () =
  (* Full rate for 5 s, then starvation: buffer drains and playback
     stalls. *)
  let good = constant_rate ~rate:(bitrate *. 1.5) ~seconds:5. ~dt:0.5 in
  let bad =
    List.map (fun (t, _) -> (t +. 5., 0.)) (constant_rate ~rate:0. ~seconds:20. ~dt:0.5)
  in
  let r = Video.Client.replay ~dt:0.5 { duration = 30.; samples = (good @ bad) } in
  Alcotest.(check bool) "stalled" true (r.stall_count >= 1);
  Alcotest.(check bool) "some content played" true (r.played > 2.)

let test_client_short_video_fully_buffered () =
  (* A 1-second video is shorter than the startup buffer; playback must
     still start once fully buffered. *)
  let samples = constant_rate ~rate:bitrate ~seconds:10. ~dt:0.5 in
  let r = Video.Client.replay ~dt:0.5 { duration = 1.; samples = samples } in
  checkf "played all" 1. r.played;
  Alcotest.(check int) "no stalls" 0 r.stall_count

let test_client_validation () =
  Alcotest.(check bool) "bad dt" true
    (try ignore (Video.Client.replay ~dt:0. { duration = 1.; samples = [] }); false
     with Invalid_argument _ -> true)

(* ---------- Workload ---------- *)

let test_workload_fig2_schedule () =
  let flows =
    Video.Workload.fig2_schedule ~s1:0 ~s2:1 ~prefix:(pfx "blue") ~rate:100.
      ~video_duration:300.
  in
  Alcotest.(check int) "62 flows" 62 (List.length flows);
  let at time = List.length (List.filter (fun (f : Netsim.Flow.t) -> f.start_time = time) flows) in
  Alcotest.(check int) "1 at t=0" 1 (at 0.);
  Alcotest.(check int) "30 at t=15" 30 (at 15.);
  Alcotest.(check int) "31 at t=35" 31 (at 35.);
  let ids = List.map (fun (f : Netsim.Flow.t) -> f.id) flows in
  Alcotest.(check int) "unique ids" 62 (List.length (List.sort_uniq compare ids));
  let from_s2 = List.filter (fun (f : Netsim.Flow.t) -> f.src = 1) flows in
  Alcotest.(check int) "31 from S2" 31 (List.length from_s2)

let test_workload_burst_jitter () =
  let prng = Kit.Prng.create ~seed:1 in
  let spec =
    { Video.Workload.src = 0; prefix = pfx "p"; rate = 10.; video_duration = 60. }
  in
  let flows = Video.Workload.crowd ~jitter:2. prng [ spec ] ~first_id:10 ~count:5 ~at:7. in
  Alcotest.(check int) "count" 5 (List.length flows);
  List.iter
    (fun (f : Netsim.Flow.t) ->
      Alcotest.(check bool) "within jitter window" true
        (f.start_time >= 7. && f.start_time < 9.))
    flows;
  Alcotest.(check (list int)) "ids" [ 10; 11; 12; 13; 14 ]
    (List.map (fun (f : Netsim.Flow.t) -> f.id) flows)

let test_workload_poisson () =
  (* The day workload's background arrivals, with no surge. *)
  let prng = Kit.Prng.create ~seed:3 in
  let flows =
    Video.Catalog.day prng ~src:0 ~prefix:(pfx "p")
      ~catalog:(Video.Catalog.catalog ~size:1 ~rate:10. ~duration:60.)
      ~base_rate_per_s:2. ~horizon:100. ~surges:[] ~first_id:0
  in
  (* Expectation 200 arrivals; loose bounds. *)
  let n = List.length flows in
  Alcotest.(check bool) (Printf.sprintf "%d arrivals plausible" n) true
    (n > 120 && n < 300);
  List.iter
    (fun (f : Netsim.Flow.t) ->
      Alcotest.(check bool) "in window" true (f.start_time >= 0. && f.start_time < 100.))
    flows

(* ---------- Qoe ---------- *)

let smooth_result : Video.Client.result =
  { startup_delay = 1.; stall_count = 0; stall_time = 0.; played = 30.; smooth = true;
    mean_bitrate = 131072.; switches = 0; time_at_top = 30. }

let bad_result : Video.Client.result =
  { smooth_result with startup_delay = 8.; stall_count = 5; stall_time = 15.; smooth = false }

let test_qoe_all_smooth () =
  let s = Video.Qoe.summarize [ smooth_result; smooth_result ] in
  Alcotest.(check int) "sessions" 2 s.sessions;
  Alcotest.(check int) "smooth" 2 s.smooth_sessions;
  Alcotest.(check int) "stalls" 0 s.total_stalls;
  checkf "ratio" 0. s.stall_ratio;
  Alcotest.(check bool) "high mos" true (s.mos > 4.5)

let test_qoe_degraded () =
  let s = Video.Qoe.summarize [ bad_result; bad_result ] in
  Alcotest.(check int) "no smooth" 0 s.smooth_sessions;
  Alcotest.(check int) "stalls" 10 s.total_stalls;
  Alcotest.(check bool) "low mos" true (s.mos < 2.5);
  Alcotest.(check bool) "ordering vs smooth" true
    (s.mos < (Video.Qoe.summarize [ smooth_result ]).mos)

let test_qoe_empty_rejected () =
  Alcotest.(check bool) "empty" true
    (try ignore (Video.Qoe.summarize []); false with Invalid_argument _ -> true)

(* ---------- Adaptive player ---------- *)

let ladder = Array.of_list Video.Client.abr_ladder

let top_rate = ladder.(Array.length ladder - 1)

let test_abr_rich_throughput_reaches_top () =
  let samples = constant_rate ~rate:(top_rate *. 2.) ~seconds:60. ~dt:0.5 in
  let r = Video.Client.replay_abr ~dt:0.5 { duration = 40.; samples = samples } in
  Alcotest.(check int) "no stalls" 0 r.stall_count;
  Alcotest.(check bool)
    (Printf.sprintf "mostly top rung (%.0fs of %.0fs)" r.time_at_top r.played)
    true
    (r.time_at_top > 0.6 *. r.played);
  Alcotest.(check bool) "high mean bitrate" true (r.mean_bitrate > top_rate /. 2.)

let test_abr_poor_throughput_downshifts () =
  (* Enough for the lowest rung only. *)
  let samples = constant_rate ~rate:(ladder.(0) *. 1.2) ~seconds:80. ~dt:0.5 in
  let r = Video.Client.replay_abr ~dt:0.5 { duration = 40.; samples = samples } in
  Alcotest.(check bool) "stays near bottom" true
    (r.mean_bitrate < ladder.(1));
  Alcotest.(check bool) "few stalls thanks to adaptation" true (r.stall_time < 10.)

let test_abr_adapts_better_than_fixed_rate () =
  (* Throughput affords the middle rung: fixed top-rate playback stalls
     badly; ABR should not. The buffer model depends only on throughput
     over bitrate, so the fixed-rate client replays the trace scaled by
     its own bitrate over the top rung's. *)
  let rate = ladder.(1) *. 1.3 in
  let samples = constant_rate ~rate ~seconds:120. ~dt:0.5 in
  let abr = Video.Client.replay_abr ~dt:0.5 { duration = 60.; samples = samples } in
  let scaled = List.map (fun (t, r) -> (t, r *. bitrate /. top_rate)) samples in
  let fixed = Video.Client.replay ~dt:0.5 { duration = 60.; samples = scaled } in
  Alcotest.(check bool)
    (Printf.sprintf "ABR stalls (%.1fs) < fixed-rate stalls (%.1fs)"
       abr.stall_time fixed.stall_time)
    true
    (abr.stall_time < fixed.stall_time);
  Alcotest.(check bool) "ABR plays more content" true (abr.played >= fixed.played)

let test_abr_counts_switches () =
  (* Throughput that oscillates between rung 0 and rung 2 budgets forces
     switches. *)
  let samples =
    List.init 160 (fun i ->
        let t = float_of_int i *. 0.5 in
        let rate =
          if (i / 30) mod 2 = 0 then top_rate *. 1.5 else ladder.(0) *. 1.2
        in
        (t, rate))
  in
  let r = Video.Client.replay_abr ~dt:0.5 { duration = 60.; samples = samples } in
  Alcotest.(check bool)
    (Printf.sprintf "switched %d times" r.switches)
    true (r.switches >= 2)

let test_abr_validation () =
  Alcotest.(check bool) "bad dt" true
    (try ignore (Video.Client.replay_abr ~dt:0. { duration = 1.; samples = [] }); false
     with Invalid_argument _ -> true)

(* ---------- Catalog ---------- *)

let test_catalog_build () =
  let items = Video.Catalog.catalog ~size:10 ~rate:100. ~duration:60. in
  Alcotest.(check int) "size" 10 (List.length items);
  Alcotest.(check int) "ranks ascend from 1" 1 (List.hd items).rank

(* A catalog whose item of rank [r] lasts [r] seconds, so a day's flows
   show which ranks its Zipf(1) choice drew. *)
let ranked_day ~seed ~size ~arrivals =
  let catalog =
    List.init size (fun i ->
        { Video.Catalog.rank = i + 1; rate = 10.; duration = float_of_int (i + 1) })
  in
  Video.Catalog.day (Kit.Prng.create ~seed) ~src:0 ~prefix:(pfx "p") ~catalog
    ~base_rate_per_s:1. ~horizon:(float_of_int arrivals) ~surges:[] ~first_id:0
  |> List.map (fun (f : Netsim.Flow.t) -> int_of_float f.duration)

let test_catalog_zipf_skew () =
  let counts = Array.make 20 0 in
  List.iter
    (fun rank -> counts.(rank - 1) <- counts.(rank - 1) + 1)
    (ranked_day ~seed:4 ~size:20 ~arrivals:10000);
  Alcotest.(check bool) "rank 1 beats rank 2" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "rank 2 beats rank 10" true (counts.(1) > counts.(9));
  (* Zipf(1): p(1)/p(10) = 10; allow generous sampling slack. *)
  let ratio = float_of_int counts.(0) /. float_of_int (max 1 counts.(9)) in
  Alcotest.(check bool)
    (Printf.sprintf "heavy head (ratio %.1f)" ratio)
    true (ratio > 5.)

let test_catalog_zipf_bounds () =
  List.iter
    (fun rank -> Alcotest.(check bool) "in range" true (rank >= 1 && rank <= 7))
    (ranked_day ~seed:5 ~size:7 ~arrivals:1000)

let test_catalog_day_surge_density () =
  let prng = Kit.Prng.create ~seed:6 in
  let catalog = Video.Catalog.catalog ~size:10 ~rate:100. ~duration:60. in
  let surge = { Video.Catalog.at = 100.; length = 50.; boost = 20.; item_rank = 1 } in
  let flows =
    Video.Catalog.day prng ~src:0 ~prefix:(pfx "p") ~catalog ~base_rate_per_s:0.1
      ~horizon:300. ~surges:[ surge ] ~first_id:0
  in
  let in_window =
    List.length
      (List.filter
         (fun (f : Netsim.Flow.t) -> f.start_time >= 100. && f.start_time < 150.)
         flows)
  in
  let before_window =
    List.length
      (List.filter
         (fun (f : Netsim.Flow.t) -> f.start_time >= 0. && f.start_time < 50.)
         flows)
  in
  Alcotest.(check bool)
    (Printf.sprintf "surge density (%d in window vs %d before)" in_window
       before_window)
    true
    (in_window > 5 * max 1 before_window);
  (* Ids unique, times sorted, all inside the horizon. *)
  let ids = List.map (fun (f : Netsim.Flow.t) -> f.id) flows in
  Alcotest.(check int) "unique ids" (List.length flows)
    (List.length (List.sort_uniq compare ids));
  let times = List.map (fun (f : Netsim.Flow.t) -> f.start_time) flows in
  Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare times) times;
  Alcotest.(check bool) "in horizon" true
    (List.for_all (fun t -> t >= 0. && t < 300.) times)

let test_catalog_day_deterministic () =
  let mk () =
    let prng = Kit.Prng.create ~seed:7 in
    let catalog = Video.Catalog.catalog ~size:5 ~rate:100. ~duration:60. in
    Video.Catalog.day prng ~src:0 ~prefix:(pfx "p") ~catalog ~base_rate_per_s:0.2
      ~horizon:100. ~surges:[] ~first_id:0
  in
  Alcotest.(check bool) "same flows" true (mk () = mk ())

let () =
  Alcotest.run "video"
    [
      ( "client",
        [
          Alcotest.test_case "smooth at full rate" `Quick test_client_smooth_at_full_rate;
          Alcotest.test_case "stalls at half rate" `Quick test_client_stalls_at_half_rate;
          Alcotest.test_case "fast download" `Quick test_client_fast_download_no_stall;
          Alcotest.test_case "zero rate" `Quick test_client_zero_rate_never_starts;
          Alcotest.test_case "rate drop stalls" `Quick test_client_rate_drop_causes_stall;
          Alcotest.test_case "short video" `Quick test_client_short_video_fully_buffered;
          Alcotest.test_case "validation" `Quick test_client_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "fig2 schedule" `Quick test_workload_fig2_schedule;
          Alcotest.test_case "burst jitter" `Quick test_workload_burst_jitter;
          Alcotest.test_case "poisson" `Quick test_workload_poisson;
        ] );
      ( "abr",
        [
          Alcotest.test_case "rich throughput" `Quick test_abr_rich_throughput_reaches_top;
          Alcotest.test_case "poor throughput" `Quick test_abr_poor_throughput_downshifts;
          Alcotest.test_case "beats fixed rate" `Quick test_abr_adapts_better_than_fixed_rate;
          Alcotest.test_case "counts switches" `Quick test_abr_counts_switches;
          Alcotest.test_case "validation" `Quick test_abr_validation;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "build" `Quick test_catalog_build;
          Alcotest.test_case "zipf skew" `Quick test_catalog_zipf_skew;
          Alcotest.test_case "zipf bounds" `Quick test_catalog_zipf_bounds;
          Alcotest.test_case "surge density" `Quick test_catalog_day_surge_density;
          Alcotest.test_case "deterministic" `Quick test_catalog_day_deterministic;
        ] );
      ( "qoe",
        [
          Alcotest.test_case "all smooth" `Quick test_qoe_all_smooth;
          Alcotest.test_case "degraded" `Quick test_qoe_degraded;
          Alcotest.test_case "empty" `Quick test_qoe_empty_rejected;
        ] );
    ]
