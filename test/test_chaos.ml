let pfx = Igp.Prefix.v
(* Robustness tests: seeded fault injection, fake-LSA aging, lossy
   flooding, controller crash/restart, and the chaos property — after
   every fault heals and every lie is withdrawn or aged out, routing is
   exactly the fault-free pure-IGP state. *)

module G = Netgraph.Graph
module T = Netgraph.Topologies
module Faults = Netsim.Faults

let demo_net () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (d, net)

let fake ~id ~at ~cost ~fwd : Igp.Lsa.fake =
  {
    fake_id = id;
    attachment = at;
    attachment_cost = 1;
    prefix = pfx "blue";
    announced_cost = cost - 1;
    forwarding = fwd;
  }

(* ---------- Lsdb fake aging ---------- *)

let test_lsdb_expiry_basic () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Igp.Network.inject_fake net (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Alcotest.(check (list string)) "nothing expires without a stamp" []
    (List.map
       (fun (f : Igp.Lsa.fake) -> f.fake_id)
       (Igp.Lsdb.expire_fakes lsdb ~now:1e9));
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:10. ~ttl:5.;
  Alcotest.(check (option (float 1e-9))) "expiry stamped" (Some 15.)
    (Igp.Lsdb.fake_expiry lsdb ~fake_id:"f1");
  Alcotest.(check (list string)) "not yet" []
    (List.map
       (fun (f : Igp.Lsa.fake) -> f.fake_id)
       (Igp.Lsdb.expire_fakes lsdb ~now:14.9));
  Alcotest.(check (list string)) "expires at its time" [ "f1" ]
    (List.map
       (fun (f : Igp.Lsa.fake) -> f.fake_id)
       (Igp.Lsdb.expire_fakes lsdb ~now:15.));
  Alcotest.(check int) "gone from the LSDB" 0 (Igp.Lsdb.fake_count lsdb)

let test_lsdb_refresh_extends_life () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Igp.Network.inject_fake net (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:0. ~ttl:5.;
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:4. ~ttl:5.;
  Alcotest.(check (list string)) "re-stamp pushed expiry out" []
    (List.map
       (fun (f : Igp.Lsa.fake) -> f.fake_id)
       (Igp.Lsdb.expire_fakes lsdb ~now:6.));
  (* Re-stamping one fake leaves the others to die. *)
  Igp.Network.inject_fake net (fake ~id:"f2" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f2" ~now:4. ~ttl:5.;
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:8. ~ttl:5.;
  Alcotest.(check (list string)) "fake nobody re-stamped expired" [ "f2" ]
    (List.map
       (fun (f : Igp.Lsa.fake) -> f.fake_id)
       (Igp.Lsdb.expire_fakes lsdb ~now:9.5))

let test_lsdb_expiry_clear_and_clamp () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Igp.Network.inject_fake net (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:0. ~ttl:5.;
  (* Retraction drops the expiry: the lie re-installed is immortal. *)
  Igp.Network.retract_fake net ~fake_id:"f1";
  Igp.Network.inject_fake net (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Alcotest.(check (list string)) "immortal again" []
    (List.map
       (fun (f : Igp.Lsa.fake) -> f.fake_id)
       (Igp.Lsdb.expire_fakes lsdb ~now:1e9));
  (* TTLs are clamped to OSPF MaxAge. *)
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:0. ~ttl:1e9;
  Alcotest.(check (option (float 1e-9))) "clamped to max_age"
    (Some Igp.Lsa.max_age)
    (Igp.Lsdb.fake_expiry lsdb ~fake_id:"f1");
  Alcotest.(check bool) "non-positive ttl rejected" true
    (try
       Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"f1" ~now:0. ~ttl:0.;
       false
     with Invalid_argument _ -> true);
  (* Retraction drops the stamp: a reinstalled fake starts immortal. *)
  Igp.Lsdb.retract_fake lsdb ~fake_id:"f1";
  Igp.Lsdb.install_fake lsdb (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Alcotest.(check (option (float 1e-9))) "stamp gone after retract" None
    (Igp.Lsdb.fake_expiry lsdb ~fake_id:"f1")

(* ---------- Lossy flooding ---------- *)

let test_flooding_lossless_dispatch () =
  let d = T.demo () in
  let reference = Igp.Flooding.flood d.graph ~origin:d.b in
  (* drop = 0 must be bit-identical to the lossless path. *)
  let loss = Igp.Flooding.loss ~drop:0. ~seed:1 () in
  let cost = Igp.Flooding.flood ~loss d.graph ~origin:d.b in
  Alcotest.(check int) "messages" reference.messages cost.messages;
  Alcotest.(check int) "rounds" reference.rounds cost.rounds

let test_flooding_lossy_costs_more () =
  let d = T.demo () in
  let reference = Igp.Flooding.flood d.graph ~origin:d.b in
  let loss = Igp.Flooding.loss ~drop:0.4 ~seed:11 () in
  let cost = Igp.Flooding.flood ~loss d.graph ~origin:d.b in
  Alcotest.(check bool)
    (Printf.sprintf "messages %d >= lossless %d" cost.messages reference.messages)
    true
    (cost.messages >= reference.messages);
  Alcotest.(check bool) "rounds at least lossless" true
    (cost.rounds >= reference.rounds)

let test_flooding_lossy_deterministic () =
  let d = T.demo () in
  let run seed =
    let loss = Igp.Flooding.loss ~drop:0.3 ~seed () in
    Igp.Flooding.flood ~loss d.graph ~origin:d.a
  in
  Alcotest.(check bool) "same seed, same cost" true (run 7 = run 7)

let test_flooding_loss_validation () =
  Alcotest.(check bool) "drop out of range" true
    (try ignore (Igp.Flooding.loss ~drop:1. ~seed:1 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative drop" true
    (try ignore (Igp.Flooding.loss ~drop:(-0.1) ~seed:1 ()); false
     with Invalid_argument _ -> true)

(* ---------- LSA delivery jitter ---------- *)

let test_flooding_jitter_costs_rounds_not_messages () =
  let d = T.demo () in
  let reference = Igp.Flooding.flood d.graph ~origin:d.b in
  let jitter = Igp.Flooding.jitter ~max_delay:5 ~seed:3 () in
  let cost = Igp.Flooding.flood ~jitter d.graph ~origin:d.b in
  (* Jitter delays deliveries (reordering them across paths) but drops
     nothing: same messages, at least as many rounds. *)
  Alcotest.(check int) "messages unchanged" reference.messages cost.messages;
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d >= lossless %d" cost.rounds reference.rounds)
    true
    (cost.rounds >= reference.rounds)

let test_flooding_jitter_deterministic_and_validated () =
  let d = T.demo () in
  let run seed =
    let jitter = Igp.Flooding.jitter ~max_delay:4 ~seed () in
    Igp.Flooding.flood ~jitter d.graph ~origin:d.a
  in
  Alcotest.(check bool) "same seed, same cost" true (run 9 = run 9);
  Alcotest.(check bool) "max_delay < 1 rejected" true
    (try ignore (Igp.Flooding.jitter ~max_delay:0 ~seed:1 ()); false
     with Invalid_argument _ -> true)

(* ---------- Corrupted monitor samples ---------- *)

let test_monitor_corruption () =
  let caps = Netsim.Link.capacities ~default:100. in
  let readings corruption =
    let m = Netsim.Monitor.create ~poll_interval:1. caps in
    Netsim.Monitor.set_corruption m corruption;
    Netsim.Monitor.observe m ~time:1. ~dt:1.
      (List.init 50 (fun i -> ((i, i + 1), 50.)));
    ignore (Netsim.Monitor.poll m ~time:1.);
    Netsim.Monitor.fold_utilizations m ~init:[] (fun link u acc -> (link, u) :: acc)
    |> List.sort (fun (a, _) (b, _) -> Netsim.Link.compare a b)
  in
  let corrupt seed =
    Some (Netsim.Monitor.corruption ~probability:0.8 ~gain:3. ~seed ())
  in
  Alcotest.(check bool) "deterministic per seed" true
    (readings (corrupt 7) = readings (corrupt 7));
  Alcotest.(check bool) "corruption changes readings" true
    (readings (corrupt 7) <> readings None);
  Alcotest.(check bool) "probability >= 1 rejected" true
    (try ignore (Netsim.Monitor.corruption ~probability:1. ~seed:1 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive gain rejected" true
    (try ignore (Netsim.Monitor.corruption ~gain:0. ~seed:1 ()); false
     with Invalid_argument _ -> true)

(* ---------- Fault plans ---------- *)

let prop_random_plans_validate =
  QCheck.Test.make ~name:"random fault plans validate" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 8))
    (fun (seed, faults) ->
      let g = (T.demo ()).graph in
      let plan = Faults.random_plan ~faults ~seed ~until:30. g in
      match Faults_oracle.validate plan with
      | Ok () -> true
      | Error e ->
        QCheck.Test.fail_reportf "seed %d: %s@.%s" seed e
          (Faults.to_string g plan))

let test_plan_deterministic () =
  let g = (T.demo ()).graph in
  let a = Faults.random_plan ~seed:42 ~until:30. g in
  let b = Faults.random_plan ~seed:42 ~until:30. g in
  Alcotest.(check bool) "same seed, same plan" true (a.events = b.events);
  let c = Faults.random_plan ~seed:43 ~until:30. g in
  Alcotest.(check bool) "different seed, different plan" true
    (a.events <> c.events)

let test_validate_rejects_malformed () =
  let bad events : Faults.plan = { seed = 0; until = 30.; events } in
  let rejected plan =
    match Faults_oracle.validate plan with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "unhealed link" true
    (rejected (bad [ { time = 1.; kind = Link_down (0, 1) } ]));
  Alcotest.(check bool) "restore of a live link" true
    (rejected (bad [ { time = 1.; kind = Link_up (0, 1) } ]));
  Alcotest.(check bool) "double crash" true
    (rejected
       (bad
          [
            { time = 1.; kind = Router_crash 0 };
            { time = 2.; kind = Router_crash 0 };
          ]));
  Alcotest.(check bool) "crash holding a failed link" true
    (rejected
       (bad
          [
            { time = 1.; kind = Link_down (0, 1) };
            { time = 2.; kind = Router_crash 0 };
            { time = 3.; kind = Link_up (0, 1) };
            { time = 4.; kind = Router_recover 0 };
          ]));
  Alcotest.(check bool) "unsorted" true
    (rejected
       (bad
          [
            { time = 5.; kind = Link_down (0, 1) };
            { time = 1.; kind = Link_up (0, 1) };
          ]));
  Alcotest.(check bool) "restart of live controller" true
    (rejected (bad [ { time = 1.; kind = Controller_restart } ]));
  Alcotest.(check bool) "bad lsa-delay parameters" true
    (rejected
       (bad [ { time = 1.; kind = Lsa_delay { max_delay = 0; duration = 5. } } ]));
  Alcotest.(check bool) "bad monitor-corruption parameters" true
    (rejected
       (bad
          [
            {
              time = 1.;
              kind =
                Monitor_corruption
                  { probability = 1.5; gain = 2.; duration = 5. };
            };
          ]))

(* ---------- Partition faults ---------- *)

(* Fig. 1a: side {A, R1} is separated from the rest by cutting A-B and
   R1-R4. *)
let partition d ~time ~duration : Faults.event =
  {
    time;
    kind =
      Faults.Partition
        {
          side = [ d.T.a; d.T.r1 ];
          cut = [ (d.T.a, d.T.b); (d.T.r1, d.T.r4) ];
          duration;
        };
  }

let test_validate_partition_rules () =
  let d = T.demo () in
  let plan events : Faults.plan = { seed = 0; until = 30.; events } in
  let ok events =
    match Faults_oracle.validate (plan events) with Ok () -> true | Error _ -> false
  in
  Alcotest.(check bool) "well-formed partition validates" true
    (ok [ partition d ~time:2. ~duration:5. ]);
  Alcotest.(check bool) "must heal by until - margin" false
    (ok [ partition d ~time:20. ~duration:9. ]);
  Alcotest.(check bool) "empty cut rejected" false
    (ok
       [
         {
           time = 2.;
           kind = Faults.Partition { side = [ d.a ]; cut = []; duration = 5. };
         };
       ]);
  Alcotest.(check bool) "empty side rejected" false
    (ok
       [
         {
           time = 2.;
           kind =
             Faults.Partition
               { side = []; cut = [ (d.a, d.b) ]; duration = 5. };
         };
       ]);
  Alcotest.(check bool) "link fault on a partitioned edge rejected" false
    (ok
       [
         partition d ~time:2. ~duration:10.;
         { time = 5.; kind = Link_down (d.a, d.b) };
         { time = 8.; kind = Link_up (d.a, d.b) };
       ]);
  Alcotest.(check bool) "crashing a partitioned endpoint rejected" false
    (ok
       [
         partition d ~time:2. ~duration:10.;
         { time = 5.; kind = Router_crash d.a };
         { time = 8.; kind = Router_recover d.a };
       ]);
  Alcotest.(check bool) "faults on the healed edge are fine again" true
    (ok
       [
         partition d ~time:2. ~duration:3.;
         { time = 10.; kind = Link_down (d.a, d.b) };
         { time = 12.; kind = Link_up (d.a, d.b) };
       ]);
  Alcotest.(check bool) "partition over an already-failed edge rejected" false
    (ok
       [
         { time = 1.; kind = Link_down (d.a, d.b) };
         partition d ~time:2. ~duration:3.;
         { time = 10.; kind = Link_up (d.a, d.b) };
       ])

let test_partition_inject_cuts_and_heals () =
  let d, net = demo_net () in
  let caps = Netsim.Link.capacities ~default:1e6 in
  let sim = Netsim.Sim.create ~dt:0.5 net caps in
  let cut = [ (d.a, d.b); (d.r1, d.r4) ] in
  let plan : Faults.plan =
    { seed = 0; until = 30.; events = [ partition d ~time:2. ~duration:5. ] }
  in
  (match Faults_oracle.validate plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plan invalid: %s" e);
  Faults.inject sim plan;
  Netsim.Sim.run_until sim 4.;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "edge cut during the window" false
        (G.has_edge d.graph u v))
    cut;
  (* The cut is atomic: A keeps no path to the prefix at C. *)
  Alcotest.(check bool) "A separated from C" true
    (match Igp.Network.fib net ~router:d.a (pfx "blue") with
    | None -> true
    | Some f -> Igp.Fib.next_hops f = []);
  Netsim.Sim.run_until sim 10.;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "edge back after heal" true
        (G.has_edge d.graph u v))
    cut;
  Alcotest.(check bool) "A routes to C again" true
    (Igp.Network.fib net ~router:d.a (pfx "blue") <> None)

let test_random_plans_draw_new_kinds () =
  let g = (T.demo ()).graph in
  let seen_partition = ref false
  and seen_delay = ref false
  and seen_corrupt = ref false in
  for seed = 0 to 199 do
    let plan = Faults.random_plan ~faults:6 ~seed ~until:40. g in
    List.iter
      (fun (e : Faults.event) ->
        match e.kind with
        | Faults.Partition _ -> seen_partition := true
        | Faults.Lsa_delay _ -> seen_delay := true
        | Faults.Monitor_corruption _ -> seen_corrupt := true
        | _ -> ())
      plan.events
  done;
  Alcotest.(check bool) "partitions drawn" true !seen_partition;
  Alcotest.(check bool) "lsa delays drawn" true !seen_delay;
  Alcotest.(check bool) "corrupted telemetry drawn" true !seen_corrupt

(* ---------- Watchdog ---------- *)

module W = Netsim.Watchdog

(* One step: the watchdog's post-step check sees the state a test just
   forced, since forcing it dirtied the routers [watchdog_sim] had
   routed. *)
let step sim = Netsim.Sim.run_until sim (Netsim.Sim.time sim +. 0.5)

(* Run [f] once, from a step hook, at the end of the step that reaches
   [time]. Registered before [W.arm], the hook forces its state after
   the step routed and before the watchdog's post-step check, so only
   that check, not the pre-routing guard, can see it first. *)
let at_step sim ~time f =
  let fired = ref false in
  Netsim.Sim.on_step sim (fun sim ->
      if (not !fired) && Netsim.Sim.time sim >= time -. 1e-9 then begin
        fired := true;
        f ()
      end)

let watchdog_sim () =
  let d, net = demo_net () in
  let caps = Netsim.Link.capacities ~default:1e6 in
  let sim = Netsim.Sim.create ~dt:0.5 net caps in
  (* Route blue everywhere up front, so that a change to its routes
     shows in the SPF dirty log the watchdog gates its sweep on. *)
  ignore (Igp.Network.fib_table net (pfx "blue"));
  (d, net, sim)

(* Two of these with mirrored attachments form a tight two-router
   forwarding loop: announced_cost 0 beats every real route. *)
let cheap ~id ~at ~fwd : Igp.Lsa.fake =
  {
    fake_id = id;
    attachment = at;
    attachment_cost = 1;
    prefix = pfx "blue";
    announced_cost = 0;
    forwarding = fwd;
  }

let inject_loop d net sim =
  Igp.Network.inject_fake net (cheap ~id:"l1" ~at:d.T.a ~fwd:d.T.b);
  Igp.Network.inject_fake net (cheap ~id:"l2" ~at:d.T.b ~fwd:d.T.a);
  let lsdb = Igp.Network.lsdb net in
  let now = Netsim.Sim.time sim in
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"l1" ~now ~ttl:30.;
  Igp.Lsdb.set_fake_expiry lsdb ~fake_id:"l2" ~now ~ttl:30.

let test_watchdog_quiet_on_safe_run () =
  let d, _net, sim = watchdog_sim () in
  let wd = W.arm sim in
  Netsim.Sim.add_flow sim
    (Netsim.Flow.make ~id:1 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  Netsim.Sim.run_until sim 20.;
  Alcotest.(check int) "no violations" 0 (W.violation_count wd);
  Alcotest.(check int) "no quarantines" 0 (W.quarantine_count wd);
  let s = W.stats wd in
  Alcotest.(check bool) "every step checked" true (s.steps_checked >= 39);
  (* Incremental gating: nothing changed routing after step one, so the
     safety sweep is skipped nearly everywhere. *)
  Alcotest.(check bool)
    (Printf.sprintf "skips %d dominate sweeps %d" s.safety_skipped
       s.safety_sweeps)
    true
    (s.safety_skipped > s.safety_sweeps)

(* The post-step check is first to see a loop forced after the guard
   ran, and its sweep consumes the gate the two share; the next step's
   guard must still purge the loop rather than find nothing changed. *)
let test_watchdog_detects_forced_loop () =
  let d, net, sim = watchdog_sim () in
  Netsim.Sim.add_flow sim
    (Netsim.Flow.make ~id:1 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  at_step sim ~time:1. (fun () -> inject_loop d net sim);
  let wd = W.arm sim in
  Netsim.Sim.run_until sim 3.;
  Alcotest.(check bool) "loop flagged once, at the injection step" true
    (match W.violations wd with
    | [ { kind = W.Forwarding_loop; time = 1.; _ } ] -> true
    | _ -> false);
  Alcotest.(check int) "the next guard quarantined" 1 (W.quarantine_count wd);
  Alcotest.(check int) "lies purged" 0
    (Igp.Lsdb.fake_count (Igp.Network.lsdb net));
  Alcotest.(check bool) "flow routable again" true
    (Netsim.Sim.unroutable_flows sim = [])

(* The loop text reaches controller quarantine reasons and watchdog
   details, so it is pinned word for word. *)
let test_forced_loop_text () =
  let d, net, sim = watchdog_sim () in
  let text = "forwarding loop for blue through {A, B}" in
  at_step sim ~time:1. (fun () ->
      inject_loop d net sim;
      Alcotest.(check (result unit string)) "state_safe" (Error text)
        (Igp.Safety.state_safe net ~prefix:(pfx "blue")));
  let wd = W.arm sim in
  Netsim.Sim.run_until sim 1.;
  Alcotest.(check (list string)) "watchdog detail" [ text ]
    (List.map (fun (v : W.violation) -> v.detail) (W.violations wd))

let test_watchdog_budget_and_freshness () =
  let d, net, sim = watchdog_sim () in
  let wd = W.arm sim in
  Netsim.Sim.run_until sim 1.;
  (* 65 safe but immortal fakes: one over the budget of 64, and never
     expiring. *)
  for i = 1 to 65 do
    Igp.Network.inject_fake net
      (fake ~id:(Printf.sprintf "s%d" i) ~at:d.b ~cost:2 ~fwd:d.r3)
  done;
  step sim;
  let kinds = List.map (fun (v : W.violation) -> v.kind) (W.violations wd) in
  Alcotest.(check bool) "budget breach flagged" true (List.mem W.Lie_budget kinds);
  Alcotest.(check bool) "immortal lie flagged" true (List.mem W.Stale_lie kinds)

let test_watchdog_dangling_lie () =
  let d, net, sim = watchdog_sim () in
  let wd = W.arm sim in
  Netsim.Sim.run_until sim 1.;
  Igp.Network.inject_fake net (fake ~id:"s1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Lsdb.set_fake_expiry (Igp.Network.lsdb net) ~fake_id:"s1"
    ~now:(Netsim.Sim.time sim) ~ttl:30.;
  (* Remove the forwarding adjacency behind the simulator's back. *)
  G.remove_edge d.graph d.b d.r3;
  step sim;
  let kinds = List.map (fun (v : W.violation) -> v.kind) (W.violations wd) in
  Alcotest.(check bool) "dangling lie flagged" true
    (List.mem W.Dangling_lie kinds)

let test_watchdog_guard_quarantines_on_timeline () =
  (* The acceptance scenario: force an unsafe lie set into a running
     sim; the pre-routing guard must purge it before any flow is routed
     (zero violations), count a quarantine, call the quarantine hook,
     and stamp the Obs timeline. *)
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let d, net, sim = watchdog_sim () in
  let wd = W.arm sim in
  let quarantined = ref [] in
  W.on_quarantine wd (fun ~prefix ~reason:_ ->
      quarantined := prefix :: !quarantined);
  Netsim.Sim.add_flow sim
    (Netsim.Flow.make ~id:1 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  Netsim.Sim.run_until sim 1.;
  inject_loop d net sim;
  Netsim.Sim.run_until sim 3.;
  Alcotest.(check int) "guard caught it pre-routing: zero violations" 0
    (W.violation_count wd);
  Alcotest.(check bool) "quarantine counted" true (W.quarantine_count wd > 0);
  Alcotest.(check (list string)) "hook saw the prefix" [ "blue" ] (List.map Igp.Prefix.to_string !quarantined);
  Alcotest.(check int) "lies purged" 0
    (Igp.Lsdb.fake_count (Igp.Network.lsdb net));
  Alcotest.(check bool) "flow routable again" true
    (Netsim.Sim.unroutable_flows sim = []);
  let kinds =
    List.map (fun e -> e.Obs.Timeline.kind) (Obs.Timeline.events ())
  in
  Alcotest.(check bool) "quarantine on the Obs timeline" true
    (List.mem "quarantine" kinds)

(* ---------- The chaos property ---------- *)

(* The watchdog is armed by default, and [ok] demands an empty violation
   list — so this is the strongest robustness property in the suite:
   across 300 random fault schedules (link flaps, crashes, partitions,
   delayed flooding, corrupted telemetry, controller death) there must
   be zero watchdog violations at {e every} step, and the end state must
   be exactly the fault-free pure IGP. *)
let prop_chaos_converges =
  QCheck.Test.make
    ~name:"chaos: fault-free state recovered, zero watchdog violations"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let v = Scenarios.Chaos.run ~faults:(2 + (seed mod 5)) ~seed ~until:30. () in
      if Scenarios.Chaos.ok v then true
      else QCheck.Test.fail_reportf "%a" Scenarios.Chaos.pp v)

let test_chaos_deterministic () =
  let run () = Scenarios.Chaos.run ~seed:5 ~until:30. () in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same verdict" true
    (a.Scenarios.Chaos.plan.events = b.Scenarios.Chaos.plan.events
    && a.fakes_left = b.fakes_left
    && a.controller_alive = b.controller_alive
    && a.reactions = b.reactions)

(* Regression: a rejected steering used to roll back to the previous
   plan after checking only that it still installs. A topology change
   since had made that plan loop, so the watchdog caught a one-step
   forwarding loop (seed 4111 at t=20, seed 11648 at t=12). *)
let test_rollback_rechecks_safety seed () =
  let v = Scenarios.Chaos.run ~seed ~until:30. () in
  if not (Scenarios.Chaos.ok v) then
    Alcotest.failf "%a" Scenarios.Chaos.pp v

(* ---------- Lie aging: the controller-death fallback ---------- *)

let stream = 131072.

let controller_sim ?(config = Fibbing.Controller.default_config) () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  let caps = Netsim.Link.capacities ~default:(11. *. 1024. *. 1024.) in
  List.iter
    (fun link -> Netsim.Link.set_link caps link (2.75 *. 1024. *. 1024.))
    [ (d.a, d.r1); (d.b, d.r2); (d.b, d.r3) ];
  let monitor =
    Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85
      ~clear_threshold:0.6 ~alpha:0.8 caps
  in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
  let controller = Fibbing.Controller.create ~config net in
  Fibbing.Controller.attach controller sim;
  (d, net, sim, controller)

let surge (d : T.demo) sim =
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done

let test_dead_controller_lies_age_out () =
  let config =
    { Fibbing.Controller.default_config with lie_ttl = 5.; relax_after = 1e6 }
  in
  let d, net, sim, controller = controller_sim ~config () in
  surge d sim;
  Netsim.Sim.run_until sim 10.;
  let lsdb = Igp.Network.lsdb net in
  Alcotest.(check bool) "lies installed while alive" true
    (Igp.Lsdb.fake_count lsdb > 0);
  Fibbing.Controller.crash controller;
  Alcotest.(check bool) "dead" false (Fibbing.Controller.alive controller);
  Alcotest.(check int) "controller memory empty" 0
    (Fibbing.Controller.fake_count controller);
  Alcotest.(check bool) "lies still in the LSDB right after the crash" true
    (Igp.Lsdb.fake_count lsdb > 0);
  (* No refreshes any more: within lie_ttl the network sheds every lie
     and the FIBs converge back to the pure IGP, congestion or not. *)
  Netsim.Sim.run_until sim 20.;
  Alcotest.(check int) "all lies aged out" 0 (Igp.Lsdb.fake_count lsdb);
  let reference = Igp.Network.create (G.copy (T.demo ()).graph) in
  Igp.Network.announce_prefix reference (pfx "blue") ~origin:d.c ~cost:0;
  List.iter
    (fun router ->
      match
        ( Igp.Network.fib net ~router (pfx "blue"),
          Igp.Network.fib reference ~router (pfx "blue") )
      with
      | Some a, Some b ->
        Alcotest.(check bool) "FIB equals pure IGP" true
          (Igp.Fib.equal_forwarding a b)
      | None, None -> ()
      | _ -> Alcotest.fail "FIB presence mismatch")
    (Igp.Network.routers net)

let test_live_controller_keeps_lies_alive () =
  let config =
    { Fibbing.Controller.default_config with lie_ttl = 5.; relax_after = 1e6 }
  in
  let d, net, sim, _controller = controller_sim ~config () in
  surge d sim;
  Netsim.Sim.run_until sim 10.;
  let before = Igp.Lsdb.fake_count (Igp.Network.lsdb net) in
  Alcotest.(check bool) "lies installed" true (before > 0);
  (* Many TTLs later, the refresh cycle has kept every lie alive. *)
  Netsim.Sim.run_until sim 40.;
  Alcotest.(check bool) "lies survive while refreshed" true
    (Igp.Lsdb.fake_count (Igp.Network.lsdb net) > 0)

let test_restart_adopts_surviving_lies () =
  let config =
    { Fibbing.Controller.default_config with lie_ttl = 6.; relax_after = 1e6 }
  in
  let d, net, sim, controller = controller_sim ~config () in
  surge d sim;
  Netsim.Sim.run_until sim 10.;
  let lsdb = Igp.Network.lsdb net in
  let surviving = Igp.Lsdb.fake_count lsdb in
  Alcotest.(check bool) "lies installed" true (surviving > 0);
  Fibbing.Controller.crash controller;
  Netsim.Sim.run_until sim 12.;
  Fibbing.Controller.restart controller ~time:(Netsim.Sim.time sim);
  Alcotest.(check bool) "alive again" true (Fibbing.Controller.alive controller);
  Alcotest.(check int) "adopted every surviving lie"
    (Igp.Lsdb.fake_count lsdb)
    (Fibbing.Controller.fake_count controller);
  (* Adoption means responsibility: the lies are refreshed again and
     outlive many TTLs. *)
  Netsim.Sim.run_until sim 40.;
  Alcotest.(check bool) "adopted lies kept alive" true
    (Igp.Lsdb.fake_count lsdb > 0)

let test_restart_withdraws_dangling_lies () =
  (* A fake whose forwarding adjacency no longer exists must be
     withdrawn at restart, not adopted. The edge is removed behind the
     simulator's back to model state the restarted controller cannot
     trust. *)
  let d, net = demo_net () in
  let controller = Fibbing.Controller.create net in
  Igp.Network.inject_fake net (fake ~id:"stale" ~at:d.b ~cost:2 ~fwd:d.r3);
  G.remove_edge d.graph d.b d.r3;
  Fibbing.Controller.crash controller;
  Fibbing.Controller.restart controller ~time:0.;
  Alcotest.(check int) "dangling lie withdrawn" 0
    (Igp.Lsdb.fake_count (Igp.Network.lsdb net));
  Alcotest.(check int) "nothing adopted" 0
    (Fibbing.Controller.fake_count controller)

let test_flushed_lie_drops_its_plan () =
  (* Both crowds on: the plan lies at A (twice, towards R1) and at B
     (towards R3). Failing B-R3 flushes B's lie behind the controller's
     back; the lies at A survive, stay refreshed, and the next reaction
     compiles afresh instead of merging the half-gone plan. *)
  let lie_ttl = 6. and poll_interval = 2. (* [controller_sim]'s monitor *) in
  let config =
    { Fibbing.Controller.default_config with lie_ttl; relax_after = 1e6 }
  in
  let d, net, sim, controller = controller_sim ~config () in
  surge d sim;
  for i = 31 to 61 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.b ~prefix:(pfx "blue") ~demand:stream
         ~start_time:15. ())
  done;
  Netsim.Sim.run_until sim 30.;
  let lsdb = Igp.Network.lsdb net in
  let at_b, at_a =
    List.partition
      (fun (f : Igp.Lsa.fake) -> f.attachment = d.b)
      (Igp.Lsdb.fakes lsdb)
  in
  let lie_b =
    match at_b with
    | [ f ] when f.forwarding = d.r3 -> f
    | _ -> Alcotest.fail "expected one lie at B, towards R3"
  in
  Alcotest.(check bool) "lies at A too" true (at_a <> []);
  let logged = List.length (Fibbing.Controller.actions controller) in
  Netsim.Sim.fail_link sim ~time:30. (lie_b.attachment, lie_b.forwarding);
  (* Every surviving lie expires within [now + ttl - poll, now + ttl]. *)
  let stale = ref [] in
  Netsim.Sim.on_step sim (fun sim ->
      let now = Netsim.Sim.time sim in
      List.iter
        (fun (f : Igp.Lsa.fake) ->
          match Igp.Lsdb.fake_expiry lsdb ~fake_id:f.fake_id with
          | Some at
            when at <= now +. lie_ttl +. 1e-9
                 && at >= now +. lie_ttl -. poll_interval -. 1e-9 ->
            ()
          | Some _ | None ->
            stale := Printf.sprintf "%s at t=%.1f" f.fake_id now :: !stale)
        (Igp.Lsdb.fakes lsdb));
  Netsim.Sim.run_until sim 31.;
  Alcotest.(check bool) "B's lie flushed" false
    (Igp.Lsdb.installed lsdb lie_b.fake_id);
  Alcotest.(check int) "survivors owned" (Igp.Lsdb.fake_count lsdb)
    (Fibbing.Controller.fake_count controller);
  Alcotest.(check bool) "survivors still installed" true
    (List.for_all
       (fun (f : Igp.Lsa.fake) -> Igp.Lsdb.installed lsdb f.fake_id)
       at_a);
  Netsim.Sim.run_until sim 40.;
  Alcotest.(check (list string)) "survivors stay refreshed" [] (List.rev !stale);
  match
    List.filteri (fun i _ -> i >= logged) (Fibbing.Controller.actions controller)
  with
  | [] -> Alcotest.fail "no reaction after the failure"
  | (next : Fibbing.Controller.action) :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "next reaction steers (%s)" next.description)
      true
      (String.length next.description >= 6
      && String.sub next.description 0 6 = "steer ")

let test_crash_restart_idempotent () =
  let _, net = demo_net () in
  let controller = Fibbing.Controller.create net in
  Fibbing.Controller.crash controller;
  Fibbing.Controller.crash controller;
  Fibbing.Controller.restart controller ~time:1.;
  Fibbing.Controller.restart controller ~time:2.;
  Alcotest.(check bool) "alive" true (Fibbing.Controller.alive controller)

(* ---------- The controller's lie lifecycle ---------- *)

type lifecycle_op =
  | Steps of int * bool (* steps of dt, with the surge on or off *)
  | Crash
  | Restart
  | Quarantine
  | Withdraw_all
  | Fail_link (* a link some installed fake forwards over *)
  | Restore_link (* the link failed last *)

let pp_lifecycle_op = function
  | Steps (n, surge) ->
    Printf.sprintf "steps %d%s" n (if surge then " surge" else "")
  | Crash -> "crash"
  | Restart -> "restart"
  | Quarantine -> "quarantine"
  | Withdraw_all -> "withdraw_all"
  | Fail_link -> "fail_link"
  | Restore_link -> "restore_link"

let lifecycle_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map2 (fun n surge -> Steps (n, surge)) (int_range 1 8) bool);
        (1, return Crash);
        (1, return Restart);
        (1, return Quarantine);
        (1, return Withdraw_all);
        (1, return Fail_link);
        (1, return Restore_link);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_lifecycle_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 20) op)

(* Random lifecycles of one controller, watchdog armed: the owned-lie
   table stays in step with the LSDB whatever the order of surges,
   crashes, restarts, quarantines, withdrawals and failures of links
   lies forward over. Invariants are checked after every sim step and
   every operation. *)
let prop_lie_lifecycle =
  let lie_ttl = 6. and poll_interval = 2. (* [controller_sim]'s monitor *) in
  QCheck.Test.make ~name:"controller lie lifecycle" ~count:200 lifecycle_ops
    (fun ops ->
      let config =
        { Fibbing.Controller.default_config with lie_ttl; relax_after = 8. }
      in
      let d, net, sim, controller = controller_sim ~config () in
      let wd = Netsim.Watchdog.arm sim in
      Netsim.Watchdog.on_quarantine wd (fun ~prefix ~reason ->
          Fibbing.Controller.quarantine controller
            ~time:(Netsim.Sim.time sim) ~prefix ~reason);
      let lsdb = Igp.Network.lsdb net in
      let blue = pfx "blue" in
      let errors = ref [] in
      let fail fmt =
        Printf.ksprintf
          (fun m ->
            errors :=
              Printf.sprintf "t=%.1f: %s" (Netsim.Sim.time sim) m :: !errors)
          fmt
      in
      (* End of the hold-down our own [quarantine] call started; a crash
         forgets holds by design. *)
      let held_until = ref neg_infinity in
      let check () =
        let now = Netsim.Sim.time sim in
        if now < !held_until then
          List.iter
            (fun (f : Igp.Lsa.fake) ->
              if Igp.Prefix.equal f.prefix blue then
                fail "blue fake %s installed during the hold-down" f.fake_id)
            (Igp.Lsdb.fakes lsdb);
        (* A live controller owns every lie in the LSDB and re-stamps
           it each poll: no expiry lies beyond one TTL, or before the
           next refresh could be missed. *)
        if Fibbing.Controller.alive controller then begin
          let owned = Fibbing.Controller.fake_count controller
          and installed = Igp.Lsdb.fake_count lsdb in
          if owned <> installed then
            fail "the controller owns %d lies, the LSDB holds %d" owned
              installed;
          List.iter
            (fun (f : Igp.Lsa.fake) ->
              match Igp.Lsdb.fake_expiry lsdb ~fake_id:f.fake_id with
              | Some at when at > now +. lie_ttl +. 1e-9 ->
                fail "fake %s expires at %.1f, beyond one TTL" f.fake_id at
              | Some at when at < now +. lie_ttl -. poll_interval -. 1e-9 ->
                fail "fake %s expires at %.1f, not refreshed" f.fake_id at
              | Some _ -> ()
              | None -> fail "fake %s never expires" f.fake_id)
            (Igp.Lsdb.fakes lsdb)
        end
      in
      Netsim.Sim.on_step sim (fun _ -> check ());
      let next_flow = ref 0 in
      let failed = ref [] in
      let run op =
        let now = Netsim.Sim.time sim in
        match op with
        | Steps (n, surge) ->
          let duration = float_of_int n *. 0.5 in
          if surge then
            for _ = 0 to 30 do
              Netsim.Sim.add_flow sim
                (Netsim.Flow.make ~id:!next_flow ~src:d.a ~prefix:blue
                   ~demand:stream ~start_time:now ~duration ());
              incr next_flow
            done;
          Netsim.Sim.run_until sim (now +. duration)
        | Crash ->
          Fibbing.Controller.crash controller;
          held_until := neg_infinity
        | Restart ->
          (* A no-op while alive; a revival adopts or withdraws every
             surviving lie. *)
          Fibbing.Controller.restart controller ~time:now
        | Quarantine ->
          Fibbing.Controller.quarantine controller ~time:now ~prefix:blue
            ~reason:"test";
          if Fibbing.Controller.alive controller then
            held_until := now +. 12.
        | Withdraw_all ->
          Fibbing.Controller.withdraw_all controller;
          if Fibbing.Controller.fake_count controller <> 0 then
            fail "withdraw_all left %d owned lies"
              (Fibbing.Controller.fake_count controller);
          if
            Fibbing.Controller.alive controller
            && Igp.Lsdb.fake_count lsdb <> 0
          then fail "withdraw_all left %d lies" (Igp.Lsdb.fake_count lsdb)
        | Fail_link -> (
          match Igp.Lsdb.fakes lsdb with
          | [] -> ()
          | (f : Igp.Lsa.fake) :: _ ->
            let link = (f.attachment, f.forwarding) in
            Netsim.Sim.fail_link sim ~time:now link;
            failed := link :: !failed;
            Netsim.Sim.run_until sim (now +. 0.5))
        | Restore_link -> (
          match !failed with
          | [] -> ()
          | link :: rest ->
            Netsim.Sim.restore_link sim ~time:now link;
            failed := rest;
            Netsim.Sim.run_until sim (now +. 0.5))
      in
      (* Start from a steered network: a surge long enough to make the
         controller lie. *)
      List.iter
        (fun op ->
          run op;
          check ())
        (Steps (20, true) :: ops);
      match !errors with
      | [] -> true
      | errs -> QCheck.Test.fail_reportf "%s" (String.concat "\n" (List.rev errs)))

(* ---------- Scenario DSL fault hooks ---------- *)

let run_script text =
  let buffer = Buffer.create 256 in
  let out = Format.formatter_of_buffer buffer in
  match Scenarios.Script.run_string ~out text with
  | Ok () -> Buffer.contents buffer
  | Error message -> Alcotest.failf "script failed: %s" message

let test_script_fault_commands () =
  let output =
    run_script
      {|
topology demo
prefix blue at C
controller on
flows 5 from A to blue rate 131072 at 0 duration 30
fail B-R2 at 4
restore B-R2 at 8
crash R3 at 10
recover R3 at 14
blackout 2 at 16
flooding loss 0.2 at 18 duration 4 seed 3
controller crash at 20
controller restart at 24
run 30
report fakes
|}
  in
  Alcotest.(check bool) "script ran and reported" true
    (String.length output > 0)

let test_script_restore_unknown_link_is_noop () =
  (* Restoring a link that never failed must not blow up the run. *)
  let output =
    run_script
      {|
topology demo
prefix blue at C
controller off
flows 1 from A to blue rate 1000 at 0 duration 8
restore A-B at 2
run 10
report loads
|}
  in
  Alcotest.(check bool) "ran" true (String.length output > 0)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "chaos"
    [
      ( "lsdb-aging",
        [
          Alcotest.test_case "expiry basics" `Quick test_lsdb_expiry_basic;
          Alcotest.test_case "refresh extends" `Quick test_lsdb_refresh_extends_life;
          Alcotest.test_case "clear + clamp" `Quick test_lsdb_expiry_clear_and_clamp;
        ] );
      ( "flooding-loss",
        [
          Alcotest.test_case "drop=0 dispatches lossless" `Quick
            test_flooding_lossless_dispatch;
          Alcotest.test_case "lossy costs more" `Quick test_flooding_lossy_costs_more;
          Alcotest.test_case "deterministic" `Quick test_flooding_lossy_deterministic;
          Alcotest.test_case "validation" `Quick test_flooding_loss_validation;
        ] );
      ( "flooding-jitter",
        [
          Alcotest.test_case "rounds not messages" `Quick
            test_flooding_jitter_costs_rounds_not_messages;
          Alcotest.test_case "deterministic + validated" `Quick
            test_flooding_jitter_deterministic_and_validated;
        ] );
      ( "monitor-corruption",
        [ Alcotest.test_case "deterministic + validated" `Quick test_monitor_corruption ] );
      ( "fault-plans",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "validate rejects malformed" `Quick
            test_validate_rejects_malformed;
          Alcotest.test_case "partition rules" `Quick test_validate_partition_rules;
          Alcotest.test_case "partition cuts and heals" `Quick
            test_partition_inject_cuts_and_heals;
          Alcotest.test_case "new kinds drawn" `Quick test_random_plans_draw_new_kinds;
        ]
        @ qsuite [ prop_random_plans_validate ] );
      ( "watchdog",
        [
          Alcotest.test_case "quiet on a safe run" `Quick
            test_watchdog_quiet_on_safe_run;
          Alcotest.test_case "detects forced loop" `Quick
            test_watchdog_detects_forced_loop;
          Alcotest.test_case "forced loop text" `Quick test_forced_loop_text;
          Alcotest.test_case "budget + freshness" `Quick
            test_watchdog_budget_and_freshness;
          Alcotest.test_case "dangling lie" `Quick test_watchdog_dangling_lie;
          Alcotest.test_case "guard quarantines on the timeline" `Quick
            test_watchdog_guard_quarantines_on_timeline;
        ] );
      ( "lie-aging",
        [
          Alcotest.test_case "dead controller ages out" `Quick
            test_dead_controller_lies_age_out;
          Alcotest.test_case "live controller refreshes" `Quick
            test_live_controller_keeps_lies_alive;
          Alcotest.test_case "restart adopts survivors" `Quick
            test_restart_adopts_surviving_lies;
          Alcotest.test_case "restart withdraws dangling" `Quick
            test_restart_withdraws_dangling_lies;
          Alcotest.test_case "flushed lie drops its plan" `Quick
            test_flushed_lie_drops_its_plan;
          Alcotest.test_case "crash/restart idempotent" `Quick
            test_crash_restart_idempotent;
        ]
        @ qsuite [ prop_lie_lifecycle ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "rollback gated, seed 4111" `Quick
            (test_rollback_rechecks_safety 4111);
          Alcotest.test_case "rollback gated, seed 11648" `Quick
            (test_rollback_rechecks_safety 11648);
        ]
        @ qsuite [ prop_chaos_converges ] );
      ( "script-faults",
        [
          Alcotest.test_case "fault commands" `Quick test_script_fault_commands;
          Alcotest.test_case "restore unknown link" `Quick
            test_script_restore_unknown_link_is_noop;
        ] );
    ]
