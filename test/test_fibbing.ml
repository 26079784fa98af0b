let pfx = Igp.Prefix.v
(* Tests for the Fibbing core: requirements, splitting, augmentation
   compilation (one compiler; its two per-router outcomes, extension and
   override, are asserted through [compile]), verification, the merger,
   and the on-demand load-balancing controller. *)

module G = Netgraph.Graph
module T = Netgraph.Topologies
module R = Fibbing.Requirements
module A = Fibbing.Augmentation

let demo_net () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (d, net)

(* Even ECMP over [hops] at one router, the paper's intervention at B. *)
let even ~prefix ~router hops =
  let share = 1. /. float_of_int (List.length hops) in
  R.make ~prefix [ (router, List.map (fun h -> (h, share)) hops) ]

(* Lies currently installed for [prefix]. *)
let lies_for net prefix =
  List.filter
    (fun (f : Igp.Lsa.fake) -> Igp.Prefix.equal f.prefix prefix)
    (Igp.Network.fakes net)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let checkf = Alcotest.(check (float 1e-9))

(* ---------- Requirements ---------- *)

let test_requirements_validate_ok () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]) ] in
  Alcotest.(check bool) "valid" true (R.validate net reqs = Ok ())

let test_requirements_even () =
  let d, _ = demo_net () in
  let reqs = even ~prefix:(pfx "blue") ~router:d.b [ d.r2; d.r3 ] in
  match reqs.routers with
  | [ { splits; _ } ] -> checkf "half" 0.5 (List.hd splits).fraction
  | _ -> Alcotest.fail "one router expected"

let test_requirements_reject_non_neighbor () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.a, [ (d.c, 1.0) ]) ] in
  Alcotest.(check bool) "rejected" true (Result.is_error (R.validate net reqs))

let test_requirements_reject_bad_fractions () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r2, 0.5); (d.r3, 0.2) ]) ] in
  Alcotest.(check bool) "sum != 1 rejected" true (Result.is_error (R.validate net reqs))

let test_requirements_reject_announcer () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.c, [ (d.r2, 1.0) ]) ] in
  Alcotest.(check bool) "announcer rejected" true (Result.is_error (R.validate net reqs))

let test_requirements_reject_unknown_prefix () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "green") [ (d.b, [ (d.r2, 1.0) ]) ] in
  Alcotest.(check bool) "unknown prefix rejected" true
    (Result.is_error (R.validate net reqs))

let test_requirements_reject_duplicates () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r2, 1.0) ]); (d.b, [ (d.r3, 1.0) ]) ] in
  Alcotest.(check bool) "dup router rejected" true (Result.is_error (R.validate net reqs));
  let reqs2 = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r2, 0.5); (d.r2, 0.5) ]) ] in
  Alcotest.(check bool) "dup hop rejected" true (Result.is_error (R.validate net reqs2))

(* ---------- Splitting ---------- *)

let test_splitting_demo_ratio () =
  let d, _ = demo_net () in
  let splits =
    [
      { R.next_hop = d.b; fraction = 1. /. 3. };
      { R.next_hop = d.r1; fraction = 2. /. 3. };
    ]
  in
  Alcotest.(check (list (pair int int))) "1:2" [ (d.b, 1); (d.r1, 2) ]
    (Fibbing.Splitting.multiplicities ~max_entries:4 splits);
  checkf "exact" 0.
    (Fibbing.Splitting.approximation_error splits [ (d.b, 1); (d.r1, 2) ])

let test_splitting_error_metric () =
  let d, _ = demo_net () in
  let splits =
    [ { R.next_hop = d.b; fraction = 0.4 }; { R.next_hop = d.r1; fraction = 0.6 } ]
  in
  checkf "error vs 50/50" 0.1
    (Fibbing.Splitting.approximation_error splits [ (d.b, 1); (d.r1, 1) ])

(* ---------- Augmentation: the extension outcome of compile ---------- *)

let test_extension_reproduces_demo_fakes () =
  (* B needs {R2, R3} even: one fake at cost 2 (the paper's fB); A needs
     1/3-2/3: two fakes at cost 3 (the paper's two fA). *)
  let d, net = demo_net () in
  let reqs =
    R.make ~prefix:(pfx "blue")
      [
        (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
        (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
      ]
  in
  let plan = ok_exn (A.compile ~max_entries:4 net reqs) in
  Alcotest.(check int) "three fakes" 3 (A.fake_count plan);
  Alcotest.(check (list (pair int int))) "both at their SPF cost"
    [ (d.b, 2); (d.a, 3) ] plan.costs;
  (match List.filter (fun (f : Igp.Lsa.fake) -> f.attachment = d.b) plan.fakes with
  | [ f ] ->
    Alcotest.(check int) "fB cost 2" 2 (Igp.Lsa.total_cost f);
    Alcotest.(check int) "fB resolves to R3" d.r3 f.forwarding
  | _ -> Alcotest.fail "exactly one fake at B");
  let at_a = List.filter (fun (f : Igp.Lsa.fake) -> f.attachment = d.a) plan.fakes in
  Alcotest.(check int) "two fakes at A" 2 (List.length at_a);
  List.iter
    (fun (f : Igp.Lsa.fake) ->
      Alcotest.(check int) "fA cost 3" 3 (Igp.Lsa.total_cost f);
      Alcotest.(check int) "fA resolves to R1" d.r1 f.forwarding)
    at_a

let test_extension_apply_changes_fibs () =
  let d, net = demo_net () in
  let reqs = even ~prefix:(pfx "blue") ~router:d.b [ d.r2; d.r3 ] in
  let plan = ok_exn (A.compile net reqs) in
  A.apply net plan;
  let fib = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "ECMP installed" [ d.r2; d.r3 ] (Igp.Fib.next_hops fib);
  List.iter
    (fun (f : Igp.Lsa.fake) -> Igp.Network.retract_fake net ~fake_id:f.fake_id)
    plan.fakes;
  Alcotest.(check int) "every fake retracted" 0
    (Igp.Lsdb.fake_count (Igp.Network.lsdb net));
  let fib = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "reverted" [ d.r2 ] (Igp.Fib.next_hops fib)

let test_extension_cannot_remove_next_hop () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r3, 1.0) ]) ] in
  (* Fakes at B's SPF cost 2 would keep R2; dropping it forces B below. *)
  let plan = ok_exn (A.compile net reqs) in
  Alcotest.(check int) "B overridden at cost 1" 1 (List.assoc d.b plan.costs)

let test_extension_requires_clean_state () =
  let d, net = demo_net () in
  let reqs = even ~prefix:(pfx "blue") ~router:d.b [ d.r2; d.r3 ] in
  let plan = ok_exn (A.compile net reqs) in
  A.apply net plan;
  match A.compile net reqs with
  | Ok _ -> Alcotest.fail "second compile accepted"
  | Error e ->
    Alcotest.(check string) "second compile rejected"
      "B already has fake routes for blue; retract them first" e

(* ---------- Augmentation: the override outcome of compile ---------- *)

let test_override_replaces_next_hop () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r3, 1.0) ]) ] in
  let plan = ok_exn (A.compile net reqs) in
  A.apply net plan;
  let fib = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "only R3" [ d.r3 ] (Igp.Fib.next_hops fib);
  Alcotest.(check bool) "cheaper than 2" true (fib.distance < 2)

let test_override_costs_below_current () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.a, [ (d.r1, 1.0) ]) ] in
  let plan = ok_exn (A.compile net reqs) in
  Alcotest.(check (list (pair int int))) "cost = D(A)-1 = 2" [ (d.a, 2) ] plan.costs

let test_override_uneven () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r2, 0.25); (d.r3, 0.75) ]) ] in
  let plan = ok_exn (A.compile net reqs) in
  A.apply net plan;
  let fib = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list (pair int int))) "1:3" [ (d.r2, 1); (d.r3, 3) ]
    (Igp.Fib.weights fib);
  (* B keeps R2 as a next hop, so it stays at its SPF cost and the real
     route supplies R2's unit: 3 fakes, not 4. *)
  Alcotest.(check int) "three fakes" 3 (A.fake_count plan);
  Alcotest.(check (list (pair int int))) "at cost 2" [ (d.b, 2) ] plan.costs

(* ---------- Augmentation: compile (verified end-to-end) ---------- *)

let test_compile_demo_full () =
  let d, net = demo_net () in
  let reqs =
    R.make ~prefix:(pfx "blue")
      [
        (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
        (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
      ]
  in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let plan = ok_exn (A.compile ~max_entries:4 net reqs) in
  A.apply net plan;
  let report =
    Fibbing.Verify.check net ~prefix:(pfx "blue") ~expected:plan.expected ~baseline
  in
  Alcotest.(check bool) "verifies" true report.ok

let test_compile_falls_back_to_override () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r3, 1.0) ]) ] in
  let plan = ok_exn (A.compile net reqs) in
  Alcotest.(check int) "below B's SPF cost" 1 (List.assoc d.b plan.costs);
  A.apply net plan;
  let fib = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "requirement met" [ d.r3 ] (Igp.Fib.next_hops fib)

let test_compile_is_surgical () =
  let d, net = demo_net () in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r3, 1.0) ]) ] in
  let plan = ok_exn (A.compile net reqs) in
  A.apply net plan;
  List.iter
    (fun (router, before) ->
      if router <> d.b then begin
        match Igp.Network.fib net ~router (pfx "blue") with
        | Some after ->
          Alcotest.(check bool)
            (Printf.sprintf "%s untouched" (G.name d.graph router))
            true
            (Igp.Fib.equal_forwarding before after)
        | None -> Alcotest.fail "lost reachability"
      end)
    baseline

let test_compile_repairs_collateral () =
  (* Forcing R3 to forward via B needs a cost-1 lie at R3, whose
     equal-cost echo would capture B (and transitively A and R1); the
     repair loop must pin them so only R3's forwarding changes. *)
  let d, net = demo_net () in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.r3, [ (d.b, 1.0) ]) ] in
  match A.compile net reqs with
  | Error e -> Alcotest.failf "expected repair to succeed: %s" e
  | Ok plan ->
    A.apply net plan;
    let fib_r3 = Option.get (Igp.Network.fib net ~router:d.r3 (pfx "blue")) in
    Alcotest.(check (list int)) "R3 via B" [ d.b ] (Igp.Fib.next_hops fib_r3);
    List.iter
      (fun (router, before) ->
        if router <> d.r3 then begin
          match Igp.Network.fib net ~router (pfx "blue") with
          | Some after ->
            Alcotest.(check bool)
              (Printf.sprintf "%s preserved" (G.name d.graph router))
              true
              (Igp.Fib.equal_forwarding before after)
          | None -> Alcotest.fail "lost reachability"
        end)
      baseline;
    Alcotest.(check bool) "some router was pinned" true (plan.pinned <> [])

let test_compile_reports_impossible_undercut () =
  (* R2 reaches the prefix at cost 1; no positive-cost lie can undercut
     it, so forcing R2 away from C must fail with an explanation, never
     silently misroute. *)
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.r2, [ (d.b, 1.0) ]) ] in
  match A.compile net reqs with
  | Error e -> Alcotest.(check bool) "explains" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "cost-1 undercut should be impossible"

let test_compile_rejects_invalid () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.a, [ (d.c, 1.0) ]) ] in
  Alcotest.(check bool) "invalid requirements" true (Result.is_error (A.compile net reqs))

(* Property: on random topologies, a random even-ECMP requirement over
   downhill neighbors either fails loudly or yields a verified plan. *)
let prop_compile_verified_on_random =
  QCheck.Test.make ~name:"compile verifies on random nets" ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 6 16))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = T.random prng ~n ~extra_edges:n ~max_weight:3 in
      let announcer = Kit.Prng.int prng n in
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:announcer ~cost:0;
      let router =
        let r = ref (Kit.Prng.int prng n) in
        while !r = announcer do
          r := Kit.Prng.int prng n
        done;
        !r
      in
      let neighbors = List.map fst (G.succ g router) in
      let dist v = Igp.Network.distance net ~router:v (pfx "p") in
      match dist router with
      | None -> true
      | Some d_r ->
        let safe =
          List.filter
            (fun v -> match dist v with Some dv -> dv < d_r | None -> false)
            neighbors
        in
        if safe = [] then true
        else begin
          let chosen = List.filteri (fun i _ -> i < 3) (List.sort_uniq compare safe) in
          let reqs = even ~prefix:(pfx "p") ~router chosen in
          let baseline = Igp.Network.fibs net (pfx "p") in
          match A.compile net reqs with
          | Error _ -> true (* honest failure is acceptable *)
          | Ok plan ->
            A.apply net plan;
            (Fibbing.Verify.check net ~prefix:(pfx "p") ~expected:plan.expected
               ~baseline)
              .ok
        end)

(* ---------- Merger ---------- *)

let test_merger_keeps_needed_fake () =
  let d, net = demo_net () in
  let reqs = even ~prefix:(pfx "blue") ~router:d.b [ d.r2; d.r3 ] in
  let plan = ok_exn (A.compile net reqs) in
  let minimized = Fibbing.Merger.minimize net reqs plan in
  Alcotest.(check int) "still one fake" 1 (A.fake_count minimized);
  Alcotest.(check int) "saved none" (A.fake_count plan) (A.fake_count minimized)

let test_merger_preserves_verification () =
  let d, net = demo_net () in
  let reqs =
    R.make ~prefix:(pfx "blue")
      [
        (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
        (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
      ]
  in
  let plan = ok_exn (A.compile ~max_entries:4 net reqs) in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let minimized = Fibbing.Merger.minimize net reqs plan in
  A.apply net minimized;
  let report =
    Fibbing.Verify.check net ~prefix:(pfx "blue") ~expected:minimized.expected ~baseline
  in
  Alcotest.(check bool) "still verifies" true report.ok;
  Alcotest.(check int) "three fakes kept (ratios need them)" 3
    (A.fake_count minimized)

let test_merger_drops_inert_fake () =
  let d, net = demo_net () in
  let reqs = even ~prefix:(pfx "blue") ~router:d.b [ d.r2; d.r3 ] in
  let plan = ok_exn (A.compile net reqs) in
  let inert : Igp.Lsa.fake =
    {
      fake_id = "inert";
      attachment = d.b;
      attachment_cost = 1;
      prefix = pfx "blue";
      announced_cost = 50;
      forwarding = d.r3;
    }
  in
  let padded = { plan with fakes = plan.fakes @ [ inert ] } in
  let minimized = Fibbing.Merger.minimize net reqs padded in
  Alcotest.(check int) "inert fake dropped" 1 (A.fake_count minimized);
  Alcotest.(check int) "saved one" 1
    (A.fake_count padded - A.fake_count minimized)

(* ---------- Verify ---------- *)

let test_verify_detects_requirement_miss () =
  let d, net = demo_net () in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let report =
    Fibbing.Verify.check net ~prefix:(pfx "blue")
      ~expected:[ (d.b, [ (d.r2, 1); (d.r3, 1) ]) ]
      ~baseline
  in
  Alcotest.(check bool) "not ok" false report.ok;
  Alcotest.(check bool) "requirement issue" true
    (List.exists (fun (i : Fibbing.Verify.issue) -> i.kind = `Requirement) report.issues)

let test_verify_detects_collateral () =
  let d, net = demo_net () in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  Igp.Network.inject_fake net
    {
      fake_id = "rogue";
      attachment = d.r2;
      attachment_cost = 1;
      prefix = pfx "blue";
      announced_cost = 0;
      forwarding = d.b;
    };
  let report = Fibbing.Verify.check net ~prefix:(pfx "blue") ~expected:[] ~baseline in
  Alcotest.(check bool) "not ok" false report.ok;
  Alcotest.(check bool) "collateral flagged" true
    (List.exists (fun (i : Fibbing.Verify.issue) -> i.kind = `Collateral) report.issues)

let test_verify_ok_baseline () =
  let _, net = demo_net () in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let report = Fibbing.Verify.check net ~prefix:(pfx "blue") ~expected:[] ~baseline in
  Alcotest.(check bool) "trivially ok" true report.ok

(* ---------- Controller ---------- *)

let stream = 131072.

let controller_sim ?config () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  let caps = Netsim.Link.capacities ~default:(11. *. 1024. *. 1024.) in
  List.iter
    (fun link -> Netsim.Link.set_link caps link (2.75 *. 1024. *. 1024.))
    [ (d.a, d.r1); (d.b, d.r2); (d.b, d.r3) ];
  let monitor =
    Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85 ~clear_threshold:0.6
      ~alpha:0.8 caps
  in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
  let controller = Fibbing.Controller.create ?config net in
  Fibbing.Controller.attach controller sim;
  (d, net, sim, controller)

let test_controller_reacts_to_surge () =
  let d, net, sim, controller = controller_sim () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 10.;
  Alcotest.(check bool) "installed fakes" true
    (Fibbing.Controller.fake_count controller > 0);
  Alcotest.(check bool) "actions logged" true (Fibbing.Controller.actions controller <> []);
  let fib_b = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "B ECMP" [ d.r2; d.r3 ] (Igp.Fib.next_hops fib_b)

let test_controller_idle_when_uncongested () =
  let d, _, sim, controller = controller_sim () in
  Netsim.Sim.add_flow sim
    (Netsim.Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:stream ());
  Netsim.Sim.run_until sim 10.;
  Alcotest.(check int) "no lies" 0 (Fibbing.Controller.fake_count controller);
  Alcotest.(check bool) "no actions" true (Fibbing.Controller.actions controller = [])

let test_controller_withdraws_after_calm () =
  let config =
    { Fibbing.Controller.default_config with relax_after = 6.; cooldown = 2. }
  in
  let d, _, sim, controller = controller_sim ~config () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ~duration:15. ())
  done;
  Netsim.Sim.run_until sim 12.;
  Alcotest.(check bool) "lies installed during surge" true
    (Fibbing.Controller.fake_count controller > 0);
  Netsim.Sim.run_until sim 40.;
  Alcotest.(check int) "lies withdrawn after calm" 0
    (Fibbing.Controller.fake_count controller)

let test_controller_requirements_exposed () =
  let d, net, sim, _ = controller_sim () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 10.;
  Alcotest.(check bool) "lies installed for blue" true (lies_for net (pfx "blue") <> [])

let test_controller_handles_anycast_prefix () =
  (* blue announced at both C and R4: the availability computation must
     credit candidate paths towards either egress, and the controller
     must still defuse a surge without touching the anycast routing. *)
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.r4 ~cost:0;
  let caps = Netsim.Link.capacities ~default:(11. *. 1024. *. 1024.) in
  List.iter
    (fun link -> Netsim.Link.set_link caps link (2.75 *. 1024. *. 1024.))
    [ (d.a, d.r1); (d.b, d.r2); (d.b, d.r3) ];
  let monitor =
    Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85 ~clear_threshold:0.6
      ~alpha:0.8 caps
  in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
  let controller = Fibbing.Controller.create net in
  Fibbing.Controller.attach controller sim;
  (* With anycast, A already splits {B, R1}; a 50-stream crowd from B
     saturates B-R2 and must trigger ECMP towards R3. *)
  for i = 0 to 49 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.b ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 20.;
  Alcotest.(check bool) "reacted" true
    (Fibbing.Controller.fake_count controller > 0);
  let fib_b = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "B spread over R2 and R3" [ d.r2; d.r3 ]
    (Igp.Fib.next_hops fib_b);
  Alcotest.(check (list int)) "no starved flows" []
    (Netsim.Sim.unroutable_flows sim);
  (* Forwarding state stays safe under anycast. *)
  Alcotest.(check bool) "state safe" true
    (Igp.Safety.state_safe net ~prefix:(pfx "blue") = Ok ())

let test_controller_escalates_upstream () =
  (* The paper's second surge: B exhausted, the fix must land at A. *)
  let d, net, sim, controller = controller_sim () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done;
  for i = 31 to 61 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.b ~prefix:(pfx "blue") ~demand:stream
         ~start_time:15. ())
  done;
  Netsim.Sim.run_until sim 30.;
  ignore controller;
  let fib_a = Option.get (Igp.Network.fib net ~router:d.a (pfx "blue")) in
  Alcotest.(check (list int)) "A now splits to B and R1" [ d.b; d.r1 ]
    (Igp.Fib.next_hops fib_a);
  (* and R1 gets the larger share *)
  let fractions = Igp.Fib.fractions fib_a in
  Alcotest.(check bool) "R1 gets more" true
    (List.assoc d.r1 fractions > List.assoc d.b fractions)

let test_controller_withdraw_all_then_fresh_cycle () =
  (* withdraw_all is a clean slate, not a shutdown: under continued
     congestion the next poll cycle reacts again from scratch. *)
  let config = { Fibbing.Controller.default_config with cooldown = 2. } in
  let d, net, sim, controller = controller_sim ~config () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 10.;
  Alcotest.(check bool) "lies installed" true
    (Fibbing.Controller.fake_count controller > 0);
  Fibbing.Controller.withdraw_all controller;
  Alcotest.(check int) "all withdrawn" 0 (Fibbing.Controller.fake_count controller);
  Alcotest.(check int) "LSDB agrees" 0
    (Igp.Lsdb.fake_count (Igp.Network.lsdb net));
  Alcotest.(check bool) "no lies left for blue" true (lies_for net (pfx "blue") = []);
  (* The congestion has not gone anywhere: the controller must lie again. *)
  Netsim.Sim.run_until sim 25.;
  Alcotest.(check bool) "fresh reaction cycle" true
    (Fibbing.Controller.fake_count controller > 0);
  Alcotest.(check bool) "fresh lies for blue" true (lies_for net (pfx "blue") <> [])

let test_controller_withdraws_when_monitor_goes_silent () =
  (* The calm detector must treat a silent monitor as calm: if every
     sample disappears (SNMP blackout) right when the surge ends, the
     lies still come out after relax_after. *)
  let config =
    { Fibbing.Controller.default_config with relax_after = 6.; cooldown = 2. }
  in
  let d, net, sim, controller = controller_sim ~config () in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ~duration:15. ())
  done;
  Netsim.Sim.run_until sim 12.;
  Alcotest.(check bool) "lies installed during surge" true
    (Fibbing.Controller.fake_count controller > 0);
  (match Netsim.Sim.monitor sim with
  | Some m -> Netsim.Monitor.mute m ~until:1e9
  | None -> Alcotest.fail "sim has a monitor");
  Netsim.Sim.run_until sim 40.;
  Alcotest.(check int) "lies withdrawn despite silence" 0
    (Fibbing.Controller.fake_count controller);
  Alcotest.(check int) "LSDB clean" 0 (Igp.Lsdb.fake_count (Igp.Network.lsdb net))

let test_controller_backs_off_when_ineffective () =
  (* A line topology has no alternate path: every reaction is free to
     act but can change nothing, so the backoff must kick in and the
     reaction rate must fall well below the poll rate. *)
  let g = Topo.line ~n:3 in
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net (pfx "sink") ~origin:2 ~cost:0;
  let caps = Netsim.Link.capacities ~default:10. in
  let monitor =
    Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85 ~clear_threshold:0.6
      ~alpha:1.0 caps
  in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
  let config =
    { Fibbing.Controller.default_config with cooldown = 2.; max_backoff = 16. }
  in
  let controller = Fibbing.Controller.create ~config net in
  Fibbing.Controller.attach controller sim;
  (* Permanent unfixable overload on the only path. *)
  Netsim.Sim.add_flow sim
    (Netsim.Flow.make ~id:0 ~src:0 ~prefix:(pfx "sink") ~demand:20. ());
  Netsim.Sim.run_until sim 60.;
  let polls = int_of_float (60. /. 2.) in
  Alcotest.(check bool)
    (Printf.sprintf "reactions (%d) rate-limited well below polls (%d)"
       (List.length (Fibbing.Controller.actions controller))
       polls)
    true
    (List.length (Fibbing.Controller.actions controller) < polls / 2);
  Alcotest.(check int) "and no lies were installed" 0
    (Fibbing.Controller.fake_count controller)

(* ---------- Transient safety ---------- *)

let test_transient_baseline_safe () =
  let _, net = demo_net () in
  Alcotest.(check bool) "IGP state safe" true
    (Igp.Safety.state_safe net ~prefix:(pfx "blue") = Ok ())

let test_transient_detects_loop () =
  let d, net = demo_net () in
  (* Two mutually-attracting cheap lies: A -> B and B -> A. *)
  let cheap ~id ~at ~fwd : Igp.Lsa.fake =
    { fake_id = id; attachment = at; attachment_cost = 1; prefix = pfx "blue";
      announced_cost = 0; forwarding = fwd }
  in
  Igp.Network.inject_fake net (cheap ~id:"l1" ~at:d.a ~fwd:d.b);
  Igp.Network.inject_fake net (cheap ~id:"l2" ~at:d.b ~fwd:d.a);
  match Igp.Safety.state_safe net ~prefix:(pfx "blue") with
  | Error reason ->
    Alcotest.(check bool) "mentions loop" true
      (String.length reason > 0)
  | Ok () -> Alcotest.fail "loop not detected"

(* The pinning scenario: R3 -> B override plus pins at B, A, R1.
   Installing R3's lie FIRST loops (R3 points to B while B still points
   through R2... actually B is captured by R3's cheap lie and forwards
   to R3 -> loop). check_order must flag it; safe_order must find a
   pin-first order; apply_safely must leave a verified state. *)
let r3_via_b_plan net =
  let reqs =
    Fibbing.Requirements.make ~prefix:(pfx "blue")
      [ (Netgraph.Graph.find_node_exn (Igp.Network.graph net) "R3",
         [ (Netgraph.Graph.find_node_exn (Igp.Network.graph net) "B", 1.0) ]) ]
  in
  match A.compile net reqs with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "compile failed: %s" e

let test_transient_unsafe_order_flagged () =
  let _, net = demo_net () in
  let plan = r3_via_b_plan net in
  (* Order the R3 lie first: B (not yet pinned) is captured by it and
     forwards towards R3 while R3 forwards to B. *)
  let r3_first =
    List.sort
      (fun (a : Igp.Lsa.fake) (b : Igp.Lsa.fake) ->
        let key (f : Igp.Lsa.fake) =
          if String.length f.fake_id >= 2 && String.sub f.fake_id 0 2 = "fi" then 0 else 1
        in
        ignore (key a, key b);
        (* R3's fake forwards to B; pins forward elsewhere. Put R3's first. *)
        compare
          (b.forwarding = Netgraph.Graph.find_node_exn (Igp.Network.graph net) "B",
           b.fake_id)
          (a.forwarding = Netgraph.Graph.find_node_exn (Igp.Network.graph net) "B",
           a.fake_id))
      plan.fakes
  in
  match Fibbing.Transient.check_order net ~prefix:(pfx "blue") r3_first with
  | Error v ->
    Alcotest.(check bool) "violation at an early step" true (v.step >= 1)
  | Ok () ->
    (* If even this order is safe, the transient checker must agree with
       a full simulation — acceptable but unexpected; flag it. *)
    Alcotest.fail "expected the R3-first order to be transiently unsafe"

let test_transient_safe_order_found () =
  let _, net = demo_net () in
  let plan = r3_via_b_plan net in
  match Fibbing.Transient.safe_order net plan with
  | Error e -> Alcotest.failf "no safe order: %s" e
  | Ok order ->
    Alcotest.(check int) "all fakes ordered" (List.length plan.fakes)
      (List.length order);
    Alcotest.(check bool) "order verifies step by step" true
      (Fibbing.Transient.check_order net ~prefix:(pfx "blue") order = Ok ())

let test_transient_apply_and_revert_safely () =
  let d, net = demo_net () in
  let baseline = Igp.Network.fibs net (pfx "blue") in
  let plan = r3_via_b_plan net in
  (match Fibbing.Transient.apply_safely net plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply_safely: %s" e);
  let fib_r3 = Option.get (Igp.Network.fib net ~router:d.r3 (pfx "blue")) in
  Alcotest.(check (list int)) "requirement holds" [ d.b ] (Igp.Fib.next_hops fib_r3);
  (match Fibbing.Transient.revert_safely net plan with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "revert_safely: %s" e);
  Alcotest.(check int) "all lies gone" 0 (List.length (Igp.Network.fakes net));
  let report = Fibbing.Verify.check net ~prefix:(pfx "blue") ~expected:[] ~baseline in
  Alcotest.(check bool) "back to baseline" true report.ok

let test_transient_safe_removal_order_found () =
  let _, net = demo_net () in
  let plan = r3_via_b_plan net in
  (match Fibbing.Transient.apply_safely net plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply_safely: %s" e);
  let scratch = Igp.Network.clone net in
  match Fibbing.Transient.revert_safely net plan with
  | Error e -> Alcotest.failf "no safe removal order: %s" e
  | Ok order ->
    Alcotest.(check int) "all fakes ordered" (List.length plan.fakes)
      (List.length order);
    Alcotest.(check int) "everything retracted" 0
      (List.length (Igp.Network.fakes net));
    (* Replay the removal on a clone of the installed state, checking
       safety after every single retraction — each intermediate state
       carries a suffix of the lie and must neither loop nor blackhole. *)
    List.iter
      (fun (f : Igp.Lsa.fake) ->
        Igp.Network.retract_fake scratch ~fake_id:f.fake_id;
        match Igp.Safety.state_safe scratch ~prefix:(pfx "blue") with
        | Ok () -> ()
        | Error reason ->
          Alcotest.failf "unsafe after retracting %s: %s" f.fake_id reason)
      order;
    Alcotest.(check int) "replay retracts everything" 0
      (List.length (Igp.Network.fakes scratch))

let test_transient_removal_rejects_unsafe_start () =
  (* When the installed state is already broken (extra loop-forming lies
     the plan does not know about), no removal order of the plan's own
     fakes starts from a safe state — the search must report it, not
     fabricate an order. *)
  let d, net = demo_net () in
  let plan = r3_via_b_plan net in
  Fibbing.Augmentation.apply net plan;
  let cheap ~id ~at ~fwd : Igp.Lsa.fake =
    { fake_id = id; attachment = at; attachment_cost = 1; prefix = pfx "blue";
      announced_cost = 0; forwarding = fwd }
  in
  Igp.Network.inject_fake net (cheap ~id:"x1" ~at:d.a ~fwd:d.b);
  Igp.Network.inject_fake net (cheap ~id:"x2" ~at:d.b ~fwd:d.a);
  match Fibbing.Transient.revert_safely net plan with
  | Error _ ->
    Alcotest.(check int) "the plan stays installed" (A.fake_count plan + 2)
      (List.length (Igp.Network.fakes net))
  | Ok _ -> Alcotest.fail "expected the broken start state to be rejected"

(* Property: for every compiled single-router even-ECMP plan on random
   topologies, safe_order succeeds and its every prefix state is safe. *)
let prop_transient_safe_order_on_random =
  QCheck.Test.make ~name:"safe installation order exists" ~count:30
    QCheck.(pair (int_range 0 100000) (int_range 6 14))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = T.random prng ~n ~extra_edges:n ~max_weight:3 in
      let announcer = Kit.Prng.int prng n in
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:announcer ~cost:0;
      let router =
        let r = ref (Kit.Prng.int prng n) in
        while !r = announcer do
          r := Kit.Prng.int prng n
        done;
        !r
      in
      let dist v = Igp.Network.distance net ~router:v (pfx "p") in
      match dist router with
      | None -> true
      | Some d_r ->
        let safe =
          List.filter
            (fun (v, _) ->
              match dist v with Some dv -> dv < d_r | None -> false)
            (G.succ g router)
          |> List.map fst
        in
        if safe = [] then true
        else begin
          let reqs = even ~prefix:(pfx "p") ~router (List.filteri (fun i _ -> i < 3) safe) in
          match A.compile net reqs with
          | Error _ -> true
          | Ok plan ->
            (match Fibbing.Transient.safe_order net plan with
            | Ok order -> Fibbing.Transient.check_order net ~prefix:(pfx "p") order = Ok ()
            | Error _ -> false)
        end)

(* The mirror property: once a compiled plan is safely installed, a safe
   removal order exists and replaying it keeps every intermediate state
   safe down to the lie-free network. *)
let prop_transient_safe_removal_on_random =
  QCheck.Test.make ~name:"safe removal order exists" ~count:30
    QCheck.(pair (int_range 0 100000) (int_range 6 14))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = T.random prng ~n ~extra_edges:n ~max_weight:3 in
      let announcer = Kit.Prng.int prng n in
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:announcer ~cost:0;
      let router =
        let r = ref (Kit.Prng.int prng n) in
        while !r = announcer do
          r := Kit.Prng.int prng n
        done;
        !r
      in
      let dist v = Igp.Network.distance net ~router:v (pfx "p") in
      match dist router with
      | None -> true
      | Some d_r ->
        let safe =
          List.filter
            (fun (v, _) ->
              match dist v with Some dv -> dv < d_r | None -> false)
            (G.succ g router)
          |> List.map fst
        in
        if safe = [] then true
        else begin
          let reqs = even ~prefix:(pfx "p") ~router (List.filteri (fun i _ -> i < 3) safe) in
          match A.compile net reqs with
          | Error _ -> true
          | Ok plan ->
            (match Fibbing.Transient.apply_safely net plan with
            | Error _ -> true
            | Ok () ->
              let scratch = Igp.Network.clone net in
              (match Fibbing.Transient.revert_safely net plan with
              | Error e ->
                QCheck.Test.fail_reportf "no removal order (seed %d): %s" seed e
              | Ok order ->
                List.for_all
                  (fun (f : Igp.Lsa.fake) ->
                    Igp.Network.retract_fake scratch ~fake_id:f.fake_id;
                    Igp.Safety.state_safe scratch ~prefix:(pfx "p") = Ok ())
                  order
                && Igp.Network.fakes scratch = []
                && lies_for net (pfx "p") = []))
        end)

(* ---------- Audit ---------- *)

let test_audit_empty () =
  let _, net = demo_net () in
  let audit = Fibbing.Audit.run net in
  Alcotest.(check int) "no fakes" 0 audit.total_fakes;
  Alcotest.(check int) "no bytes" 0 audit.wire_bytes;
  Alcotest.(check (list string)) "no prefixes" [] (List.map Igp.Prefix.to_string audit.prefixes)

let test_audit_roundtrips_demo_plan () =
  let d, net = demo_net () in
  let reqs =
    R.make ~prefix:(pfx "blue")
      [
        (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
        (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
      ]
  in
  let plan = ok_exn (A.compile ~max_entries:4 net reqs) in
  A.apply net plan;
  let audit = Fibbing.Audit.run net in
  Alcotest.(check int) "three fakes" 3 audit.total_fakes;
  Alcotest.(check (list string)) "one prefix" [ "blue" ] (List.map Igp.Prefix.to_string audit.prefixes);
  Alcotest.(check bool) "LSDB overhead accounted" true (audit.wire_bytes > 0);
  (* The audit recovers the plan's expected weights at each router. *)
  List.iter
    (fun (router, expected_weights) ->
      match
        List.find_opt
          (fun (ra : Fibbing.Audit.router_audit) -> ra.router = router)
          audit.per_router
      with
      | Some ra ->
        Alcotest.(check (list (pair int int))) "weights recovered"
          (List.sort compare expected_weights)
          (List.sort compare ra.weights);
        Alcotest.(check bool) "extension detected" true
          (ra.mode = Fibbing.Audit.Extends)
      | None -> Alcotest.fail "router missing from audit")
    plan.expected

let test_audit_detects_override () =
  let d, net = demo_net () in
  let reqs = R.make ~prefix:(pfx "blue") [ (d.b, [ (d.r3, 1.0) ]) ] in
  let plan = ok_exn (A.compile net reqs) in
  A.apply net plan;
  let audit = Fibbing.Audit.run net in
  match
    List.find_opt
      (fun (ra : Fibbing.Audit.router_audit) -> ra.router = d.b)
      audit.per_router
  with
  | Some ra ->
    Alcotest.(check bool) "override detected" true
      (ra.mode = Fibbing.Audit.Overrides);
    Alcotest.(check bool) "lied below honest" true
      (ra.lied_distance < ra.honest_distance)
  | None -> Alcotest.fail "B missing from audit"

(* Property: whatever the controller does under random surges, the
   forwarding state it leaves after every poll is loop- and
   blackhole-free. This is the live-network version of the transient
   guarantees. *)
let prop_controller_keeps_state_safe =
  QCheck.Test.make ~name:"controller never leaves unsafe state" ~count:15
    QCheck.(pair (int_range 0 100000) (int_range 6 12))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = T.random prng ~n ~extra_edges:n ~max_weight:3 in
      let announcer = Kit.Prng.int prng n in
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:announcer ~cost:0;
      let caps = Netsim.Link.capacities ~default:10. in
      let monitor = Netsim.Monitor.create ~poll_interval:2.0 ~alpha:0.9 caps in
      let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
      let controller = Fibbing.Controller.create net in
      Fibbing.Controller.attach controller sim;
      let safe = ref true in
      Netsim.Sim.on_step sim (fun _ ->
          if Igp.Safety.state_safe net ~prefix:(pfx "p") <> Ok () then
            safe := false);
      (* A surge of random flows from random ingresses. *)
      let flow_count = 5 + Kit.Prng.int prng 15 in
      for i = 0 to flow_count - 1 do
        let src =
          let s = ref (Kit.Prng.int prng n) in
          while !s = announcer do
            s := Kit.Prng.int prng n
          done;
          !s
        in
        Netsim.Sim.add_flow sim
          (Netsim.Flow.make ~id:i ~src ~prefix:(pfx "p")
             ~demand:(2. +. Kit.Prng.float prng 6.)
             ~start_time:(Kit.Prng.float prng 10.) ())
      done;
      Netsim.Sim.run_until sim 25.;
      !safe)

(* ---------- Demand matrix vs the per-stream oracle ---------- *)

module D = Fibbing.Demand

let ghost = pfx "dm-ghost" (* announced nowhere: its streams stay unroutable *)
let dm_prefixes = [ pfx "dm-a"; pfx "dm-b"; ghost ]

(* A 3x3 unit grid: corners have several equal-cost paths, so hashing
   spreads one source's streams over several classes. dm-a sits at the
   far corner, dm-b is anycast at the two other corners. *)
let grid_net () =
  let g = T.grid ~rows:3 ~cols:3 in
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net (pfx "dm-a") ~origin:8 ~cost:0;
  Igp.Network.announce_prefix net (pfx "dm-b") ~origin:2 ~cost:0;
  Igp.Network.announce_prefix net (pfx "dm-b") ~origin:6 ~cost:1;
  (g, net)

(* Random streams: distinct ids in shuffled order (so start order is not
   id order), a few sources and a three-value demand palette (so classes
   have many members), staggered starts and stops (so classes lose their
   smallest member), some aimed at the ghost prefix. *)
let add_random_streams prng sim ~count ~palette ~sources ~prefixes =
  let ids = Array.init (3 * count) Fun.id in
  Kit.Prng.shuffle prng ids;
  for i = 0 to count - 1 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:ids.(i) ~src:(Kit.Prng.pick prng sources)
         ~prefix:(Kit.Prng.pick prng prefixes)
         ~demand:(Kit.Prng.pick prng palette)
         ~start_time:(0.5 *. float_of_int (Kit.Prng.int prng 5))
         ~duration:(Kit.Prng.pick prng [| 0.5; 1.; 2.; infinity; infinity |])
         ())
  done

(* Dyadic sums are exact in any order, so the view must match bit for
   bit. Otherwise both sides round (u = epsilon_float / 2, positive
   terms, exact sum S): the oracle adds n streams one at a time, within
   (n-1)u S; the view rounds each class product once and adds at most n
   of them, within n u S. So they differ by at most (2n-1)u S < n
   epsilon S to first order; (n+1) epsilon of the oracle's sum covers
   the second-order terms. *)
let same_sum ~dyadic ~n view oracle =
  if dyadic then Int64.equal (Int64.bits_of_float view) (Int64.bits_of_float oracle)
  else
    Float.abs (view -. oracle)
    <= float_of_int (n + 1) *. epsilon_float *. Float.abs oracle

let same_entries ~dyadic ~n view oracle =
  List.length view = List.length oracle
  && List.for_all2
       (fun (kv, v) (ko, o) -> kv = ko && same_sum ~dyadic ~n v o)
       view oracle

(* Keys must come out of [Hashtbl.fold] in the same order: that is the
   tie-break contract, not just the same contents. *)
let same_table ~dyadic ~n view oracle =
  let entries t = List.rev (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []) in
  same_entries ~dyadic ~n (entries view) (entries oracle)

let tables_agree ~dyadic sim =
  let m = Netsim.Sim.demand_matrix sim in
  let n = List.length (Netsim.Sim.active_flows sim) in
  let g = Igp.Network.graph (Netsim.Sim.network sim) in
  List.for_all
    (fun (u, v, _) ->
      same_table ~dyadic ~n (D.on_link m (u, v)) (Demand_oracle.on_link sim (u, v)))
    (G.edges g)
  && List.for_all
       (fun prefix ->
         List.for_all
           (fun via ->
             same_table ~dyadic ~n
               (D.foreign_loads m ~prefix ~via)
               (Demand_oracle.foreign_loads sim ~prefix ~via)
             && same_sum ~dyadic ~n
                  (D.through m ~prefix ~via)
                  (Demand_oracle.through sim ~prefix ~via)
             && same_table ~dyadic ~n
                  (D.inflow m ~prefix ~via)
                  (Demand_oracle.inflow sim ~prefix ~via)
             && same_entries ~dyadic ~n
                  (D.by_src m ~prefix ~except:via)
                  (Demand_oracle.by_src sim ~prefix ~except:via))
           (G.nodes g))
       dm_prefixes

(* Property: every table the controller derives from the demand matrix
   equals the per-stream scan it replaced, with aggregation on and off,
   under AIMD, with unroutable streams and with a link failure and
   restore re-hashing streams between classes — checked at every step. *)
let prop_demand_tables_match_oracle =
  QCheck.Test.make ~name:"demand tables match the per-stream oracle" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prng = Kit.Prng.create ~seed in
      let dyadic = Kit.Prng.bool prng in
      let aggregation = Kit.Prng.bool prng in
      let rate_model =
        if Kit.Prng.bool prng then Netsim.Sim.Aimd (Netsim.Aimd.create ())
        else Netsim.Sim.Max_min_fair
      in
      let g, net = grid_net () in
      let caps = Netsim.Link.capacities ~default:100. in
      let sim = Netsim.Sim.create ~dt:0.5 ~rate_model ~aggregation net caps in
      let palette =
        if dyadic then [| 1.; 0.5; 96. |]
        else Array.init 3 (fun _ -> 0.1 +. Kit.Prng.float prng 10.)
      in
      add_random_streams prng sim ~count:(1 + Kit.Prng.int prng 60) ~palette
        ~sources:[| 0; 1; 3; 4; 8 |]
        ~prefixes:(Array.of_list dm_prefixes);
      if Kit.Prng.bool prng then begin
        let u, v, _ = Kit.Prng.pick prng (Array.of_list (G.edges g)) in
        let time = 0.5 *. float_of_int (Kit.Prng.int prng 4) in
        Netsim.Sim.fail_link sim ~time (u, v);
        Netsim.Sim.restore_link sim ~time:(time +. 1.) (u, v)
      end;
      List.for_all
        (fun until ->
          Netsim.Sim.run_until sim until;
          tables_agree ~dyadic sim)
        [ 0.5; 1.; 1.5; 2.; 2.5; 3.; 3.5 ])

(* One controlled run on the grid. Demands are dyadic and capacities so
   large that no link saturates: every stream gets exactly its demand,
   so link rates — and with them the monitor's alarms — are bit-equal
   with aggregation on and off, and only the demand view differs. A low
   threshold still makes the busiest links hot. *)
let grid_reactions ~seed ~aggregation =
  let prng = Kit.Prng.create ~seed in
  let _, net = grid_net () in
  let caps = Netsim.Link.capacities ~default:(2. ** 26.) in
  let monitor =
    Netsim.Monitor.create ~poll_interval:1.0 ~threshold:0.004
      ~clear_threshold:0.002 ~alpha:1.0 caps
  in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor ~aggregation net caps in
  let strategy =
    if Kit.Prng.bool prng then Fibbing.Controller.Local_deflection
    else Fibbing.Controller.Global_optimal
  in
  let config =
    { Fibbing.Controller.default_config with cooldown = 2.; strategy }
  in
  (* The global strategy's input is the per-source demand; record it
     rather than run the TE pipeline on it. *)
  let global_inputs = ref [] in
  let reoptimize _ ~prefix ~capacities:_ ~demands ~egress =
    global_inputs := (prefix, demands, egress) :: !global_inputs;
    []
  in
  let controller = Fibbing.Controller.create ~config ~reoptimize net in
  Fibbing.Controller.attach controller sim;
  add_random_streams prng sim ~count:(10 + Kit.Prng.int prng 50)
    ~palette:[| 65536.; 131072.; 262144. |]
    ~sources:(Array.init 9 Fun.id)
    ~prefixes:[| pfx "dm-a"; pfx "dm-b"; pfx "dm-b"; ghost |];
  Netsim.Sim.run_until sim 12.;
  ( List.map
      (fun (a : Fibbing.Controller.action) -> (a.time, a.description, a.fakes_installed))
      (Fibbing.Controller.actions controller),
    List.rev !global_inputs,
    List.sort compare (Igp.Network.fakes net),
    Netsim.Sim.current_link_rates sim )

(* Property: with aggregation off the demand matrix has one entry per
   stream in id order, so the controller reads exactly what the
   per-stream scans read; with aggregation on it must still choose the
   same prefix, router and splits at every reaction. *)
let prop_reactions_independent_of_aggregation =
  QCheck.Test.make ~name:"reactions identical with aggregation on and off"
    ~count:100 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      grid_reactions ~seed ~aggregation:true
      = grid_reactions ~seed ~aggregation:false)

(* Two keys in the same bucket of a fresh [Hashtbl.create 4] (16
   buckets): only for such keys does insertion order decide which of
   two equal sums [Hashtbl.fold] meets first. *)
let same_bucket keys =
  let bucket k = Hashtbl.hash k land 15 in
  let rec go = function
    | k :: rest -> (
      match List.find_opt (fun k' -> bucket k' = bucket k) rest with
      | Some k' -> (k, k')
      | None -> go rest)
    | [] -> Alcotest.fail "no two keys share a bucket"
  in
  go keys

(* The pick a tie would get if the keys had been inserted the other way
   round. The tie tests assert it differs, so they really pin the
   order contract. *)
let heaviest_reversed table =
  let swapped = Hashtbl.create 4 in
  Hashtbl.iter (fun k v -> Hashtbl.replace swapped k v) table;
  Demand_oracle.heaviest swapped

let tie_flows sim ~early ~late =
  (* [early] carries two streams with large ids from t = 0 (its class is
     created first); [late] one stream of twice the demand and the
     smallest id from t = 0.5. Equal sums; [late] holds the smallest
     member id. *)
  List.iter (Netsim.Sim.add_flow sim)
    [
      Netsim.Flow.make ~id:10 ~src:(fst early) ~prefix:(snd early) ~demand:4. ();
      Netsim.Flow.make ~id:11 ~src:(fst early) ~prefix:(snd early) ~demand:4. ();
      Netsim.Flow.make ~id:1 ~src:(fst late) ~prefix:(snd late) ~demand:8.
        ~start_time:0.5 ();
    ]

let tie_sim net =
  let caps = Netsim.Link.capacities ~default:1000. in
  let monitor =
    Netsim.Monitor.create ~poll_interval:1.0 ~threshold:0.85 ~clear_threshold:0.6
      ~alpha:1.0 caps
  in
  (caps, Netsim.Sim.create ~dt:0.5 ~monitor net caps)

let test_tie_dominant_prefix () =
  (* X-Y is the alarm link (capacity 10, offered 16); X can deflect via
     W. Prefixes p and q, both at Y, offer 8 each on X-Y. *)
  let p, q = same_bucket (List.init 40 (fun i -> pfx (Printf.sprintf "tie%d" i))) in
  let g = G.create () in
  let x = G.add_node g ~name:"X" and w = G.add_node g ~name:"W" in
  let y = G.add_node g ~name:"Y" in
  G.add_link g x y ~weight:2;
  G.add_link g x w ~weight:1;
  G.add_link g w y ~weight:2;
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net p ~origin:y ~cost:0;
  Igp.Network.announce_prefix net q ~origin:y ~cost:0;
  let caps, sim = tie_sim net in
  Netsim.Link.set_link caps (x, y) 10.;
  let oracle = ref None in
  Netsim.Sim.on_poll sim (fun sim _ ->
      let table = Demand_oracle.on_link sim (x, y) in
      if !oracle = None && Hashtbl.length table = 2 then
        oracle := Some (Demand_oracle.heaviest table, heaviest_reversed table));
  let controller = Fibbing.Controller.create net in
  Fibbing.Controller.attach controller sim;
  tie_flows sim ~early:(x, p) ~late:(x, q);
  Netsim.Sim.run_until sim 3.;
  match (!oracle, Fibbing.Controller.actions controller) with
  | Some (Some (pick, sum), Some (other, _)), first :: _ ->
    Alcotest.(check (float 0.)) "tie" 8. sum;
    Alcotest.(check bool) "the order decides this tie" true (pick <> other);
    let expected = Printf.sprintf "steer %s at X:" (Igp.Prefix.to_string pick) in
    Alcotest.(check bool)
      (Printf.sprintf "%S starts with %S" first.description expected)
      true
      (String.starts_with ~prefix:expected first.description)
  | _ -> Alcotest.fail "no reaction to the tied link"

let test_tie_upstream_neighbour () =
  (* V-D is the alarm link (capacity 10, offered 16) and V has no
     alternate, so the controller escalates to the upstream neighbour
     feeding V the most: u1 and u2 feed 8 each. *)
  let u1, u2 = same_bucket (List.init 40 (fun i -> i + 2)) in
  let g = G.create () in
  for i = 0 to max u1 u2 do
    ignore (G.add_node g ~name:(Printf.sprintf "N%d" i))
  done;
  let v = 0 and d = 1 in
  G.add_link g u1 v ~weight:1;
  G.add_link g u2 v ~weight:1;
  G.add_link g v d ~weight:1;
  let net = Igp.Network.create g in
  let prefix = pfx "tie-sink" in
  Igp.Network.announce_prefix net prefix ~origin:d ~cost:0;
  let caps, sim = tie_sim net in
  Netsim.Link.set_link caps (v, d) 10.;
  let oracle = ref None in
  Netsim.Sim.on_poll sim (fun sim _ ->
      let table = Demand_oracle.inflow sim ~prefix ~via:v in
      if !oracle = None && Hashtbl.length table = 2 then
        oracle := Some (Demand_oracle.heaviest table, heaviest_reversed table));
  let controller = Fibbing.Controller.create net in
  Fibbing.Controller.attach controller sim;
  tie_flows sim ~early:(u1, prefix) ~late:(u2, prefix);
  Obs.enable ();
  let (), captured =
    Fun.protect ~finally:Obs.disable (fun () ->
        Obs.capture (fun () -> Netsim.Sim.run_until sim 3.))
  in
  let escalated_to =
    List.find_map
      (fun (e : Obs.Timeline.event) ->
        if e.kind = "escalate" then
          match List.assoc_opt "to" e.attrs with
          | Some (Obs.Attr.String name) -> Some name
          | Some _ | None -> None
        else None)
      captured.Obs.events
  in
  match (!oracle, escalated_to) with
  | Some (Some (pick, sum), Some (other, _)), Some name ->
    Alcotest.(check (float 0.)) "tie" 8. sum;
    Alcotest.(check bool) "the order decides this tie" true (pick <> other);
    Alcotest.(check string) "controller escalates to the oracle's pick"
      (G.name g pick) name
  | _ -> Alcotest.fail "no escalation from the tied router"

(* One reaction on the demo's hot B-R2 link, [streams] streams in the
   same two classes (A's and B's). [Gc.allocated_bytes] counts the
   calling domain only, which runs the whole reaction. *)
let react_allocated_bytes ~streams =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  let caps = Netsim.Link.capacities ~default:(11. *. 1024. *. 1024.) in
  Netsim.Link.set_link caps (d.b, d.r2) (2.75 *. 1024. *. 1024.);
  let monitor = Netsim.Monitor.create ~poll_interval:2.0 ~alpha:1.0 caps in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor ~flow_history:false net caps in
  for i = 0 to streams - 1 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i
         ~src:(if i mod 2 = 0 then d.a else d.b)
         ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 4.;
  let controller = Fibbing.Controller.create net in
  (* Start from an empty minor heap: on OCaml 5.1, a minor collection
     inside the measured region made [Gc.allocated_bytes] count words
     allocated before it (88x of 1 000 streams when this test runs
     alone; in the full suite it depended on how full the heap was). *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Fibbing.Controller.react controller sim [];
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "reacted" true (Fibbing.Controller.fake_count controller > 0);
  bytes

let test_react_allocation_flat_in_streams () =
  let small = react_allocated_bytes ~streams:1_000 in
  let large = react_allocated_bytes ~streams:10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "10 000 streams allocate %.2fx of 1 000 (%.0f vs %.0f bytes)"
       (large /. small) large small)
    true
    (large <= 1.5 *. small)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "fibbing"
    [
      ( "requirements",
        [
          Alcotest.test_case "valid" `Quick test_requirements_validate_ok;
          Alcotest.test_case "even helper" `Quick test_requirements_even;
          Alcotest.test_case "non-neighbor" `Quick test_requirements_reject_non_neighbor;
          Alcotest.test_case "bad fractions" `Quick test_requirements_reject_bad_fractions;
          Alcotest.test_case "announcer" `Quick test_requirements_reject_announcer;
          Alcotest.test_case "unknown prefix" `Quick test_requirements_reject_unknown_prefix;
          Alcotest.test_case "duplicates" `Quick test_requirements_reject_duplicates;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "demo ratio" `Quick test_splitting_demo_ratio;
          Alcotest.test_case "error metric" `Quick test_splitting_error_metric;
        ] );
      ( "extension",
        [
          Alcotest.test_case "reproduces demo fakes (Fig 1c)" `Quick
            test_extension_reproduces_demo_fakes;
          Alcotest.test_case "apply/revert" `Quick test_extension_apply_changes_fibs;
          Alcotest.test_case "cannot remove hop" `Quick test_extension_cannot_remove_next_hop;
          Alcotest.test_case "clean state required" `Quick test_extension_requires_clean_state;
        ] );
      ( "override",
        [
          Alcotest.test_case "replaces next hop" `Quick test_override_replaces_next_hop;
          Alcotest.test_case "costs undercut" `Quick test_override_costs_below_current;
          Alcotest.test_case "uneven" `Quick test_override_uneven;
        ] );
      ( "compile",
        [
          Alcotest.test_case "demo full" `Quick test_compile_demo_full;
          Alcotest.test_case "fallback to override" `Quick test_compile_falls_back_to_override;
          Alcotest.test_case "surgical" `Quick test_compile_is_surgical;
          Alcotest.test_case "repairs collateral" `Quick test_compile_repairs_collateral;
          Alcotest.test_case "impossible undercut" `Quick
            test_compile_reports_impossible_undercut;
          Alcotest.test_case "rejects invalid" `Quick test_compile_rejects_invalid;
        ] );
      qsuite "compile-props" [ prop_compile_verified_on_random ];
      ( "merger",
        [
          Alcotest.test_case "keeps needed fake" `Quick test_merger_keeps_needed_fake;
          Alcotest.test_case "preserves verification" `Quick test_merger_preserves_verification;
          Alcotest.test_case "drops inert fake" `Quick test_merger_drops_inert_fake;
        ] );
      ( "verify",
        [
          Alcotest.test_case "requirement miss" `Quick test_verify_detects_requirement_miss;
          Alcotest.test_case "collateral" `Quick test_verify_detects_collateral;
          Alcotest.test_case "baseline ok" `Quick test_verify_ok_baseline;
        ] );
      ( "transient",
        [
          Alcotest.test_case "baseline safe" `Quick test_transient_baseline_safe;
          Alcotest.test_case "loop detected" `Quick test_transient_detects_loop;
          Alcotest.test_case "unsafe order flagged" `Quick
            test_transient_unsafe_order_flagged;
          Alcotest.test_case "safe order found" `Quick test_transient_safe_order_found;
          Alcotest.test_case "apply/revert safely" `Quick
            test_transient_apply_and_revert_safely;
          Alcotest.test_case "safe removal order found" `Quick
            test_transient_safe_removal_order_found;
          Alcotest.test_case "removal rejects unsafe start" `Quick
            test_transient_removal_rejects_unsafe_start;
        ] );
      qsuite "transient-props"
        [
          prop_transient_safe_order_on_random;
          prop_transient_safe_removal_on_random;
          prop_controller_keeps_state_safe;
        ];
      ( "audit",
        [
          Alcotest.test_case "empty" `Quick test_audit_empty;
          Alcotest.test_case "roundtrips demo plan" `Quick
            test_audit_roundtrips_demo_plan;
          Alcotest.test_case "detects override" `Quick test_audit_detects_override;
        ] );
      ( "controller",
        [
          Alcotest.test_case "reacts to surge" `Quick test_controller_reacts_to_surge;
          Alcotest.test_case "idle when calm" `Quick test_controller_idle_when_uncongested;
          Alcotest.test_case "withdraws after calm" `Quick test_controller_withdraws_after_calm;
          Alcotest.test_case "requirements exposed" `Quick test_controller_requirements_exposed;
          Alcotest.test_case "anycast prefix" `Quick test_controller_handles_anycast_prefix;
          Alcotest.test_case "escalates upstream (2nd surge)" `Quick
            test_controller_escalates_upstream;
          Alcotest.test_case "withdraw_all then fresh cycle" `Quick
            test_controller_withdraw_all_then_fresh_cycle;
          Alcotest.test_case "withdraws when monitor silent" `Quick
            test_controller_withdraws_when_monitor_goes_silent;
          Alcotest.test_case "backs off when ineffective" `Quick
            test_controller_backs_off_when_ineffective;
          Alcotest.test_case "tie: dominant prefix as per-stream" `Quick
            test_tie_dominant_prefix;
          Alcotest.test_case "tie: upstream neighbour as per-stream" `Quick
            test_tie_upstream_neighbour;
          Alcotest.test_case "react allocation flat in streams" `Quick
            test_react_allocation_flat_in_streams;
        ] );
      qsuite "demand-props"
        [
          prop_demand_tables_match_oracle;
          prop_reactions_independent_of_aggregation;
        ];
    ]
