let pfx = Igp.Prefix.v
(* Tests for traffic-engineering algorithms: matrices, the max
   concurrent flow FPTAS, flow decomposition and weight optimization. *)

module G = Netgraph.Graph
module T = Netgraph.Topologies

let checkf tol = Alcotest.(check (float tol))

let demo_net () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (d, net)

(* ---------- Mcf ---------- *)

let test_mcf_single_path () =
  (* Line 0-1-2, capacity 10: a demand of 5 fits with lambda 2. *)
  let g = Topo.line ~n:3 in
  let caps _ = 10. in
  let result =
    Te.Mcf.solve ~epsilon:0.05 g ~capacities:caps
      [ { src = 0; dst = 2; prefix = pfx "p"; demand = 5. } ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "lambda %.3f in [1.7, 2.0]" result.lambda)
    true
    (result.lambda > 1.7 && result.lambda <= 2.01);
  let util = Te.Mcf.max_utilization g ~capacities:caps result in
  checkf 0.01 "utilization 0.5" 0.5 util

let test_mcf_uses_both_diamond_arms () =
  (* Diamond with unit capacities: demand 2 from 0 to 3 only fits using
     both arms. *)
  let g = G.create () in
  let s = G.add_node g ~name:"s" in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let t = G.add_node g ~name:"t" in
  G.add_link g s a ~weight:1;
  G.add_link g s b ~weight:1;
  G.add_link g a t ~weight:1;
  G.add_link g b t ~weight:1;
  let caps _ = 1. in
  let result =
    Te.Mcf.solve ~epsilon:0.05 g ~capacities:caps
      [ { src = s; dst = t; prefix = pfx "p"; demand = 2. } ]
  in
  Alcotest.(check bool) "lambda close to 1" true
    (result.lambda > 0.85 && result.lambda <= 1.01);
  let flows = List.assoc (pfx "p") result.flows in
  let on_a = Option.value ~default:0. (List.assoc_opt (s, a) flows) in
  let on_b = Option.value ~default:0. (List.assoc_opt (s, b) flows) in
  Alcotest.(check bool) "both arms used" true (on_a > 0.3 && on_b > 0.3);
  checkf 0.02 "flow conservation at source" 2. (on_a +. on_b)

let test_mcf_beats_single_shortest_path () =
  (* The paper's claim: the optimum spreads load that ECMP piles onto one
     path. Demo topology, 100 units from A and B each: min-max util must
     beat the 200-on-one-link IGP outcome. *)
  let d, net = demo_net () in
  ignore net;
  let caps _ = 100. in
  let result =
    Te.Mcf.solve ~epsilon:0.05 d.graph ~capacities:caps
      [
        { src = d.a; dst = d.c; prefix = pfx "blue"; demand = 100. };
        { src = d.b; dst = d.c; prefix = pfx "blue"; demand = 100. };
      ]
  in
  let util = Te.Mcf.max_utilization d.graph ~capacities:caps result in
  (* IGP puts 200 on B-R2 (util 2.0); the optimum is ~0.67. *)
  Alcotest.(check bool)
    (Printf.sprintf "opt util %.3f < 1.0" util)
    true (util < 1.0)

let test_mcf_rejects_bad_inputs () =
  let g = Topo.line ~n:3 in
  Alcotest.(check bool) "bad demand" true
    (try
       ignore
         (Te.Mcf.solve g ~capacities:(fun _ -> 1.)
            [ { src = 0; dst = 2; prefix = pfx "p"; demand = 0. } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad epsilon" true
    (try
       ignore (Te.Mcf.solve ~epsilon:1.5 g ~capacities:(fun _ -> 1.) []);
       false
     with Invalid_argument _ -> true)

let test_mcf_unroutable_commodity () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  Alcotest.(check bool) "unroutable" true
    (try
       ignore
         (Te.Mcf.solve g ~capacities:(fun _ -> 1.)
            [ { src = a; dst = b; prefix = pfx "p"; demand = 1. } ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Decompose ---------- *)

(* The split fractions [to_requirements] asks of [router]. *)
let splits_at (reqs : Fibbing.Requirements.t) router =
  match List.find_opt (fun (rr : Fibbing.Requirements.router_requirement) -> rr.router = router) reqs.routers with
  | Some rr ->
    List.map (fun (s : Fibbing.Requirements.split) -> (s.next_hop, s.fraction)) rr.splits
  | None -> []

let test_decompose_cancel_cycles () =
  let d, net = demo_net () in
  (* A-R1-R4-C carries 2; the cycle B->R2->C->R3->B carries 1 and serves
     no demand. Cancelled, only A needs a lie (towards R1). Kept, R3 would
     need one too, to send towards B. *)
  let flows =
    [
      ((d.a, d.r1), 2.); ((d.r1, d.r4), 2.); ((d.r4, d.c), 2.);
      ((d.b, d.r2), 1.); ((d.r2, d.c), 1.); ((d.c, d.r3), 1.); ((d.r3, d.b), 1.);
    ]
  in
  let reqs = Te.Decompose.to_requirements net ~prefix:(pfx "blue") flows in
  Alcotest.(check (list int)) "cycle gone: a lie at A only" [ d.a ]
    (List.map (fun (rr : Fibbing.Requirements.router_requirement) -> rr.router) reqs.routers);
  checkf 1e-9 "A all towards R1" 1. (List.assoc d.r1 (splits_at reqs d.a))

let test_decompose_cancel_no_cycles_is_identity () =
  let d, net = demo_net () in
  let flows = [ ((d.b, d.r2), 1.); ((d.b, d.r3), 3.); ((d.r2, d.c), 1.); ((d.r3, d.c), 3.) ] in
  let reqs = Te.Decompose.to_requirements net ~prefix:(pfx "blue") flows in
  let at_b = splits_at reqs d.b in
  checkf 1e-9 "R2 keeps 1/4" 0.25 (List.assoc d.r2 at_b);
  checkf 1e-9 "R3 keeps 3/4" 0.75 (List.assoc d.r3 at_b)

let test_decompose_node_fractions () =
  let d, net = demo_net () in
  let flows = [ ((d.a, d.b), 3.); ((d.a, d.r1), 1.) ] in
  let reqs = Te.Decompose.to_requirements net ~prefix:(pfx "blue") flows in
  match reqs.routers with
  | [ rr ] ->
    Alcotest.(check int) "at A" d.a rr.router;
    checkf 1e-9 "3/4" 0.75 (List.assoc d.b (splits_at reqs d.a));
    checkf 1e-9 "1/4" 0.25 (List.assoc d.r1 (splits_at reqs d.a))
  | _ -> Alcotest.fail "one node expected"

let test_decompose_to_requirements_skips_conforming () =
  (* A flow pattern equal to current IGP routing yields no requirements. *)
  let d, net = demo_net () in
  let flows = [ ((d.a, d.b), 1.); ((d.b, d.r2), 1.); ((d.r2, d.c), 1.) ] in
  let reqs = Te.Decompose.to_requirements net ~prefix:(pfx "blue") flows in
  Alcotest.(check int) "no lies needed" 0 (List.length reqs.routers)

let test_decompose_to_requirements_detects_deviation () =
  let d, net = demo_net () in
  (* Desired: B splits across R2 and R3. *)
  let flows =
    [ ((d.b, d.r2), 1.); ((d.b, d.r3), 1.); ((d.r2, d.c), 1.); ((d.r3, d.c), 1.) ]
  in
  let reqs = Te.Decompose.to_requirements net ~prefix:(pfx "blue") flows in
  Alcotest.(check int) "B needs a lie" 1 (List.length reqs.routers);
  (match reqs.routers with
  | [ rr ] -> Alcotest.(check int) "at B" d.b rr.router
  | _ -> ());
  (* Announcer C is never included even with outgoing flow. *)
  let flows2 = flows @ [ ((d.c, d.r2), 1.) ] in
  let reqs2 = Te.Decompose.to_requirements net ~prefix:(pfx "blue") flows2 in
  Alcotest.(check bool) "announcer skipped" true
    (List.for_all (fun (rr : Fibbing.Requirements.router_requirement) ->
         rr.router <> d.c)
       reqs2.routers)

(* End-to-end: MCF -> decompose -> compile -> verify -> loads match. *)
let test_te_pipeline_end_to_end () =
  let d, net = demo_net () in
  let caps _ = 100. in
  let result =
    Te.Mcf.solve ~epsilon:0.05 d.graph ~capacities:caps
      [
        { src = d.a; dst = d.c; prefix = pfx "blue"; demand = 100. };
        { src = d.b; dst = d.c; prefix = pfx "blue"; demand = 100. };
      ]
  in
  let reqs =
    Te.Decompose.to_requirements net ~prefix:(pfx "blue") (List.assoc (pfx "blue") result.flows)
  in
  Alcotest.(check bool) "some lies needed" true (reqs.routers <> []);
  (match Fibbing.Augmentation.compile ~max_entries:16 net reqs with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok plan ->
    Fibbing.Augmentation.apply net plan;
    (* Realized max link load must be well below the IGP's 200. *)
    let loads =
      Netsim.Loadmap.propagate net
        [
          { src = d.a; prefix = pfx "blue"; amount = 100. };
          { src = d.b; prefix = pfx "blue"; amount = 100. };
        ]
    in
    match Netsim.Loadmap.loads loads with
    | [] -> Alcotest.fail "no load"
    | loaded ->
      let maxload = List.fold_left (fun acc (_, l) -> max acc l) 0. loaded in
      Alcotest.(check bool)
        (Printf.sprintf "max load %.1f < 120" maxload)
        true (maxload < 120.))

(* ---------- Weightopt ---------- *)

let test_weightopt_improves_demo () =
  let d, net = demo_net () in
  let caps = Netsim.Link.capacities ~default:100. in
  let demands =
    [
      { Netsim.Loadmap.src = d.a; prefix = pfx "blue"; amount = 100. };
      { Netsim.Loadmap.src = d.b; prefix = pfx "blue"; amount = 100. };
    ]
  in
  let scratch = Igp.Network.clone net in
  let outcome = Te.Weightopt.optimize scratch demands caps in
  checkf 1e-9 "initial util is 2.0" 2. outcome.initial_utilization;
  Alcotest.(check bool)
    (Printf.sprintf "improved to %.2f" outcome.max_utilization)
    true
    (outcome.max_utilization < outcome.initial_utilization);
  Alcotest.(check bool) "weights were changed" true (outcome.changed_weights <> []);
  Alcotest.(check bool) "evaluations counted" true (outcome.evaluations > 0)

let test_weightopt_apply_cost_nonzero () =
  let d, net = demo_net () in
  let caps = Netsim.Link.capacities ~default:100. in
  let demands =
    [
      { Netsim.Loadmap.src = d.a; prefix = pfx "blue"; amount = 100. };
      { Netsim.Loadmap.src = d.b; prefix = pfx "blue"; amount = 100. };
    ]
  in
  let scratch = Igp.Network.clone net in
  let outcome = Te.Weightopt.optimize scratch demands caps in
  let cost = Te.Weightopt.apply_cost scratch outcome in
  Alcotest.(check bool) "reconfiguration floods messages" true (cost.messages > 0)

let test_weightopt_noop_when_optimal () =
  (* A single small demand: nothing to improve. *)
  let d, net = demo_net () in
  let caps = Netsim.Link.capacities ~default:1000. in
  let demands = [ { Netsim.Loadmap.src = d.a; prefix = pfx "blue"; amount = 1. } ] in
  let scratch = Igp.Network.clone net in
  let outcome = Te.Weightopt.optimize ~max_rounds:2 scratch demands caps in
  Alcotest.(check bool) "no worse" true
    (outcome.max_utilization <= outcome.initial_utilization +. 1e-9)

(* Property: MCF lambda is an upper bound witness — routing demands
   scaled by any factor above lambda must exceed some capacity, and the
   returned pattern respects capacities within (1+eps). *)
let prop_mcf_utilization_consistent =
  QCheck.Test.make ~name:"mcf utilization ~ 1/lambda" ~count:20
    QCheck.(int_range 0 10000)
    (fun seed ->
      let prng = Kit.Prng.create ~seed in
      let g = T.random prng ~n:8 ~extra_edges:6 ~max_weight:3 in
      let caps _ = 10. in
      let src = 0 and dst = 7 in
      let demand = 5. +. Kit.Prng.float prng 10. in
      let result =
        Te.Mcf.solve ~epsilon:0.1 g ~capacities:caps
          [ { src; dst; prefix = pfx "p"; demand } ]
      in
      let util = Te.Mcf.max_utilization g ~capacities:caps result in
      (* util should approximate 1/lambda (both describe the same
         scaling headroom); allow FPTAS slack. *)
      result.lambda > 0.
      && util > 0.
      && util <= 1.30 /. result.lambda
      && util >= 0.60 /. result.lambda)

(* ---------- Oblivious ---------- *)

let test_oblivious_uses_multiple_paths () =
  let g = G.create () in
  let s = G.add_node g ~name:"s" in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let t = G.add_node g ~name:"t" in
  G.add_link g s a ~weight:1;
  G.add_link g s b ~weight:1;
  G.add_link g a t ~weight:1;
  G.add_link g b t ~weight:1;
  let flows =
    Te.Oblivious.spread ~k:2 g
      [ { src = s; dst = t; prefix = pfx "p"; demand = 10. } ]
  in
  let edges = List.assoc (pfx "p") flows in
  (* Two equal-cost paths: even split. *)
  checkf 1e-9 "half via a" 5. (List.assoc (s, a) edges);
  checkf 1e-9 "half via b" 5. (List.assoc (s, b) edges);
  (* Flow conservation: all 10 units reach t. *)
  checkf 1e-9 "conservation" 10.
    (List.assoc (a, t) edges +. List.assoc (b, t) edges)

let test_oblivious_weights_by_inverse_cost () =
  (* Demo topology from A: the two cheapest paths (cost 3 and 4) both
     enter at B; the third (cost 5) detours via R1 and must carry the
     least. *)
  let d = T.demo () in
  let flows =
    Te.Oblivious.spread ~k:3 d.graph
      [ { src = d.a; dst = d.c; prefix = pfx "p"; demand = 8. } ]
  in
  let edges = List.assoc (pfx "p") flows in
  let via_b = Option.value ~default:0. (List.assoc_opt (d.a, d.b) edges) in
  let via_r1 = Option.value ~default:0. (List.assoc_opt (d.a, d.r1) edges) in
  Alcotest.(check bool)
    (Printf.sprintf "cheap path carries more (%.2f > %.2f)" via_b via_r1)
    true
    (via_b > via_r1 && via_r1 > 0.);
  checkf 1e-9 "all traffic leaves A" 8. (via_b +. via_r1)

let test_oblivious_beats_single_path_under_surge () =
  (* The surge regime: oblivious spreading halves the hotspot without
     knowing the demands, but stays above the demand-aware optimum. *)
  let d = T.demo () in
  let capacity _ = 100. in
  let commodities =
    [
      { Te.Mcf.src = d.a; dst = d.c; prefix = pfx "p"; demand = 100. };
      { Te.Mcf.src = d.b; dst = d.c; prefix = pfx "p"; demand = 100. };
    ]
  in
  let oblivious =
    Te.Oblivious.max_utilization ~capacities:capacity
      (Te.Oblivious.spread ~k:2 d.graph commodities)
  in
  let optimal =
    Te.Mcf.max_utilization d.graph ~capacities:capacity
      (Te.Mcf.solve ~epsilon:0.05 d.graph ~capacities:capacity commodities)
  in
  (* Single-path IGP puts 2.0 on B-R2. *)
  Alcotest.(check bool)
    (Printf.sprintf "oblivious %.2f < 2.0" oblivious)
    true (oblivious < 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "optimal %.2f <= oblivious %.2f" optimal oblivious)
    true
    (optimal <= oblivious +. 0.05)

let test_oblivious_unroutable () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Te.Oblivious.spread g [ { src = a; dst = b; prefix = pfx "p"; demand = 1. } ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Planner ---------- *)

let test_planner_scenarios () =
  let d = T.demo () in
  let scenarios = Te.Planner.single_link_failures d.graph in
  (* 8 links; removing any single one keeps the demo connected. *)
  Alcotest.(check int) "no-failure + 8 failures" 9 (List.length scenarios);
  Alcotest.(check bool) "includes no-failure" true
    (List.mem Te.Planner.No_failure scenarios)

let test_planner_excludes_partitions () =
  (* A line: every link is a cut link. *)
  let g = Topo.line ~n:4 in
  let scenarios = Te.Planner.single_link_failures g in
  Alcotest.(check int) "only no-failure" 1 (List.length scenarios)

let test_planner_prepares_demo () =
  let d, net = demo_net () in
  let demands =
    [
      { Netsim.Loadmap.src = d.a; prefix = pfx "blue"; amount = 100. };
      { Netsim.Loadmap.src = d.b; prefix = pfx "blue"; amount = 100. };
    ]
  in
  let entries =
    Te.Planner.prepare net ~demands ~capacity:100.
      ~scenarios:(Te.Planner.single_link_failures d.graph)
  in
  Alcotest.(check int) "an entry per scenario" 9 (List.length entries);
  List.iter
    (fun (e : Te.Planner.entry) ->
      (* The plan never does worse than plain IGP, and tracks the
         optimum within quantization + FPTAS slack where it exists. *)
      Alcotest.(check bool) "no worse than IGP" true
        (e.planned_utilization <= e.igp_utilization +. 1e-9);
      if e.plan <> None then
        Alcotest.(check bool)
          (Format.asprintf "%a: %.2f tracks optimal %.2f"
             (Te.Planner.pp_scenario d.graph) e.scenario e.planned_utilization
             e.optimal_utilization)
          true
          (e.planned_utilization <= (e.optimal_utilization *. 1.25) +. 0.05))
    entries;
  (* The no-failure entry must reproduce the Fig. 1d improvement. *)
  (match List.find_opt (fun (e : Te.Planner.entry) -> e.scenario = No_failure) entries with
  | Some e ->
    Alcotest.(check (float 1e-6)) "IGP util 2.0" 2.0 e.igp_utilization;
    Alcotest.(check bool)
      (Printf.sprintf "planned %.2f < 1.0" e.planned_utilization)
      true
      (e.planned_utilization < 1.0)
  | None -> Alcotest.fail "no-failure entry missing");
  let worst = Te.Planner.worst_case entries in
  Alcotest.(check bool) "worst case identified" true
    (List.for_all
       (fun (e : Te.Planner.entry) ->
         e.planned_utilization <= worst.planned_utilization)
       entries)

let test_planner_rejects_multi_prefix () =
  let d, net = demo_net () in
  Igp.Network.announce_prefix net (pfx "red") ~origin:d.r4 ~cost:0;
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Te.Planner.prepare net
            ~demands:
              [
                { Netsim.Loadmap.src = d.a; prefix = pfx "blue"; amount = 1. };
                { Netsim.Loadmap.src = d.a; prefix = pfx "red"; amount = 1. };
              ]
            ~capacity:100. ~scenarios:[ Te.Planner.No_failure ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Global controller strategy (Te.Reopt) ---------- *)

let stream = 131072.

let strategy_sim ~strategy =
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
  let controller =
    Fibbing.Controller.create
      ~config:
        { Fibbing.Controller.default_config with strategy; max_entries = 16 }
      ~reoptimize:Te.Reopt.for_controller net
  in
  Fibbing.Controller.attach controller sim;
  (d, net, sim, controller, caps)

let test_global_strategy_resolves_surge () =
  let d, net, sim, controller, caps =
    strategy_sim ~strategy:Fibbing.Controller.Global_optimal
  in
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 20.;
  Alcotest.(check bool) "reacted" true
    (Fibbing.Controller.fake_count controller > 0);
  (* Fluid check: offered demands routed under the installed lies stay
     within capacity (the optimum for 31 streams is ~0.74). *)
  let loads =
    Netsim.Loadmap.propagate net
      [ { src = d.a; prefix = pfx "blue"; amount = 31. *. stream } ]
  in
  (match Netsim.Loadmap.max_utilization loads caps with
  | Some (_, u) ->
    Alcotest.(check bool)
      (Printf.sprintf "max util %.2f below 1" u)
      true (u < 1.0)
  | None -> Alcotest.fail "no load");
  (* The reoptimizer's description appears in the log. *)
  Alcotest.(check bool) "re-optimize action logged" true
    (List.exists
       (fun (a : Fibbing.Controller.action) ->
         String.length a.description >= 11
         && String.sub a.description 0 11 = "re-optimize")
       (Fibbing.Controller.actions controller))

let test_global_without_reoptimizer_degrades_gracefully () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  let caps = Netsim.Link.capacities ~default:(2.75 *. 1024. *. 1024.) in
  let monitor = Netsim.Monitor.create ~alpha:1.0 caps in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
  let controller =
    Fibbing.Controller.create
      ~config:
        {
          Fibbing.Controller.default_config with
          strategy = Fibbing.Controller.Global_optimal;
        }
      net
  in
  Fibbing.Controller.attach controller sim;
  for i = 0 to 30 do
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
  done;
  Netsim.Sim.run_until sim 10.;
  Alcotest.(check int) "no lies installed" 0
    (Fibbing.Controller.fake_count controller);
  Alcotest.(check bool) "skip logged" true
    (Fibbing.Controller.actions controller <> [])

let test_local_vs_global_fake_counts () =
  (* Local deflection uses fewer lies; global tracks the optimum. Both
     must resolve the surge. *)
  let run strategy =
    let d, _, sim, controller, _ = strategy_sim ~strategy in
    for i = 0 to 30 do
      Netsim.Sim.add_flow sim
        (Netsim.Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:stream ())
    done;
    Netsim.Sim.run_until sim 20.;
    Fibbing.Controller.fake_count controller
  in
  let local = run Fibbing.Controller.Local_deflection in
  let global = run Fibbing.Controller.Global_optimal in
  Alcotest.(check bool) "both reacted" true (local > 0 && global > 0);
  Alcotest.(check bool)
    (Printf.sprintf "local (%d) uses no more fakes than global (%d)" local global)
    true
    (local <= global)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "te"
    [
      ( "mcf",
        [
          Alcotest.test_case "single path" `Quick test_mcf_single_path;
          Alcotest.test_case "diamond arms" `Quick test_mcf_uses_both_diamond_arms;
          Alcotest.test_case "beats shortest path" `Quick
            test_mcf_beats_single_shortest_path;
          Alcotest.test_case "bad inputs" `Quick test_mcf_rejects_bad_inputs;
          Alcotest.test_case "unroutable" `Quick test_mcf_unroutable_commodity;
        ] );
      qsuite "mcf-props" [ prop_mcf_utilization_consistent ];
      ( "decompose",
        [
          Alcotest.test_case "cancel cycles" `Quick test_decompose_cancel_cycles;
          Alcotest.test_case "identity without cycles" `Quick
            test_decompose_cancel_no_cycles_is_identity;
          Alcotest.test_case "node fractions" `Quick test_decompose_node_fractions;
          Alcotest.test_case "skips conforming" `Quick
            test_decompose_to_requirements_skips_conforming;
          Alcotest.test_case "detects deviation" `Quick
            test_decompose_to_requirements_detects_deviation;
          Alcotest.test_case "pipeline end-to-end (TOPT)" `Quick
            test_te_pipeline_end_to_end;
        ] );
      ( "planner",
        [
          Alcotest.test_case "scenario enumeration" `Quick test_planner_scenarios;
          Alcotest.test_case "excludes partitions" `Quick test_planner_excludes_partitions;
          Alcotest.test_case "prepares demo" `Quick test_planner_prepares_demo;
          Alcotest.test_case "single prefix only" `Quick test_planner_rejects_multi_prefix;
        ] );
      ( "oblivious",
        [
          Alcotest.test_case "multiple paths" `Quick test_oblivious_uses_multiple_paths;
          Alcotest.test_case "inverse-cost weights" `Quick
            test_oblivious_weights_by_inverse_cost;
          Alcotest.test_case "beats single path" `Quick
            test_oblivious_beats_single_path_under_surge;
          Alcotest.test_case "unroutable" `Quick test_oblivious_unroutable;
        ] );
      ( "reopt-strategy",
        [
          Alcotest.test_case "global resolves surge" `Quick
            test_global_strategy_resolves_surge;
          Alcotest.test_case "missing reoptimizer" `Quick
            test_global_without_reoptimizer_degrades_gracefully;
          Alcotest.test_case "local vs global fakes" `Quick
            test_local_vs_global_fake_counts;
        ] );
      ( "weightopt",
        [
          Alcotest.test_case "improves demo" `Quick test_weightopt_improves_demo;
          Alcotest.test_case "apply cost" `Quick test_weightopt_apply_cost_nonzero;
          Alcotest.test_case "noop when optimal" `Quick test_weightopt_noop_when_optimal;
        ] );
    ]
