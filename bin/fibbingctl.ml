(* fibbingctl: command-line front end to the Fibbing reproduction.

   Subcommands:
     routes   — print every router's routes to a prefix on a topology
     steer    — compile + inject a forwarding requirement and show the
                resulting fakes, FIBs and link loads
     demo     — run the paper's flash-crowd demo (Fig. 2) and print the
                time series, controller actions and QoE
     flood    — drive a bulk flash crowd (thousands of streams) through
                the demo network via the aggregated flow engine
     optimize — compute the optimal min-max TE for a surge and realize
                it with Fibbing (the TOPT pipeline)
     topo     — print one of the built-in topologies

   All topologies are built in (this is a simulator); `--topology`
   selects among demo | grid RxC | ring N | random N | twolevel N. *)

open Cmdliner

(* ---------- shared topology/prefix setup ---------- *)

let parse_topology spec =
  let fail msg = `Error (false, msg) in
  match String.split_on_char ':' spec with
  | [ "demo" ] ->
    let d = Netgraph.Topologies.demo () in
    `Ok (d.graph, d.c)
  | [ "ring"; n ] ->
    let g = Netgraph.Topologies.ring ~n:(int_of_string n) in
    `Ok (g, 0)
  | [ "grid"; r; c ] ->
    let g = Netgraph.Topologies.grid ~rows:(int_of_string r) ~cols:(int_of_string c) in
    `Ok (g, Netgraph.Graph.node_count g - 1)
  | [ "random"; n; seed ] ->
    let prng = Kit.Prng.create ~seed:(int_of_string seed) in
    let n = int_of_string n in
    `Ok (Netgraph.Topologies.random prng ~n ~extra_edges:n ~max_weight:4, 0)
  | [ "twolevel"; core ] ->
    let prng = Kit.Prng.create ~seed:1 in
    let g = Netgraph.Topologies.two_level prng ~core:(int_of_string core) ~edge_per_core:2 in
    `Ok (g, 0)
  | [ name ] when Netgraph.Zoo.find name <> None ->
    (match Netgraph.Zoo.find name with
    | Some entry -> `Ok (entry.graph, 0)
    | None -> assert false)
  | _ ->
    fail
      (Printf.sprintf
         "unknown topology %S (expected demo | ring:N | grid:R:C | random:N:SEED \
          | twolevel:CORES | abilene | nsfnet | geant)"
         spec)

let topology_arg =
  let doc =
    "Topology: demo | ring:N | grid:R:C | random:N:SEED | twolevel:CORES. The \
     destination prefix is announced at router C for the demo topology and \
     at the first/last node otherwise."
  in
  Arg.(value & opt string "demo" & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

(* --domains N: the chaos sweep's worker-pool width, the only parallel
   section. Both inputs are validated here, as prefixes are: zero, a
   negative or a malformed width, on the flag or in FIBBING_DOMAINS, is
   a usage error. *)
let domains_arg =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some d when d >= 1 -> Ok d
      | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc =
    "Worker domains for a $(b,--seeds) sweep, one scenario per domain. \
     Defaults to the machine's recommended domain count."
  in
  let env = Cmd.Env.info "FIBBING_DOMAINS" in
  Arg.(value & opt (some positive) None & info [ "domains" ] ~env ~docv:"N" ~doc)

(* Prefixes are validated at the CLI boundary: a malformed CIDR is a
   usage error with the parser's reason, not an unroutable destination. *)
let prefix_conv =
  let parse s =
    match Igp.Prefix.of_string s with
    | Ok p -> Ok p
    | Error reason -> Error (`Msg reason)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Igp.Prefix.to_string p))

let prefix_arg =
  Arg.(
    value
    & opt prefix_conv (Igp.Prefix.v "blue")
    & info [ "p"; "prefix" ] ~docv:"PREFIX"
        ~doc:"Destination prefix (name or CIDR, e.g. 10.1.0.0/16).")

let with_network spec prefix f =
  match parse_topology spec with
  | `Error (_, msg) -> prerr_endline msg; 1
  | `Ok (graph, announcer) ->
    let net = Igp.Network.create graph in
    Igp.Network.announce_prefix net prefix ~origin:announcer ~cost:0;
    f net graph announcer

let resolve_router g name =
  match Netgraph.Graph.find_node g name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown router %S" name)

(* ---------- routes ---------- *)

let routes_cmd =
  let run topo prefix =
    with_network topo prefix (fun net graph _ ->
        let names = Netgraph.Graph.name graph in
        List.iter
          (fun (_, fib) -> Format.printf "%a@." (Igp.Fib.pp ~names) fib)
          (Igp.Network.fibs net prefix);
        0)
  in
  let doc = "Print every router's FIB entries for the prefix." in
  Cmd.v (Cmd.info "routes" ~doc) Term.(const run $ topology_arg $ prefix_arg)

(* ---------- steer ---------- *)

let split_arg =
  let doc =
    "Forwarding requirement ROUTER=NH1:F1,NH2:F2,... (fractions sum to 1). \
     Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "s"; "split" ] ~docv:"REQ" ~doc)

let parse_split g spec =
  match String.split_on_char '=' spec with
  | [ router; hops ] ->
    Result.bind (resolve_router g router) (fun router ->
        let parse_hop acc hop =
          Result.bind acc (fun acc ->
              match String.split_on_char ':' hop with
              | [ name; fraction ] ->
                Result.bind (resolve_router g name) (fun nh ->
                    match float_of_string_opt fraction with
                    | Some f -> Ok ((nh, f) :: acc)
                    | None -> Error (Printf.sprintf "bad fraction %S" fraction))
              | _ -> Error (Printf.sprintf "bad split element %S" hop))
        in
        Result.map
          (fun hops -> (router, List.rev hops))
          (List.fold_left parse_hop (Ok []) (String.split_on_char ',' hops)))
  | _ -> Error (Printf.sprintf "bad requirement %S (expected ROUTER=NH:F,...)" spec)

let steer_cmd =
  let run topo prefix splits max_entries =
    with_network topo prefix (fun net graph _ ->
        let names = Netgraph.Graph.name graph in
        let parsed =
          List.fold_left
            (fun acc spec ->
              Result.bind acc (fun acc ->
                  Result.map (fun s -> s :: acc) (parse_split graph spec)))
            (Ok []) splits
        in
        match parsed with
        | Error msg -> prerr_endline msg; 1
        | Ok [] -> prerr_endline "no --split given"; 1
        | Ok assocs ->
          let reqs = Fibbing.Requirements.make ~prefix (List.rev assocs) in
          (match Fibbing.Augmentation.compile ~max_entries net reqs with
          | Error e ->
            Format.printf "compilation failed: %s@." e;
            1
          | Ok plan ->
            Fibbing.Augmentation.apply net plan;
            Format.printf "injected %d fake LSAs:@." (Fibbing.Augmentation.fake_count plan);
            List.iter
              (fun fake -> Format.printf "  %a@." (Igp.Lsa.pp ~names) (Fake fake))
              plan.fakes;
            Format.printf "@.resulting FIBs:@.";
            List.iter
              (fun (_, fib) -> Format.printf "  %a@." (Igp.Fib.pp ~names) fib)
              (Igp.Network.fibs net prefix);
            let cost = Igp.Network.control_cost net in
            Format.printf "@.control cost: %d messages, %d rounds@." cost.messages
              cost.rounds;
            0))
  in
  let max_entries =
    Arg.(value & opt int 16 & info [ "max-entries" ] ~docv:"N"
           ~doc:"FIB width budget per router.")
  in
  let doc = "Compile a forwarding requirement into fake LSAs and inject it." in
  Cmd.v (Cmd.info "steer" ~doc)
    Term.(const run $ topology_arg $ prefix_arg $ split_arg $ max_entries)

(* ---------- demo ---------- *)

let demo_cmd =
  let run fibbing_off until step csv =
    let d = Scenarios.Demo.make ~fibbing:(not fibbing_off) () in
    let flows = Scenarios.Demo.load_fig2_workload d in
    Scenarios.Demo.run d ~until;
    if csv then begin
      print_string (Kit.Timeseries.to_csv ~step (Scenarios.Demo.fig2_series d));
      exit 0
    end;
    Format.printf "%a@." (Kit.Timeseries.pp_rows ~step) (Scenarios.Demo.fig2_series d);
    (match d.controller with
    | Some c ->
      List.iter
        (fun (a : Fibbing.Controller.action) ->
          Format.printf "[%5.1f s] %s (fakes: %d)@." a.time a.description
            a.fakes_installed)
        (Fibbing.Controller.actions c)
    | None -> ());
    Format.printf "QoE: %a@." Video.Qoe.pp (Scenarios.Demo.qoe d ~flows);
    0
  in
  let off =
    Arg.(value & flag & info [ "no-fibbing" ] ~doc:"Disable the controller (baseline run).")
  in
  let until =
    Arg.(value & opt float 55. & info [ "until" ] ~docv:"SECONDS" ~doc:"Simulated horizon.")
  in
  let step =
    Arg.(value & opt float 2.5 & info [ "step" ] ~docv:"SECONDS" ~doc:"Reporting step.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the series as CSV and exit.")
  in
  let doc = "Run the paper's flash-crowd demo (Fig. 2)." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ off $ until $ step $ csv)

(* ---------- trace / metrics (telemetry) ---------- *)

(* Run the Fig. 2 demo with telemetry enabled and the Obs clock bound to
   simulated time, so two identical runs stamp byte-identical timelines. *)
let traced_demo ~fibbing ~until =
  let d = Scenarios.Demo.make ~fibbing () in
  Obs.reset ();
  Obs.enable ();
  Obs.Clock.set_source (fun () -> Netsim.Sim.time d.sim);
  (* The watchdog rides along so its counters and histograms land in the
     exported registry (metrics --prom); the demo is safe, so this is
     pure observation. *)
  ignore (Netsim.Watchdog.arm d.sim);
  ignore (Scenarios.Demo.load_fig2_workload d);
  Scenarios.Demo.run d ~until;
  Obs.disable ();
  Obs.Clock.use_cpu_time ();
  d

let fibbing_off_arg =
  Arg.(value & flag & info [ "no-fibbing" ] ~doc:"Disable the controller (baseline run).")

let until_arg =
  Arg.(value & opt float 55. & info [ "until" ] ~docv:"SECONDS" ~doc:"Simulated horizon.")

let prof_arg =
  Arg.(value & flag & info [ "prof" ]
         ~doc:"Also profile allocation: spans carry Gc.quick_stat deltas \
               (words allocated, collections) and the *.alloc_words \
               counters accumulate. Off by default because GC deltas are \
               not replayable byte-for-byte.")

let trace_cmd =
  let run fibbing_off until json spans chrome prof =
    if prof then Obs.Prof.enable ();
    ignore (traced_demo ~fibbing:(not fibbing_off) ~until);
    Obs.Prof.disable ();
    (* Machine-readable modes own stdout; anything human-facing would
       go to stderr (there is none on the happy path). *)
    if chrome then print_string (Obs.Export.chrome_trace_live ())
    else if spans then Format.printf "%a" Obs.Trace.pp_tree ()
    else if json then print_string (Obs.Timeline.to_json_lines ())
    else Format.printf "%a" (Obs.Timeline.pp_table ?include_spans:None) ();
    0
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the timeline as JSON lines.")
  in
  let spans =
    Arg.(value & flag & info [ "spans" ]
           ~doc:"Print the span tree instead of the merged timeline.")
  in
  let chrome =
    Arg.(value & flag & info [ "chrome" ]
           ~doc:"Emit Chrome trace-event JSON (open in Perfetto or \
                 chrome://tracing): spans as complete events nested per \
                 domain, timeline events as instants.")
  in
  let doc =
    "Run the Fig. 2 demo with telemetry on and print the scenario \
     timeline: monitor polls and alarms, controller reactions, SPF \
     recompute spans — one causally ordered stream, replayable \
     (identical runs emit identical output)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ fibbing_off_arg $ until_arg $ json $ spans $ chrome $ prof_arg)

let metrics_cmd =
  let run fibbing_off until json prom prof =
    if prof then Obs.Prof.enable ();
    ignore (traced_demo ~fibbing:(not fibbing_off) ~until);
    Obs.Prof.disable ();
    if prom then print_string (Obs.Export.open_metrics ())
    else if json then print_string (Obs.Metrics.to_json_lines ())
    else Format.printf "%a" Obs.Metrics.pp_table ();
    0
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit metrics as JSON lines.")
  in
  let prom =
    Arg.(value & flag & info [ "prom" ]
           ~doc:"Emit OpenMetrics text exposition (counters, gauges, \
                 histograms with explicit bucket bounds).")
  in
  let doc =
    "Run the Fig. 2 demo with telemetry on and dump the metrics \
     registry (counters, gauges, histogram percentiles)."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const run $ fibbing_off_arg $ until_arg $ json $ prom $ prof_arg)

(* ---------- optimize ---------- *)

let optimize_cmd =
  let run topo prefix sources demand capacity max_entries =
    with_network topo prefix (fun net graph announcer ->
        let srcs =
          List.fold_left
            (fun acc name ->
              Result.bind acc (fun acc ->
                  Result.map (fun v -> v :: acc) (resolve_router graph name)))
            (Ok []) sources
        in
        match srcs with
        | Error msg -> prerr_endline msg; 1
        | Ok [] -> prerr_endline "no --from given"; 1
        | Ok srcs ->
          let commodities =
            List.map
              (fun src -> { Te.Mcf.src; dst = announcer; prefix; demand })
              srcs
          in
          let result =
            Te.Mcf.solve ~epsilon:0.1 graph ~capacities:(fun _ -> capacity) commodities
          in
          Format.printf "optimal min-max utilization: %.3f (lambda %.2f)@."
            (Te.Mcf.max_utilization graph ~capacities:(fun _ -> capacity) result)
            result.lambda;
          let reqs =
            Te.Decompose.to_requirements net ~prefix (List.assoc prefix result.flows)
          in
          Format.printf "routers needing lies: %d@." (List.length reqs.routers);
          (match Fibbing.Augmentation.compile ~max_entries net reqs with
          | Error e -> Format.printf "compilation failed: %s@." e; 1
          | Ok plan ->
            let plan = Fibbing.Merger.minimize net reqs plan in
            Fibbing.Augmentation.apply net plan;
            let demands =
              List.map
                (fun src -> { Netsim.Loadmap.src; prefix; amount = demand })
                srcs
            in
            let loads = Netsim.Loadmap.propagate net demands in
            let caps = Netsim.Link.capacities ~default:capacity in
            (match Netsim.Loadmap.max_utilization loads caps with
            | Some (link, u) ->
              Format.printf "realized with %d fakes: max util %.3f on %s@."
                (Fibbing.Augmentation.fake_count plan)
                u
                (Netsim.Link.name graph link)
            | None -> ());
            0))
  in
  let sources =
    Arg.(value & opt_all string [] & info [ "from" ] ~docv:"ROUTER"
           ~doc:"Ingress router of a 1-commodity surge. Repeatable.")
  in
  let demand =
    Arg.(value & opt float 120. & info [ "demand" ] ~docv:"UNITS" ~doc:"Demand per ingress.")
  in
  let capacity =
    Arg.(value & opt float 100. & info [ "capacity" ] ~docv:"UNITS" ~doc:"Uniform link capacity.")
  in
  let max_entries =
    Arg.(value & opt int 16 & info [ "max-entries" ] ~docv:"N" ~doc:"FIB width budget.")
  in
  let doc = "Compute and realize the optimal min-max TE for a surge." in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const run $ topology_arg $ prefix_arg $ sources $ demand $ capacity $ max_entries)

(* ---------- failover ---------- *)

let failover_cmd =
  let run fibbing_off fail_at =
    let d = Scenarios.Demo.make ~fibbing:(not fibbing_off) () in
    for i = 0 to 30 do
      Netsim.Sim.add_flow d.sim
        (Netsim.Flow.make ~id:i ~src:d.topology.a ~prefix:Scenarios.Demo.prefix
           ~demand:Scenarios.Demo.stream_rate ())
    done;
    Netsim.Sim.fail_link d.sim ~time:fail_at (d.topology.b, d.topology.r2);
    Scenarios.Demo.run d ~until:(fail_at +. 25.);
    Format.printf "%a@."
      (Kit.Timeseries.pp_rows ~step:2.5)
      (Scenarios.Demo.fig2_series d);
    (match d.controller with
    | Some c ->
      List.iter
        (fun (a : Fibbing.Controller.action) ->
          Format.printf "[%5.1f s] %s@." a.time a.description)
        (Fibbing.Controller.actions c)
    | None -> ());
    Format.printf "unroutable flows at the end: %d@."
      (List.length (Netsim.Sim.unroutable_flows d.sim));
    0
  in
  let off =
    Arg.(value & flag & info [ "no-fibbing" ] ~doc:"Disable the controller.")
  in
  let fail_at =
    Arg.(value & opt float 25. & info [ "fail-at" ] ~docv:"SECONDS"
           ~doc:"When the B-R2 link dies.")
  in
  let doc = "31 streams from A, then the B-R2 link fails under load." in
  Cmd.v (Cmd.info "failover" ~doc) Term.(const run $ off $ fail_at)

(* ---------- convergence ---------- *)

let convergence_cmd =
  let run topo prefix router_name weight =
    with_network topo prefix (fun net graph announcer ->
        ignore announcer;
        match resolve_router graph router_name with
        | Error msg -> prerr_endline msg; 1
        | Ok router ->
          (* Scale every adjacent weight of [router] and replay the
             reconvergence; then compare with a Fibbing equal-cost lie
             towards one loop-free alternate, if any. *)
          let after = Igp.Network.clone net in
          List.iter
            (fun (v, w) ->
              Igp.Network.set_weight after router v ~weight:(w * weight);
              Igp.Network.set_weight after v router ~weight:(w * weight))
            (Netgraph.Graph.succ graph router);
          let report =
            Igp.Convergence.analyze ~before:net ~after ~origin:router ~prefix ()
          in
          Format.printf
            "weight x%d at %s: %d routers change, %d unsafe states, %.3f s \
             unsafe window%s@."
            weight
            (Netgraph.Graph.name graph router)
            report.states report.unsafe_states report.unsafe_window
            (match report.first_problem with
            | Some (t, problem) -> Printf.sprintf " (first at %.3f s: %s)" t problem
            | None -> "");
          0)
  in
  let router =
    Arg.(value & opt string "A" & info [ "router" ] ~docv:"NAME"
           ~doc:"Router whose links degrade.")
  in
  let weight =
    Arg.(value & opt int 10 & info [ "factor" ] ~docv:"N"
           ~doc:"Weight multiplier applied to the router's links.")
  in
  let doc = "Replay an IGP reconvergence and report micro-loop exposure." in
  Cmd.v (Cmd.info "convergence" ~doc)
    Term.(const run $ topology_arg $ prefix_arg $ router $ weight)

(* ---------- plan (what-if planning) ---------- *)

let plan_cmd =
  let run topo prefix sources demand capacity =
    with_network topo prefix (fun net graph _ ->
        let srcs =
          List.fold_left
            (fun acc name ->
              Result.bind acc (fun acc ->
                  Result.map (fun v -> v :: acc) (resolve_router graph name)))
            (Ok []) sources
        in
        match srcs with
        | Error msg -> prerr_endline msg; 1
        | Ok [] -> prerr_endline "no --from given"; 1
        | Ok srcs ->
          let demands =
            List.map
              (fun src -> { Netsim.Loadmap.src; prefix; amount = demand })
              srcs
          in
          let entries =
            Te.Planner.prepare net ~demands ~capacity
              ~scenarios:(Te.Planner.single_link_failures graph)
          in
          Format.printf "%-28s %10s %10s %10s %8s@." "scenario" "IGP util"
            "planned" "optimal" "fakes";
          List.iter
            (fun (e : Te.Planner.entry) ->
              Format.printf "%-28s %10.2f %10.2f %10.2f %8s@."
                (Format.asprintf "%a" (Te.Planner.pp_scenario graph) e.scenario)
                e.igp_utilization e.planned_utilization e.optimal_utilization
                (match e.plan with
                | Some plan -> string_of_int (Fibbing.Augmentation.fake_count plan)
                | None -> "-"))
            entries;
          let worst = Te.Planner.worst_case entries in
          Format.printf "worst case with plans: %.2f (%a)@."
            worst.planned_utilization
            (Te.Planner.pp_scenario graph)
            worst.scenario;
          0)
  in
  let sources =
    Arg.(value & opt_all string [] & info [ "from" ] ~docv:"ROUTER"
           ~doc:"Ingress of one demand. Repeatable.")
  in
  let demand =
    Arg.(value & opt float 100. & info [ "demand" ] ~docv:"UNITS" ~doc:"Demand per ingress.")
  in
  let capacity =
    Arg.(value & opt float 100. & info [ "capacity" ] ~docv:"UNITS" ~doc:"Uniform link capacity.")
  in
  let doc = "Precompute Fibbing plans for every single-link-failure scenario." in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run $ topology_arg $ prefix_arg $ sources $ demand $ capacity)

(* ---------- run (scenario scripts) ---------- *)

let run_cmd =
  let run path =
    match open_in path with
    | exception Sys_error message -> prerr_endline message; 1
    | ic ->
      let length = in_channel_length ic in
      let text = really_input_string ic length in
      close_in ic;
      (match Scenarios.Script.run_string text with
      | Ok () -> 0
      | Error message -> prerr_endline message; 1)
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT"
           ~doc:"Scenario script (see examples/demo.fib).")
  in
  let doc = "Execute a scenario script." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ path)

(* ---------- flood ---------- *)

let flood_cmd =
  let run flows until no_agg =
    let d = Scenarios.Demo.make ~fibbing:true ~aggregation:(not no_agg) () in
    let prng = Kit.Prng.create ~seed:11 in
    let spec src =
      {
        Video.Workload.src;
        prefix = Scenarios.Demo.prefix;
        rate = Scenarios.Demo.stream_rate;
        video_duration = 3600.;
      }
    in
    let crowd =
      Video.Workload.crowd prng ~jitter:2.
        [ spec d.topology.a; spec d.topology.b ]
        ~first_id:0 ~count:flows ~at:0.
    in
    List.iter (Netsim.Sim.add_flow d.sim) crowd;
    let t0 = Sys.time () in
    Scenarios.Demo.run d ~until;
    let cpu = Sys.time () -. t0 in
    let sim = d.sim in
    let steps = until /. d.dt in
    Format.printf
      "flows: %d active of %d scheduled, %d classes, %d unroutable@."
      (List.length (Netsim.Sim.active_flows sim))
      flows
      (Netsim.Sim.flow_classes sim)
      (List.length (Netsim.Sim.unroutable_flows sim));
    Format.printf "cpu: %.3f s over %.0f steps (%.3f ms/step)@." cpu steps
      (1000. *. cpu /. steps);
    let g = Igp.Network.graph d.net in
    List.iter
      (fun (link, rate) ->
        Format.printf "  %-8s %12.0f B/s  %5.1f%%@."
          (Netsim.Link.name g link) rate
          (100. *. rate /. Netsim.Link.capacity d.caps link))
      (Netsim.Sim.current_link_rates sim);
    (match d.controller with
    | Some c ->
      List.iter
        (fun (a : Fibbing.Controller.action) ->
          Format.printf "[%5.1f s] %s (fakes: %d)@." a.time a.description
            a.fakes_installed)
        (Fibbing.Controller.actions c)
    | None -> ());
    0
  in
  let flows =
    Arg.(value & opt int 2000 & info [ "flows" ] ~docv:"N"
           ~doc:"Number of concurrent streams to surge (split across the \
                 demo's two video servers).")
  in
  let until =
    Arg.(value & opt float 12. & info [ "until" ] ~docv:"SECONDS"
           ~doc:"Simulated horizon.")
  in
  let no_agg =
    Arg.(value & flag & info [ "no-aggregation" ]
           ~doc:"Allocate per flow instead of per flow class (the \
                 pre-aggregation engine; slow beyond a few thousand \
                 streams).")
  in
  let doc =
    "Drive a bulk flash crowd through the demo network: thousands of \
     identical streams collapse into a handful of weighted flow classes \
     (src, prefix, demand, hashed path), so a step costs the number of \
     classes, not the number of streams."
  in
  Cmd.v (Cmd.info "flood" ~doc)
    Term.(const run $ flows $ until $ no_agg)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let run seed until faults trace json seeds domains watchdog =
    if seeds <= 1 then begin
      Obs.reset ();
      if trace || json then Obs.enable ();
      let v = Scenarios.Chaos.run ~faults ~watchdog ~seed ~until () in
      Obs.disable ();
      Obs.Clock.use_cpu_time ();
      if json then begin
        print_string (Obs.Timeline.to_json_lines ());
        Format.eprintf "%a@." Scenarios.Chaos.pp v
      end
      else begin
        if trace then Format.printf "%a@." (Obs.Timeline.pp_table ?include_spans:None) ();
        Format.printf "%a@." Scenarios.Chaos.pp v
      end;
      if Scenarios.Chaos.ok v then 0 else 1
    end
    else begin
      (* Sweep mode: seeds [seed, seed + seeds), one scenario per
         domain. Timelines (--json) are per-run captures, so output is
         identical at any --domains. *)
      Obs.reset ();
      if json then Obs.enable ();
      let seed_list = List.init seeds (fun i -> seed + i) in
      let results =
        Scenarios.Chaos.sweep ~pool:(Kit.Pool.create ?domains ()) ~faults
          ~watchdog ~seeds:seed_list ~until ()
      in
      Obs.disable ();
      let failures = ref 0 in
      List.iter
        (fun ((v : Scenarios.Chaos.verdict), timeline) ->
          (match timeline with Some s when json -> print_string s | _ -> ());
          let okay = Scenarios.Chaos.ok v in
          if not okay then incr failures;
          let line = if json then Format.eprintf else Format.printf in
          line
            "seed %d: %s (reactions %d, fakes left %d, unroutable %d, \
             violations %d, quarantines %d)@."
            v.seed
            (if okay then "OK" else "FAILED")
            v.reactions v.fakes_left
            (List.length v.unroutable_at_end)
            (List.length v.violations)
            v.quarantines)
        results;
      let line = if json then Format.eprintf else Format.printf in
      line "%d/%d seeds OK@." (seeds - !failures) seeds;
      if !failures = 0 then 0 else 1
    end
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Fault-schedule seed; the whole run is deterministic in it.")
  in
  let seeds =
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"COUNT"
           ~doc:"Sweep COUNT consecutive seeds starting at --seed, one \
                 scenario per worker domain. Exit status 1 if any seed \
                 fails. With --json, each run's captured timeline is \
                 printed in seed order (verdict lines go to stderr).")
  in
  let until =
    Arg.(value & opt float 30. & info [ "until" ] ~docv:"SECONDS"
           ~doc:"Fault horizon: every fault heals by this time; the run \
                 continues through a fixed quiescence tail afterwards.")
  in
  let faults =
    Arg.(value & opt int 4 & info [ "faults" ] ~docv:"N"
           ~doc:"Number of fault episodes to draw.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Also print the merged scenario timeline (faults, monitor, \
                 controller, lie expiries).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the timeline as JSON lines on stdout (verdict goes \
                 to stderr).")
  in
  let watchdog =
    Arg.(value & opt bool true & info [ "watchdog" ] ~docv:"BOOL"
           ~doc:"Arm the runtime safety watchdog: per-step loop and \
                 blackhole freedom for every prefix, lie budget, \
                 freshness and anchoring, per-link utilization bound. \
                 Any violation at any step fails the run. Default true.")
  in
  let doc =
    "Run the demo network under a random seeded fault schedule (link \
     flaps, router crashes, partitions, lossy and delayed flooding, \
     monitor blackouts and corrupted telemetry, controller \
     crash/restart) and verify it converges back to the fault-free \
     pure-IGP state — topology restored, zero fakes left, FIBs equal to \
     a from-scratch computation, nothing unroutable — with zero runtime \
     safety violations at every step along the way. Exit status 1 when \
     the invariant fails."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ seed $ until $ faults $ trace $ json $ seeds
          $ domains_arg $ watchdog)

(* ---------- topo ---------- *)

let topo_cmd =
  let run topo dot =
    match parse_topology topo with
    | `Error (_, msg) -> prerr_endline msg; 1
    | `Ok (graph, announcer) ->
      if dot then print_string (Netgraph.Dot.of_graph graph)
      else begin
        Format.printf "%d routers, %d links; prefix announcer: %s@."
          (Netgraph.Graph.node_count graph)
          (Netgraph.Graph.edge_count graph / 2)
          (Netgraph.Graph.name graph announcer);
        Format.printf "%a" Netgraph.Graph.pp graph
      end;
      0
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")
  in
  let doc = "Print a built-in topology." in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const run $ topology_arg $ dot)

let () =
  let doc = "Fibbing: on-demand load balancing by lying to link-state routers" in
  let info = Cmd.info "fibbingctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            routes_cmd;
            steer_cmd;
            demo_cmd;
            trace_cmd;
            metrics_cmd;
            optimize_cmd;
            topo_cmd;
            failover_cmd;
            convergence_cmd;
            run_cmd;
            plan_cmd;
            chaos_cmd;
            flood_cmd;
          ]))
