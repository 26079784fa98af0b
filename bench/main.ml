let pfx = Igp.Prefix.v
(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index), runs Bechamel timings for the
   computational pieces, and runs the perf tracks.

     dune exec bench/main.exe -- [quick] [json] [--history FILE --tag TAG]
                                 [TRACK...]
     dune exec bench/main.exe -- gate [--history FILE]

   Without a TRACK: every experiment section, the Bechamel timings and
   every perf track. With TRACKs (spf flow par fib watch prof): only
   those tracks. [quick] runs each track at its reduced size and skips
   the Bechamel timings; [json] writes each track's rows to
   BENCH_<track>.json in the cwd; [--history] appends each track's
   rows to FILE, tagged TAG (default "dev"). [gate] compares the newest
   history row of each track and workload size against the rolling
   median (default file bench/history.jsonl) and exits 1 on a
   regression. A failed track gate exits 1; an unknown argument exits 2
   with a usage line.

   Experiment ids:
     F1A  Fig. 1a  IGP shortest paths
     F1B  Fig. 1b  overload without Fibbing (relative loads 100/200)
     F1C  Fig. 1c  fake-node augmentation (fB at 2, two fA at 3)
     F1D  Fig. 1d  uneven splits (loads ~33/67)
     F2   Fig. 2   throughput vs time on A-R1, B-R2, B-R3 (+ off run)
     TQOE §3       smooth vs stutter playback
     TOVH §2       control/data-plane overhead vs MPLS and weight re-opt
     TSCALE §1/§2  fake count, compile time, split error vs FIB width
     TOPT §2       Fibbing realizes the optimal min-max utilization
     TSPF TFLOW TPAR TFIB TWATCH TPROF  perf tracks (registry at the end) *)

module G = Netgraph.Graph
module T = Netgraph.Topologies
module Demo = Scenarios.Demo

let section id title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s — %s@." id title;
  Format.printf "==================================================================@."

let demo_net () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (d, net)

let demo_requirements (d : T.demo) =
  Fibbing.Requirements.make ~prefix:(pfx "blue")
    [
      (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
      (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
    ]

let demo_demands (d : T.demo) =
  [
    { Netsim.Loadmap.src = d.a; prefix = pfx "blue"; amount = 100. };
    { Netsim.Loadmap.src = d.b; prefix = pfx "blue"; amount = 100. };
  ]

(* ------------------------------------------------------------------ *)

let f1a () =
  section "F1A" "Fig. 1a: IGP shortest paths towards the blue prefix";
  let d, net = demo_net () in
  let names = G.name d.graph in
  Format.printf "%-8s %6s %-14s %s@." "router" "cost" "next hops" "shortest paths";
  List.iter
    (fun (router, fib) ->
      let paths =
        Netgraph.Paths.all_shortest d.graph ~source:router ~target:d.c
        |> List.map (Netgraph.Paths.to_string d.graph)
        |> String.concat ", "
      in
      Format.printf "%-8s %6d %-14s %s@." (names router) fib.Igp.Fib.distance
        (if fib.Igp.Fib.local then "local"
         else String.concat "," (List.map names (Igp.Fib.next_hops fib)))
        paths)
    (Igp.Network.fibs net (pfx "blue"));
  Format.printf
    "@.Paper check: A reaches blue via B at cost 3 (unique path),@.\
     B via R2 at cost 2 (unique) — the two flows overlap on B-R2-C.@."

let print_loads (d : T.demo) loads =
  Format.printf "%-8s %10s@." "link" "load";
  Format.printf "%a" (fun fmt -> Netsim.Loadmap.pp d.graph fmt) loads;
  match List.sort (fun (_, a) (_, b) -> compare b a) (Netsim.Loadmap.loads loads) with
  | (link, l) :: _ ->
    Format.printf "max link load: %.1f on %s@." l (Netsim.Link.name d.graph link)
  | [] -> ()

let f1b () =
  section "F1B" "Fig. 1b: data-plane load during the surge, no Fibbing";
  let d, net = demo_net () in
  Format.printf "Demands: 100 units S1@@A -> blue, 100 units S2@@B -> blue@.@.";
  let loads = Netsim.Loadmap.propagate net (demo_demands d) in
  print_loads d loads;
  Format.printf
    "@.Paper check: B-R2 and R2-C carry 200 (the figure's overload),@.\
     A's and B's flows pile up on the same shortest path.@."

let f1c () =
  section "F1C" "Fig. 1c: the fake nodes Fibbing injects";
  let d, net = demo_net () in
  let names = G.name d.graph in
  match Fibbing.Augmentation.compile ~max_entries:4 net (demo_requirements d) with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok plan ->
    Format.printf "Requirements: B -> {R2:1/2, R3:1/2}; A -> {B:1/3, R1:2/3}@.@.";
    List.iter
      (fun fake -> Format.printf "  %a@." (Igp.Lsa.pp ~names) (Fake fake))
      plan.fakes;
    Format.printf "@.fakes: %d (paper: 3 — one fB at cost 2, two fA at cost 3)@."
      (Fibbing.Augmentation.fake_count plan);
    List.iter
      (fun (router, cost) ->
        Format.printf "fake total cost at %s: %d@." (names router) cost)
      plan.costs

let f1d () =
  section "F1D" "Fig. 1d: data-plane load with the Fibbing augmentation";
  let d, net = demo_net () in
  (match Fibbing.Augmentation.compile ~max_entries:4 net (demo_requirements d) with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok plan -> Fibbing.Augmentation.apply net plan);
  let loads = Netsim.Loadmap.propagate net (demo_demands d) in
  print_loads d loads;
  Format.printf
    "@.Paper check: every used link carries ~66.7 (the figure's 66),@.\
     A-B carries ~33.3; max load drops from 200 to 66.7 while total@.\
     delivered traffic is unchanged.@."

let f2 () =
  section "F2" "Fig. 2: throughput over time on A-R1, B-R2, B-R3";
  Format.printf
    "Workload: 1 stream S1->D1 at t=0, +30 at t=15, +31 S2->D2 at t=35.@.";
  Format.printf "Stream rate %.0f B/s; bottleneck capacity %.0f B/s.@.@."
    Demo.stream_rate Demo.link_capacity;
  let d = Demo.make ~fibbing:true () in
  let flows = Demo.load_fig2_workload d in
  Demo.run d ~until:55.;
  Format.printf "— Fibbing controller ON (bytes/s):@.";
  Format.printf "%a@." (Kit.Timeseries.pp_rows ~step:2.5) (Demo.fig2_series d);
  (match d.controller with
  | Some c ->
    List.iter
      (fun (a : Fibbing.Controller.action) ->
        Format.printf "  action [%5.1f s] %s (fakes: %d)@." a.time a.description
          a.fakes_installed)
      (Fibbing.Controller.actions c)
  | None -> ());
  let off = Demo.make ~fibbing:false () in
  let flows_off = Demo.load_fig2_workload off in
  Demo.run off ~until:55.;
  Format.printf "@.— Controller OFF (baseline):@.";
  Format.printf "%a@." (Kit.Timeseries.pp_rows ~step:5.) (Demo.fig2_series off);
  Format.printf
    "Paper check: additional paths (B-R3, then A-R1) activate as load@.\
     rises; with the controller no plotted link exceeds its capacity@.\
     and total delivered throughput keeps growing.@.";
  (d, flows, off, flows_off)

let tqoe (d, flows, off, flows_off) =
  section "TQOE" "§3 claim: playback smooth with Fibbing, stutter without";
  let qon = Demo.qoe d ~flows in
  let qoff = Demo.qoe off ~flows:flows_off in
  Format.printf "%-18s %10s %10s %12s %12s %8s@." "scenario" "sessions" "smooth"
    "stalls" "stall-ratio" "MOS";
  let row name (q : Video.Qoe.summary) =
    Format.printf "%-18s %10d %10d %12d %12.3f %8.2f@." name q.sessions
      q.smooth_sessions q.total_stalls q.stall_ratio q.mos
  in
  row "fibbing ON" qon;
  row "fibbing OFF" qoff

let tovh () =
  section "TOVH" "§2: overhead of Fibbing vs MPLS RSVP-TE vs weight re-opt";
  let d, net = demo_net () in
  (match Fibbing.Augmentation.compile ~max_entries:4 net (demo_requirements d) with
  | Ok plan -> Fibbing.Augmentation.apply net plan
  | Error e -> Format.printf "compile failed: %s@." e);
  let fib_msgs = (Igp.Network.control_cost net).messages in
  let fib_fakes = List.length (Igp.Network.fakes net) in
  (* MPLS: three tunnels reproduce the same split; soft state refreshes
     every 30 s; data plane pays a 4 B label per 1500 B packet. *)
  let caps = Netsim.Link.capacities ~default:1000. in
  let tunnels = Mpls.Tunnels.create d.graph caps in
  List.iter
    (fun (head, tail) ->
      ignore (Mpls.Tunnels.establish tunnels ~head ~tail ~bandwidth:66.))
    [ (d.b, d.c); (d.b, d.c); (d.a, d.c) ];
  let mpls_setup = Mpls.Tunnels.signaling_messages tunnels in
  let mpls_refresh_1h =
    Mpls.Tunnels.refresh_messages tunnels ~period:30. ~duration:3600.
  in
  let mpls_state = Mpls.Tunnels.total_state tunnels in
  let encap =
    Mpls.Tunnels.encap_overhead_bytes tunnels ~packet_size:1500 ~label_bytes:4
      ~volume:(4e6 *. 3600.)
  in
  let scratch = Igp.Network.clone (snd (demo_net ())) in
  let outcome =
    Te.Weightopt.optimize scratch (demo_demands d)
      (Netsim.Link.capacities ~default:100.)
  in
  let wo_msgs = (Te.Weightopt.apply_cost scratch outcome).messages in
  (* OSPF re-originates LSAs every 30 min; count Fibbing's own
     soft-state cost over the same hour for fairness. *)
  let fib_refresh_1h =
    (Igp.Network.refresh_cost net ~period:1800. ~duration:3600.).messages
  in
  Format.printf "%-26s %14s %14s %16s@." "scheme" "ctrl msgs" "router state"
    "data-plane cost";
  Format.printf "%-26s %14d %14s %16s@." "Fibbing (3 lies, 1h)"
    (fib_msgs + fib_refresh_1h)
    (Printf.sprintf "%d LSAs" fib_fakes)
    "0 (no encap)";
  Format.printf "%-26s %14d %14d %16s@." "MPLS RSVP-TE (1h)"
    (mpls_setup + mpls_refresh_1h) mpls_state
    (Printf.sprintf "%.1f MB encap" (encap /. 1e6));
  Format.printf "%-26s %14d %14s %16s@." "IGP weight re-opt" wo_msgs
    (Printf.sprintf "%d weights" (List.length outcome.changed_weights))
    "0";
  Format.printf
    "@.Fibbing's messages are a handful of one-shot LSA floods; MPLS pays@.\
     per-tunnel signaling plus continuous refreshes and per-packet labels;@.\
     weight changes reconverge the whole IGP and move unrelated traffic@.\
     (max util after re-opt here: %.2f vs optimum %.2f).@."
    outcome.max_utilization (2. /. 3.)

let tscale_fib_width () =
  Format.printf "@.— splitting precision vs FIB width (max |realized - wanted|):@.";
  Format.printf "%8s %12s %12s %12s@." "entries" "0.50/0.50" "0.33/0.67" "0.28/0.72";
  let cases = [ [| 0.5; 0.5 |]; [| 1. /. 3.; 2. /. 3. |]; [| 0.28; 0.72 |] ] in
  List.iter
    (fun width ->
      let errors =
        List.map
          (fun fractions ->
            let m = Kit.Ratio.approximate ~max_total:width fractions in
            Kit.Ratio.max_error fractions m)
          cases
      in
      match errors with
      | [ a; b; c ] -> Format.printf "%8d %12.4f %12.4f %12.4f@." width a b c
      | _ -> ())
    [ 2; 3; 4; 8; 16; 32 ]

let surge_requirements net prefix egress sources demand capacity =
  let g = Igp.Network.graph net in
  let commodities =
    List.map (fun src -> { Te.Mcf.src; dst = egress; prefix; demand }) sources
  in
  let result =
    Te.Mcf.solve ~epsilon:0.1 g ~capacities:(fun _ -> capacity) commodities
  in
  Te.Decompose.to_requirements net ~prefix (List.assoc prefix result.flows)

let tscale () =
  section "TSCALE" "§1/§2: control-plane cost scaling with topology size";
  Format.printf
    "Scenario per size: 3-ingress flash crowd to one prefix; requirements@.\
     from the (1-eps)-optimal min-max flow; lie compilation + merger.@.@.";
  Format.printf "%8s %8s %10s %10s %12s %12s %12s@." "routers" "links" "fakes"
    "merged" "compile[ms]" "merge[ms]" "flood msgs";
  List.iter
    (fun core ->
      let prng = Kit.Prng.create ~seed:(42 + core) in
      let g = T.two_level prng ~core ~edge_per_core:2 in
      let net = Igp.Network.create g in
      let egress = G.find_node_exn g "C0" in
      Igp.Network.announce_prefix net (pfx "cdn") ~origin:egress ~cost:0;
      let sources =
        [
          G.find_node_exn g (Printf.sprintf "E%d_0" (core / 2));
          G.find_node_exn g (Printf.sprintf "E%d_1" (core / 2));
          G.find_node_exn g (Printf.sprintf "E%d_0" (core - 1));
        ]
      in
      let reqs = surge_requirements net (pfx "cdn") egress sources 120. 100. in
      let t0 = Sys.time () in
      match Fibbing.Augmentation.compile ~max_entries:8 net reqs with
      | Error e -> Format.printf "%8d compile failed: %s@." (G.node_count g) e
      | Ok plan ->
        let t1 = Sys.time () in
        let merged = Fibbing.Merger.minimize net reqs plan in
        let t2 = Sys.time () in
        Fibbing.Augmentation.apply net merged;
        Format.printf "%8d %8d %10d %10d %12.1f %12.1f %12d@." (G.node_count g)
          (G.edge_count g / 2)
          (Fibbing.Augmentation.fake_count plan)
          (Fibbing.Augmentation.fake_count merged)
          ((t1 -. t0) *. 1000.)
          ((t2 -. t1) *. 1000.)
          (Igp.Network.control_cost net).messages)
    [ 4; 6; 8; 10; 12 ];
  tscale_fib_width ();
  Format.printf
    "@.Paper check: the lie stays small (a few fakes per lied-to router,@.\
     sub-second compilation) — the \"very limited control-plane overhead\"@.\
     claim; wider FIBs buy split precision at the price of more fakes.@."

let topt () =
  section "TOPT" "§2: Fibbing implements the (near-)optimal min-max solution";
  Format.printf
    "Random 16-router topologies, 3-ingress surge of 120 units each,@.\
     100-unit links. Utilizations: plain IGP/ECMP, weight re-opt,@.\
     LP-optimal (FPTAS), and what Fibbing actually realizes.@.@.";
  Format.printf "%6s %10s %12s %11s %10s %12s %8s@." "seed" "IGP" "weight-opt"
    "oblivious" "optimal" "fibbing" "fakes";
  List.iter
    (fun seed ->
      let prng = Kit.Prng.create ~seed in
      let g = T.random prng ~n:16 ~extra_edges:16 ~max_weight:3 in
      let egress = 0 in
      let sources = [ 5; 10; 15 ] in
      let capacity = 100. in
      let caps = Netsim.Link.capacities ~default:capacity in
      let fresh () =
        let net = Igp.Network.create (G.copy g) in
        Igp.Network.announce_prefix net (pfx "cdn") ~origin:egress ~cost:0;
        net
      in
      let demands =
        List.map
          (fun src -> { Netsim.Loadmap.src; prefix = pfx "cdn"; amount = 120. })
          sources
      in
      let util net =
        match
          Netsim.Loadmap.max_utilization (Netsim.Loadmap.propagate net demands) caps
        with
        | Some (_, u) -> u
        | None -> 0.
      in
      let igp_util = util (fresh ()) in
      let wo_net = fresh () in
      let wo =
        (Te.Weightopt.optimize ~max_rounds:2 wo_net demands caps).max_utilization
      in
      let fib_net = fresh () in
      let commodities =
        List.map
          (fun src -> { Te.Mcf.src; dst = egress; prefix = pfx "cdn"; demand = 120. })
          sources
      in
      let oblivious =
        Te.Oblivious.max_utilization
          ~capacities:(fun _ -> capacity)
          (Te.Oblivious.spread ~k:3 (Igp.Network.graph fib_net) commodities)
      in
      let result =
        Te.Mcf.solve ~epsilon:0.1 (Igp.Network.graph fib_net)
          ~capacities:(fun _ -> capacity)
          commodities
      in
      let optimal =
        Te.Mcf.max_utilization (Igp.Network.graph fib_net)
          ~capacities:(fun _ -> capacity)
          result
      in
      let reqs =
        Te.Decompose.to_requirements fib_net ~prefix:(pfx "cdn")
          (List.assoc (pfx "cdn") result.flows)
      in
      match Fibbing.Augmentation.compile ~max_entries:16 fib_net reqs with
      | Error e -> Format.printf "%6d fibbing compile failed: %s@." seed e
      | Ok plan ->
        Fibbing.Augmentation.apply fib_net plan;
        Format.printf "%6d %10.2f %12.2f %11.2f %10.2f %12.2f %8d@." seed
          igp_util wo oblivious optimal (util fib_net)
          (Fibbing.Augmentation.fake_count plan))
    [ 1; 2; 3; 4; 5 ];
  Format.printf
    "@.Paper check: Fibbing tracks the optimum (within FIB quantization)@.\
     where plain ECMP overloads links by 2-3x and weight search gets@.\
     stuck above it.@."

(* ------------------------------------------------------------------ *)
(* Extension experiments (beyond the paper's figures): ABR ladders,
   AIMD dynamics, real topologies, transient-safe ordering. *)

let tabr () =
  section "TABR" "extension: adaptive-bitrate ladders with and without Fibbing";
  let burst = 1024. *. 1024. in
  let load (d : Demo.t) =
    let flow ~id ~src ~start_time =
      Netsim.Flow.make ~id ~src ~prefix:Demo.prefix ~demand:burst ~start_time
        ~duration:300. ()
    in
    let flows =
      flow ~id:0 ~src:d.topology.a ~start_time:0.
      :: (List.init 8 (fun i -> flow ~id:(1 + i) ~src:d.topology.a ~start_time:15.)
         @ List.init 8 (fun i -> flow ~id:(9 + i) ~src:d.topology.b ~start_time:35.))
    in
    List.iter (Netsim.Sim.add_flow d.sim) flows;
    flows
  in
  Format.printf "%-16s %14s %8s %12s %10s@." "scenario" "mean bitrate" "stalls"
    "s at top" "switches";
  List.iter
    (fun fibbing ->
      let d = Demo.make ~fibbing () in
      let flows = load d in
      Demo.run d ~until:55.;
      let results =
        List.map (fun flow -> Video.Client.replay_abr ~dt:d.Demo.dt (Video.Client.trace d.Demo.sim flow)) flows
      in
      let n = float_of_int (List.length results) in
      let mean f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
      Format.printf "%-16s %14.0f %8.0f %12.1f %10.1f@."
        (if fibbing then "fibbing ON" else "fibbing OFF")
        (mean (fun (r : Video.Client.result) -> r.mean_bitrate))
        (List.fold_left
           (fun acc (r : Video.Client.result) -> acc +. float_of_int r.stall_count)
           0. results)
        (mean (fun (r : Video.Client.result) -> r.time_at_top))
        (mean (fun (r : Video.Client.result) -> float_of_int r.switches)))
    [ true; false ];
  Format.printf
    "@.Fibbing roughly doubles the sustained bitrate for the same crowd:@.\
     congestion shows up as ladder downshifts even when buffers avoid@.\
     outright stalls.@."

let taimd () =
  section "TAIMD" "ablation: Fig. 2 under TCP-like AIMD rate dynamics";
  let d =
    Demo.make ~fibbing:true ~rate_model:(Netsim.Sim.Aimd (Netsim.Aimd.create ())) ()
  in
  let flows = Demo.load_fig2_workload d in
  Demo.run d ~until:55.;
  Format.printf "%a@." (Kit.Timeseries.pp_rows ~step:2.5) (Demo.fig2_series d);
  let q = Demo.qoe d ~flows in
  Format.printf "QoE under AIMD: %a@." Video.Qoe.pp q;
  Format.printf
    "@.Same qualitative Fig. 2 shape as the fluid model, with visible@.\
     ramps after each surge; the controller's reactions land within a@.\
     poll or two of the fluid run's.@."

let tzoo () =
  section "TZOO" "extension: optimality experiment on real backbone topologies";
  Format.printf "%-10s %8s %8s %10s %10s %12s %8s@." "network" "routers" "links"
    "IGP" "optimal" "fibbing" "fakes";
  List.iter
    (fun (entry : Netgraph.Zoo.entry) ->
      let g = entry.graph in
      let n = G.node_count g in
      let egress = 0 in
      let sources = [ n - 1; n / 2; n / 3 ] in
      let capacity = 100. in
      let caps = Netsim.Link.capacities ~default:capacity in
      let net = Igp.Network.create (G.copy g) in
      Igp.Network.announce_prefix net (pfx "cdn") ~origin:egress ~cost:0;
      let demands =
        List.map
          (fun src -> { Netsim.Loadmap.src; prefix = pfx "cdn"; amount = 120. })
          sources
      in
      let util network =
        match
          Netsim.Loadmap.max_utilization
            (Netsim.Loadmap.propagate network demands)
            caps
        with
        | Some (_, u) -> u
        | None -> 0.
      in
      let igp_util = util net in
      let commodities =
        List.map
          (fun src -> { Te.Mcf.src; dst = egress; prefix = pfx "cdn"; demand = 120. })
          sources
      in
      let result =
        Te.Mcf.solve ~epsilon:0.1 (Igp.Network.graph net)
          ~capacities:(fun _ -> capacity)
          commodities
      in
      let optimal =
        Te.Mcf.max_utilization (Igp.Network.graph net)
          ~capacities:(fun _ -> capacity)
          result
      in
      let reqs =
        Te.Decompose.to_requirements net ~prefix:(pfx "cdn")
          (List.assoc (pfx "cdn") result.flows)
      in
      match Fibbing.Augmentation.compile ~max_entries:16 net reqs with
      | Error e -> Format.printf "%-10s compile failed: %s@." entry.name e
      | Ok plan ->
        Fibbing.Augmentation.apply net plan;
        Format.printf "%-10s %8d %8d %10.2f %10.2f %12.2f %8d@." entry.name n
          (G.edge_count g / 2) igp_util optimal (util net)
          (Fibbing.Augmentation.fake_count plan))
    (Netgraph.Zoo.all ())

let ttrans () =
  section "TTRANS" "extension: transiently safe lie installation order";
  let d, net = demo_net () in
  let names = G.name d.graph in
  (* The pinning scenario: R3 must forward via B; installing R3's lie
     before B's pin loops through B. *)
  let reqs =
    Fibbing.Requirements.make ~prefix:(pfx "blue") [ (d.r3, [ (d.b, 1.0) ]) ]
  in
  match Fibbing.Augmentation.compile net reqs with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok plan ->
    Format.printf "plan: %d fakes (%d pinned routers) for 'R3 forwards via B'@."
      (Fibbing.Augmentation.fake_count plan)
      (List.length plan.pinned);
    (* How many of the possible positions for R3's lie are unsafe? *)
    let is_r3 (f : Igp.Lsa.fake) = f.attachment = d.r3 in
    let r3_fake = List.find is_r3 plan.fakes in
    let others = List.filter (fun f -> not (is_r3 f)) plan.fakes in
    let rec insert_at i xs =
      match (i, xs) with
      | 0, rest -> r3_fake :: rest
      | n, x :: rest -> x :: insert_at (n - 1) rest
      | _, [] -> [ r3_fake ]
    in
    List.iter
      (fun position ->
        let order = insert_at position others in
        match Fibbing.Transient.check_order net ~prefix:(pfx "blue") order with
        | Ok () ->
          Format.printf "  R3's lie at position %d: safe@." (position + 1)
        | Error v ->
          Format.printf "  R3's lie at position %d: UNSAFE at step %d (%s)@."
            (position + 1) v.step v.problem)
      (List.init (List.length plan.fakes) Fun.id);
    (match Fibbing.Transient.safe_order net plan with
    | Ok order ->
      Format.printf "safe order found: %s@."
        (String.concat " -> "
           (List.map
              (fun (f : Igp.Lsa.fake) ->
                Printf.sprintf "%s@%s" f.fake_id (names f.attachment))
              order))
    | Error e -> Format.printf "no safe order: %s@." e);
    Format.printf
      "@.The controller always installs lies along such an order, so the@.\
       network never transits a looping state between LSA floods.@."

let tfail () =
  section "TFAIL" "extension: flash crowd + link failure, controller healing";
  Format.printf
    "31 streams from S1@@A; the link B-R2 fails at t=25 while loaded.@.\
     The controller must escalate to A (B's surviving exit alone cannot@.\
     carry the crowd) and split across B and R1.@.@.";
  List.iter
    (fun fibbing ->
      let d = Demo.make ~fibbing () in
      for i = 0 to 30 do
        Netsim.Sim.add_flow d.Demo.sim
          (Netsim.Flow.make ~id:i ~src:d.Demo.topology.a ~prefix:Demo.prefix
             ~demand:Demo.stream_rate ())
      done;
      Netsim.Sim.fail_link d.Demo.sim ~time:25.
        (d.Demo.topology.b, d.Demo.topology.r2);
      Demo.run d ~until:50.;
      Format.printf "— controller %s:@." (if fibbing then "ON" else "OFF");
      Format.printf "%a@." (Kit.Timeseries.pp_rows ~step:5.) (Demo.fig2_series d);
      (match d.Demo.controller with
      | Some c ->
        List.iter
          (fun (a : Fibbing.Controller.action) ->
            Format.printf "  action [%5.1f s] %s@." a.time a.description)
          (Fibbing.Controller.actions c)
      | None -> ());
      let flows =
        List.filter (fun (f : Netsim.Flow.t) -> f.prefix = Demo.prefix)
          (Netsim.Sim.active_flows d.Demo.sim)
      in
      let q = Demo.qoe d ~flows in
      Format.printf "  QoE: %a@.@." Video.Qoe.pp q)
    [ true; false ]

let tctrl () =
  section "TCTRL" "ablation: monitor poll interval vs reaction time and QoE";
  Format.printf
    "The Fig. 2 workload under different SNMP polling periods; faster@.\
     polling reacts sooner at the price of more measurement traffic.@.@.";
  Format.printf "%10s %14s %14s %10s %8s@." "poll[s]" "1st action[s]"
    "2nd action[s]" "stalls" "smooth";
  List.iter
    (fun poll_interval ->
      let topology = T.demo () in
      let net = Igp.Network.create topology.graph in
      Igp.Network.announce_prefix net Demo.prefix ~origin:topology.c ~cost:0;
      let caps = Netsim.Link.capacities ~default:Demo.backbone_capacity in
      List.iter
        (fun link -> Netsim.Link.set_link caps link Demo.link_capacity)
        [
          (topology.a, topology.r1);
          (topology.b, topology.r2);
          (topology.b, topology.r3);
        ];
      let monitor =
        Netsim.Monitor.create ~poll_interval ~threshold:0.85 ~clear_threshold:0.6
          ~alpha:0.8 caps
      in
      let sim = Netsim.Sim.create ~dt:0.5 ~monitor ~flow_history:true net caps in
      let controller =
        Fibbing.Controller.create
          ~config:
            {
              Fibbing.Controller.default_config with
              cooldown = max 2. poll_interval;
            }
          net
      in
      Fibbing.Controller.attach controller sim;
      let flows =
        Video.Workload.fig2_schedule ~s1:topology.a ~s2:topology.b
          ~prefix:Demo.prefix ~rate:Demo.stream_rate ~video_duration:300.
      in
      List.iter (Netsim.Sim.add_flow sim) flows;
      Netsim.Sim.run_until sim 55.;
      let actions = Fibbing.Controller.actions controller in
      let action_time i =
        match List.nth_opt actions i with
        | Some (a : Fibbing.Controller.action) -> Printf.sprintf "%.1f" a.time
        | None -> "-"
      in
      let results =
        List.map (fun flow -> Video.Client.replay ~dt:0.5 (Video.Client.trace sim flow)) flows
      in
      let q = Video.Qoe.summarize results in
      Format.printf "%10.1f %14s %14s %10d %8d@." poll_interval (action_time 0)
        (action_time 1) q.total_stalls q.smooth_sessions)
    [ 1.0; 2.0; 4.0; 8.0 ];
  Format.printf
    "@.Reactions land on the first or second poll after the surge crosses@.\
     the threshold; slow polling delays the fix and costs smooth sessions.@."

let tstrat () =
  section "TSTRAT" "ablation: local deflection vs global re-optimization";
  Format.printf
    "The Fig. 2 workload handled by the two controller strategies: the@.\
     demo's local residual-capacity deflection, and full min-max@.\
     re-optimization (Te pipeline) on every reaction.@.@.";
  Format.printf "%-18s %8s %12s %10s %10s %8s@." "strategy" "fakes" "ctrl msgs"
    "stalls" "smooth" "MOS";
  List.iter
    (fun (label, strategy, max_entries) ->
      let topology = T.demo () in
      let net = Igp.Network.create topology.graph in
      Igp.Network.announce_prefix net Demo.prefix ~origin:topology.c ~cost:0;
      let caps = Netsim.Link.capacities ~default:Demo.backbone_capacity in
      List.iter
        (fun link -> Netsim.Link.set_link caps link Demo.link_capacity)
        [
          (topology.a, topology.r1);
          (topology.b, topology.r2);
          (topology.b, topology.r3);
        ];
      let monitor =
        Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85
          ~clear_threshold:0.6 ~alpha:0.8 caps
      in
      let sim = Netsim.Sim.create ~dt:0.5 ~monitor ~flow_history:true net caps in
      let controller =
        Fibbing.Controller.create
          ~config:{ Fibbing.Controller.default_config with strategy; max_entries }
          ~reoptimize:Te.Reopt.for_controller net
      in
      Fibbing.Controller.attach controller sim;
      let flows =
        Video.Workload.fig2_schedule ~s1:topology.a ~s2:topology.b
          ~prefix:Demo.prefix ~rate:Demo.stream_rate ~video_duration:300.
      in
      List.iter (Netsim.Sim.add_flow sim) flows;
      Netsim.Sim.run_until sim 55.;
      let results =
        List.map (fun flow -> Video.Client.replay ~dt:0.5 (Video.Client.trace sim flow)) flows
      in
      let q = Video.Qoe.summarize results in
      Format.printf "%-18s %8d %12d %10d %10d %8.2f@." label
        (Fibbing.Controller.fake_count controller)
        (Igp.Network.control_cost net).messages q.total_stalls q.smooth_sessions
        q.mos)
    [
      ("local (demo)", Fibbing.Controller.Local_deflection, 4);
      ("global optimal", Fibbing.Controller.Global_optimal, 16);
    ];
  Format.printf
    "@.Both strategies keep the crowd smooth; the local one does it with@.\
     a handful of lies (the paper's 3), the global one spends more fakes@.\
     and messages to track the exact optimum — the expected trade-off.@."

let tconv () =
  section "TCONV" "extension: reconvergence micro-loops, lies vs weight changes";
  let pp_report label (r : Igp.Convergence.report) =
    Format.printf "%-34s %8d %8d %12.3f %12s@." label r.states r.unsafe_states
      r.unsafe_window
      (match r.first_problem with
      | Some (t, _) -> Printf.sprintf "%.3f s" t
      | None -> "-")
  in
  Format.printf "%-34s %8s %8s %12s %12s@." "change" "changed" "unsafe"
    "window[s]" "first issue";
  (* 1. The demo's fB injection: one router changes, zero unsafe states. *)
  let d, net = demo_net () in
  let after = Igp.Network.clone net in
  Igp.Network.inject_fake after
    {
      fake_id = "fB";
      attachment = d.b;
      attachment_cost = 1;
      prefix = pfx "blue";
      announced_cost = 1;
      forwarding = d.r3;
    };
  pp_report "Fibbing: inject fB (demo)"
    (Igp.Convergence.analyze ~before:net ~after ~origin:d.b ~prefix:(pfx "blue") ());
  (* 2. The full three-fake demo plan, injected as one converged batch
     per fake (the controller's safe order). *)
  let after3 = Igp.Network.clone net in
  (match
     Fibbing.Augmentation.compile ~max_entries:4 after3 (demo_requirements d)
   with
  | Ok plan -> Fibbing.Augmentation.apply after3 plan
  | Error e -> Format.printf "compile failed: %s@." e);
  pp_report "Fibbing: full demo plan"
    (Igp.Convergence.analyze ~before:net ~after:after3 ~origin:d.a ~prefix:(pfx "blue") ());
  (* 3. A textbook weight degradation with a known micro-loop. *)
  let g = G.create () in
  let a = G.add_node g ~name:"A" in
  let b = G.add_node g ~name:"B" in
  let c = G.add_node g ~name:"C" in
  let t = G.add_node g ~name:"T" in
  ignore b;
  ignore c;
  G.add_link g c t ~weight:5;
  G.add_link g c b ~weight:1;
  G.add_link g b a ~weight:1;
  G.add_link g a t ~weight:1;
  let chain_before = Igp.Network.create g in
  Igp.Network.announce_prefix chain_before (pfx "p") ~origin:t ~cost:0;
  let chain_after = Igp.Network.clone chain_before in
  Igp.Network.set_weight chain_after a t ~weight:10;
  Igp.Network.set_weight chain_after t a ~weight:10;
  pp_report "weight x10 on chain (degrade)"
    (Igp.Convergence.analyze ~before:chain_before ~after:chain_after ~origin:a
       ~prefix:(pfx "p") ());
  (* 4. The weight re-optimization computed in TOVH, replayed change by
     change on the demo network. *)
  let scratch = Igp.Network.clone net in
  let outcome =
    Te.Weightopt.optimize scratch (demo_demands d)
      (Netsim.Link.capacities ~default:100.)
  in
  let rolling = Igp.Network.clone net in
  let total_states = ref 0 and total_unsafe = ref 0 and total_window = ref 0. in
  List.iter
    (fun ((u, v), _, new_weight) ->
      let next = Igp.Network.clone rolling in
      Igp.Network.set_weight next u v ~weight:new_weight;
      let r =
        Igp.Convergence.analyze ~before:rolling ~after:next ~origin:u
          ~prefix:(pfx "blue") ()
      in
      total_states := !total_states + r.states;
      total_unsafe := !total_unsafe + r.unsafe_states;
      total_window := !total_window +. r.unsafe_window;
      Igp.Network.set_weight rolling u v ~weight:new_weight)
    outcome.changed_weights;
  Format.printf "%-34s %8d %8d %12.3f %12s@."
    (Printf.sprintf "weight re-opt (%d changes, demo)"
       (List.length outcome.changed_weights))
    !total_states !total_unsafe !total_window "-";
  Format.printf
    "@.Fibbing's equal-cost additions change exactly the targeted routers@.\
     and never traverse a looping state; weight changes replay a full@.\
     network reconvergence each, with micro-loop windows when update@.\
     orders interleave badly (the chain example). This is the mechanism@.\
     behind \"changing link weights ... is too slow for a transient@.\
     event\" (§2).@."

let tmicro () =
  section "TMICRO" "extension: live packet loss during reconvergence";
  Format.printf
    "Flows in flight while the routing changes, with asynchronous FIB@.\
     installation (flood 0.5 s/hop, SPF 1 s — slowed for visibility).@.\
     Lost time = flow-seconds with no usable path.@.@.";
  let slow =
    { Igp.Convergence.flood_per_hop = 0.5; spf_delay = 1.0; jitter = 0.25 }
  in
  let run label ~build ~change =
    let net, src, prefix = build () in
    let caps = Netsim.Link.capacities ~default:100. in
    let sim = Netsim.Sim.create ~dt:0.25 ~convergence:slow net caps in
    for i = 0 to 4 do
      Netsim.Sim.add_flow sim
        (Netsim.Flow.make ~id:i ~src ~prefix ~demand:5. ())
    done;
    Netsim.Sim.schedule sim ~time:5. change;
    let lost = ref 0. in
    Netsim.Sim.on_step sim (fun sim ->
        lost :=
          !lost +. (0.25 *. float_of_int (List.length (Netsim.Sim.unroutable_flows sim))));
    Netsim.Sim.run_until sim 15.;
    Format.printf "%-40s %10.2f flow-seconds lost@." label !lost
  in
  run "weight degradation (micro-loop chain)"
    ~build:(fun () ->
      let g = G.create () in
      let a = G.add_node g ~name:"A" in
      let b = G.add_node g ~name:"B" in
      let c = G.add_node g ~name:"C" in
      let t = G.add_node g ~name:"T" in
      ignore b;
      G.add_link g c t ~weight:5;
      G.add_link g c b ~weight:1;
      G.add_link g b a ~weight:1;
      G.add_link g a t ~weight:1;
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:t ~cost:0;
      (net, c, pfx "p"))
    ~change:(fun sim ->
      let net = Netsim.Sim.network sim in
      let g = Igp.Network.graph net in
      let a = G.find_node_exn g "A" and t = G.find_node_exn g "T" in
      Igp.Network.set_weight net a t ~weight:10;
      Igp.Network.set_weight net t a ~weight:10);
  run "Fibbing lie (fB on the demo network)"
    ~build:(fun () ->
      let d, net = demo_net () in
      (d.a |> fun src -> (net, src, pfx "blue")))
    ~change:(fun sim ->
      let net = Netsim.Sim.network sim in
      let g = Igp.Network.graph net in
      Igp.Network.inject_fake net
        {
          fake_id = "fB";
          attachment = G.find_node_exn g "B";
          attachment_cost = 1;
          prefix = pfx "blue";
          announced_cost = 1;
          forwarding = G.find_node_exn g "R3";
        });
  Format.printf
    "@.The weight change strands in-flight traffic inside the A/B@.\
     micro-loop until both routers have installed the new FIBs; the@.\
     Fibbing lie is adopted without a single lost flow-second.@."

let tplan () =
  section "TPLAN" "extension: what-if planning instead of over-provisioning";
  Format.printf
    "For the demo's surge matrix (100 units from A and from B), the@.\
     precomputed Fibbing plan per single-link-failure scenario:@.@.";
  let d, net = demo_net () in
  let entries =
    Te.Planner.prepare net ~demands:(demo_demands d) ~capacity:100.
      ~scenarios:(Te.Planner.single_link_failures d.graph)
  in
  Format.printf "%-24s %10s %10s %10s %8s@." "scenario" "IGP util" "planned"
    "optimal" "fakes";
  List.iter
    (fun (e : Te.Planner.entry) ->
      Format.printf "%-24s %10.2f %10.2f %10.2f %8s@."
        (Format.asprintf "%a" (Te.Planner.pp_scenario d.graph) e.scenario)
        e.igp_utilization e.planned_utilization e.optimal_utilization
        (match e.plan with
        | Some plan -> string_of_int (Fibbing.Augmentation.fake_count plan)
        | None -> "-"))
    entries;
  let worst = Te.Planner.worst_case entries in
  let worst_igp =
    List.fold_left
      (fun acc (e : Te.Planner.entry) -> max acc e.igp_utilization)
      0. entries
  in
  Format.printf
    "@.Provisioning target with Fibbing: %.2f (worst scenario: %a);@.\
     without it the same guarantee needs %.2f — a %.1fx over-provisioning@.\
     factor that the paper's intro calls \"expensive and wasteful\".@."
    worst.planned_utilization
    (Te.Planner.pp_scenario d.graph)
    worst.scenario worst_igp
    (worst_igp /. worst.planned_utilization)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per computational stage. *)

let bechamel_timings () =
  section "TIMINGS" "Bechamel micro-benchmarks (one per pipeline stage)";
  let open Bechamel in
  let open Toolkit in
  let d, net = demo_net () in
  let _, spf_net = demo_net () in
  let big_prng = Kit.Prng.create ~seed:7 in
  let big = T.two_level big_prng ~core:10 ~edge_per_core:2 in
  let big_net = Igp.Network.create big in
  Igp.Network.announce_prefix big_net (pfx "cdn") ~origin:(G.find_node_exn big "C0")
    ~cost:0;
  (* One router's cold refill: stage 1 (its Dijkstra) plus every row. *)
  let refill net ~router prefix =
    Igp.Spf_engine.invalidate_all (Igp.Network.engine net);
    Igp.Network.fib net ~router prefix
  in
  let reqs = demo_requirements d in
  let demo_for_step = Demo.make ~fibbing:true () in
  ignore (Demo.load_fig2_workload demo_for_step);
  Demo.run demo_for_step ~until:40.;
  let tests =
    [
      Test.make ~name:"spf-demo (F1A)"
        (Staged.stage (fun () -> refill spf_net ~router:d.a (pfx "blue")));
      Test.make ~name:"spf-30routers (TSCALE)"
        (Staged.stage (fun () ->
             refill big_net ~router:(G.find_node_exn big "C5") (pfx "cdn")));
      Test.make ~name:"compile-demo (F1C)"
        (Staged.stage (fun () ->
             match Fibbing.Augmentation.compile ~max_entries:4 net reqs with
             | Ok plan -> ignore (Fibbing.Augmentation.fake_count plan)
             | Error _ -> ()));
      Test.make ~name:"loadmap (F1B/F1D)"
        (Staged.stage (fun () ->
             ignore (Netsim.Loadmap.propagate net (demo_demands d))));
      Test.make ~name:"sim-step 62 flows (F2)"
        (Staged.stage (fun () ->
             Demo.run demo_for_step
               ~until:(Netsim.Sim.time demo_for_step.Demo.sim +. 0.5)));
      Test.make ~name:"mcf-fptas 16n (TOPT)"
        (Staged.stage (fun () ->
             let prng = Kit.Prng.create ~seed:3 in
             let g = T.random prng ~n:16 ~extra_edges:16 ~max_weight:3 in
             ignore
               (Te.Mcf.solve ~epsilon:0.2 g
                  ~capacities:(fun _ -> 100.)
                  [ { src = 5; dst = 0; prefix = pfx "p"; demand = 100. } ])));
      Test.make ~name:"ratio-approx (TSCALE)"
        (Staged.stage (fun () ->
             ignore (Kit.Ratio.approximate ~max_total:16 [| 0.28; 0.72 |])));
      Test.make ~name:"flooding (TOVH)"
        (Staged.stage (fun () -> ignore (Igp.Flooding.flood big ~origin:0)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Format.printf "%-28s %16s@." "stage" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Printf.sprintf "%14.0f" x
            | Some [] | None -> "n/a"
          in
          Format.printf "%-28s %16s@." name estimate)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Perf tracks. Each one returns its results as bench-history rows plus
   whether its gate passed; the driver at the bottom of this file prints
   the rows, writes BENCH_<track>.json and appends to the history file.
   Every timed region holds only the work under test: oracles and
   equivalence probes run outside it. *)

let row track values = { Obs.History.tag = ""; track; values }
let num = float_of_int
let flag b = if b then 1. else 0.

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, (Unix.gettimeofday () -. t0) *. 1000.)

(* [repeat] wall-clock samples of [f]; [prepare] runs untimed before
   each one. All samples are kept so percentiles come from real data. *)
let wall_samples ?(prepare = ignore) ~repeat f =
  List.init repeat (fun _ ->
      prepare ();
      snd (time_ms f))

let best = List.fold_left min infinity

(* GEANT with one prefix per PoP — the all-routers x all-prefixes table a
   real deployment keeps converged — and a churn step that alternately
   installs and retracts one fake. The fake attaches near router 0 and
   lies about the prefix of the farthest PoP, so a realistic fraction of
   routers is affected. *)
let geant_churn () =
  let g = (Netgraph.Zoo.geant ()).Netgraph.Zoo.graph in
  let net = Igp.Network.create g in
  List.iter
    (fun r ->
      Igp.Network.announce_prefix net (pfx (Printf.sprintf "p%02d" r)) ~origin:r
        ~cost:0)
    (G.nodes g);
  let far =
    let r = Netgraph.Dijkstra.run g ~source:0 in
    List.fold_left
      (fun best v ->
        match (Netgraph.Dijkstra.distance r v, Netgraph.Dijkstra.distance r best) with
        | Some dv, Some db when dv > db -> v
        | _ -> best)
      0 (G.nodes g)
  in
  let flip = ref false in
  let churn () =
    flip := not !flip;
    if !flip then
      Igp.Network.inject_fake net
        {
          fake_id = "bench";
          attachment = 0;
          attachment_cost = 1;
          prefix = pfx (Printf.sprintf "p%02d" far);
          announced_cost = 0;
          forwarding = fst (List.hd (G.succ g 0));
        }
    else Igp.Network.retract_fake net ~fake_id:"bench"
  in
  (g, net, churn)

(* TSPF: the SPF engine's cold warm and its reconvergence under lie
   churn. Gate: fake-only churn must run no Dijkstra (stage 1 survives
   every lie; only the lied-about prefix's rows are rewritten). *)
let tspf churns =
  let g, net, churn = geant_churn () in
  let prefixes = Igp.Lsdb.prefix_list (Igp.Network.lsdb net) in
  let engine = Igp.Network.engine net in
  (* Engine, cold: one Dijkstra per router, then every prefix's row. *)
  let cold =
    wall_samples ~repeat:10
      ~prepare:(fun () -> Igp.Spf_engine.invalidate_all engine)
      (fun () -> Igp.Network.warm net)
  in
  (* Engine, churn: install/retract one fake and reconverge the table. *)
  Igp.Network.warm net;
  let s0 = Igp.Spf_engine.stats engine in
  let churned =
    wall_samples ~repeat:churns ~prepare:churn (fun () -> Igp.Network.warm net)
  in
  let s1 = Igp.Spf_engine.stats engine in
  let dijkstras_per_churn = num (s1.spf_runs - s0.spf_runs) /. num churns in
  let pcts label samples =
    List.map
      (fun p ->
        (Printf.sprintf "engine_%s_p%.0f_ms" label p, Kit.Stats.percentile p samples))
      [ 50.; 95.; 99. ]
  in
  ( [
      row "spf"
        ([
           ("routers", num (G.node_count g));
           ("links", num (G.edge_count g / 2));
           ("prefixes", num (List.length prefixes));
           ("engine_cold_ms", best cold);
           ("engine_churn_ms", best churned);
         ]
        @ pcts "cold" cold @ pcts "churn" churned
        @ [
            ( "avg_dirty_routers",
              num (s1.routers_dirtied - s0.routers_dirtied) /. num churns );
            ("dijkstras_per_churn", dijkstras_per_churn);
          ]);
    ],
    dijkstras_per_churn = 0. )

(* TFLOW: the flow engine at flash-crowd scale — flow-class aggregation
   plus the indexed water-filling kernel vs the seed's per-flow list
   allocator. *)
let tflow counts =
  let rec links_of_path = function
    | a :: (b :: _ as rest) -> (a, b) :: links_of_path rest
    | [] | [ _ ] -> []
  in
  (* Two arenas: the paper's demo network (two servers surging towards
     the blue prefix) and the GEANT zoo (several PoPs towards one CDN
     prefix), so the kernel is exercised on both a 3-bottleneck toy and
     a real backbone. *)
  let demo_case () =
    let d = T.demo () in
    let net = Igp.Network.create d.graph in
    Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
    let caps = Netsim.Link.capacities ~default:Demo.backbone_capacity in
    List.iter
      (fun link -> Netsim.Link.set_link caps link Demo.link_capacity)
      [ (d.a, d.r1); (d.b, d.r2); (d.b, d.r3) ];
    ("demo", net, caps, pfx "blue", [ d.a; d.b ])
  in
  let geant_case () =
    let g = (Netgraph.Zoo.geant ()).Netgraph.Zoo.graph in
    let net = Igp.Network.create g in
    Igp.Network.announce_prefix net (pfx "cdn") ~origin:0 ~cost:0;
    let caps = Netsim.Link.capacities ~default:(64. *. 1024. *. 1024.) in
    (* Four ingress PoPs spread across the node range, none the origin. *)
    let nodes = G.nodes g in
    let n = List.length nodes in
    ("geant", net, caps, pfx "cdn",
     List.filteri (fun i _ -> i > 0 && i mod (n / 4) = 0) nodes)
  in
  let prng = Kit.Prng.create ~seed:23 in
  let rows =
    List.concat_map
      (fun (name, net, caps, prefix, sources) ->
        let specs =
          List.map
            (fun src ->
              { Video.Workload.src; prefix; rate = Demo.stream_rate;
                video_duration = 86_400. })
            sources
        in
        List.map
          (fun count ->
            let repeat = if count >= 100_000 then 3 else 5 in
            let flows =
              Video.Workload.crowd ~jitter:0. prng specs ~first_id:0 ~count
                ~at:0.
            in
            (* New engine: full simulation steps (routing, allocation,
               link rates) over the aggregated classes; no histories,
               as a crowd run would have it. *)
            let sim = Netsim.Sim.create ~dt:0.5 ~aggregation:true net caps in
            List.iter (Netsim.Sim.add_flow sim) flows;
            Netsim.Sim.run_until sim 0.5;
            let engine =
              wall_samples ~repeat (fun () ->
                  Netsim.Sim.run_until sim (Netsim.Sim.time sim +. 0.5))
            in
            (* Seed path: the per-flow list allocator plus the per-route
               link-throughput scan — the allocation work the old step
               did every dt (its routing and bookkeeping costs are not
               charged, so the speedup is an underestimate). *)
            let routes =
              List.filter_map
                (fun (f : Netsim.Flow.t) ->
                  Option.map
                    (fun path ->
                      { Netsim.Fairshare.flow = f; links = links_of_path path })
                    (Netsim.Sim.flow_path sim f.id))
                flows
            in
            let seed =
              wall_samples ~repeat (fun () ->
                  ignore
                    (Netsim.Fairshare.link_throughput routes
                       (Netsim.Fairshare.allocate_reference caps routes)))
            in
            let p = Kit.Stats.percentile in
            row ("flow_" ^ name)
              [
                ("flows", num count);
                ("classes", num (Netsim.Sim.flow_classes sim));
                ("old_p50_ms", p 50. seed);
                ("old_p95_ms", p 95. seed);
                ("new_p50_ms", p 50. engine);
                ("new_p95_ms", p 95. engine);
                ("speedup_p50", p 50. seed /. p 50. engine);
              ])
          counts)
      [ demo_case (); geant_case () ]
  in
  (rows, true)

(* TPAR: multicore scale-out — a chaos seed sweep (one scenario per
   domain, the library's one parallel section) at 1/2/4/8 domains, with
   the width-1 run as the equivalence oracle. Speedups are whatever the
   machine gives (BENCH_par.json records its core count); the gate is
   unconditional — chaos verdicts and per-run timelines must be
   byte-identical at every width. *)
let tpar nseeds =
  let widths = [ 1; 2; 4; 8 ] in
  let seeds = List.init nseeds (fun i -> i + 1) in
  let chaos_track d =
    let pool = Kit.Pool.create ~domains:d () in
    let results, ms =
      time_ms (fun () -> Scenarios.Chaos.sweep ~pool ~seeds ~until:20. ())
    in
    (ms, List.map fst results)
  in
  (* A telemetry-on sweep must emit byte-identical per-run timelines. *)
  let timeline_sweep d =
    Obs.reset ();
    Obs.enable ();
    let results =
      Scenarios.Chaos.sweep
        ~pool:(Kit.Pool.create ~domains:d ())
        ~seeds:(List.filteri (fun i _ -> i < 4) seeds)
        ~until:20. ()
    in
    Obs.disable ();
    List.map (fun (v, tl) -> (v, Option.value ~default:"" tl)) results
  in
  let chaos = List.map chaos_track widths in
  let chaos_ok = List.for_all (fun (_, x) -> x = snd (List.hd chaos)) chaos in
  let tl1 = timeline_sweep 1 in
  let tl_ok = List.for_all (fun d -> timeline_sweep d = tl1) [ 2; 4 ] in
  let chaos1 = fst (List.hd chaos) in
  let rows =
    List.map2
      (fun d (chaos_ms, _) ->
        row "par"
          [
            ("domains", num d);
            ("chaos_seeds", num nseeds);
            ("chaos_sweep_ms", chaos_ms);
            ("chaos_speedup", chaos1 /. chaos_ms);
          ])
      widths chaos
  in
  ( rows
    @ [
        row "par_determinism"
          [ ("chaos_verdicts", flag chaos_ok); ("chaos_timelines", flag tl_ok) ];
      ],
    chaos_ok && tl_ok )

(* TFIB: prefix-scale FIB. A synthetic Zipf-nested prefix table is
   loaded into the compressed trie; we measure build time, aggregation
   ratio and approximate memory, then apply a fixed churn (re-steer /
   retract / re-install random prefixes) and measure per-update latency
   plus the deterministic visited-node counter. Gates:
     - after churn the aggregated trie must route every probed
       breakpoint address exactly like the flat table;
     - mean visited nodes per update must be independent of table size
       (the FAQS property: updates walk one path and refresh direct
       children only — never the whole trie).
   A GEANT row then times warm-up and lie churn with a synthesized
   table announced across the routers. *)
let tfib (scales, geant_prefixes, lies) =
  let churn_ops = 1_000 in
  let behaviors = 8 in
  let scale n =
    let prng = Kit.Prng.create ~seed:7 in
    let prefixes = Array.of_list (Igp.Prefix.synthesize prng ~n) in
    (* Behaviors come from a small distinct set, skewed so nested
       subnets usually share their covering aggregate's value — the
       redundancy FAQS exists to strip. *)
    let behavior () =
      let u = Kit.Prng.float prng 1. in
      int_of_float (float_of_int behaviors *. (u ** 3.))
    in
    let t = Igp.Fib_trie.create ~eq:Int.equal in
    let (), build_ms =
      time_ms (fun () ->
          Array.iter (fun p -> Igp.Fib_trie.update t p (behavior ())) prefixes)
    in
    let stats = Igp.Fib_trie.stats t in
    let visited0 = Igp.Fib_trie.visited t in
    let (), churn_ms =
      time_ms (fun () ->
          for _ = 1 to churn_ops do
            let p = Kit.Prng.pick prng prefixes in
            match Kit.Prng.int prng 3 with
            | 0 -> Igp.Fib_trie.remove t p
            | _ -> Igp.Fib_trie.update t p (behavior ())
          done)
    in
    let visited_per_update =
      num (Igp.Fib_trie.visited t - visited0) /. num churn_ops
    in
    (* Equivalence probe at breakpoints: each sampled prefix's first
       address, last address, and one past the end. *)
    let mismatches = ref 0 in
    for _ = 1 to 2_000 do
      let p = Kit.Prng.pick prng prefixes in
      List.iter
        (fun a ->
          let flat = Option.map snd (Igp.Fib_trie.lookup t a) in
          let agg = Option.map snd (Igp.Fib_trie.lookup_aggregated t a) in
          if flat <> agg then incr mismatches)
        [
          Igp.Prefix.first_addr p;
          Igp.Prefix.last_addr p;
          (Igp.Prefix.last_addr p + 1) land 0xFFFFFFFF;
        ]
    done;
    ( [
        row "fib_trie"
          [
            ("prefixes", num n);
            ("build_ms", build_ms);
            ("routes", num stats.routes);
            ("installed", num stats.installed);
            ("approx_bytes", num stats.approx_bytes);
            ("mismatches", num !mismatches);
          ];
        row "fib_update"
          [
            ("wall_ms", churn_ms /. num churn_ops);
            ("visited_per_update", visited_per_update);
            ("aggregation_ratio", stats.ratio);
            ("prefixes", num n);
          ];
      ],
      visited_per_update,
      !mismatches = 0 )
  in
  let results = List.map scale scales in
  (* FAQS gate on the deterministic counter, not wall clock: update work
     at the largest table must not exceed the smallest by more than a
     constant factor. *)
  let visited (_, v, _) = v in
  let v_small = visited (List.hd results) in
  let v_large = visited (List.nth results (List.length results - 1)) in
  let independent = v_large <= (4. *. v_small) +. 16. in
  (* Integrated: GEANT carrying a synthesized table, with lie churn. *)
  let g = (Netgraph.Zoo.geant ()).Netgraph.Zoo.graph in
  let net = Igp.Network.create g in
  let prng = Kit.Prng.create ~seed:23 in
  let prefixes = Array.of_list (Igp.Prefix.synthesize prng ~n:geant_prefixes) in
  let nodes = Array.of_list (G.nodes g) in
  Array.iter
    (fun p ->
      Igp.Network.announce_prefix net p ~origin:(Kit.Prng.pick prng nodes) ~cost:0)
    prefixes;
  let (), warm_ms = time_ms (fun () -> Igp.Network.warm net) in
  (* Lie churn: inject and retract fakes on random announced prefixes;
     each cycle is one install + reconverge and one retract +
     reconverge. *)
  let lie_ms = ref 0. in
  for i = 1 to lies do
    let at = Kit.Prng.pick prng nodes in
    let prefix = Kit.Prng.pick prng prefixes in
    let forwarding = fst (Kit.Prng.pick prng (Array.of_list (G.succ g at))) in
    let fake_id = Printf.sprintf "tfib%d" i in
    let (), inject_ms =
      time_ms (fun () ->
          Igp.Network.inject_fake net
            { fake_id; attachment = at; attachment_cost = 1; prefix;
              announced_cost = 0; forwarding };
          Igp.Network.warm net)
    in
    let (), retract_ms =
      time_ms (fun () ->
          Igp.Network.retract_fake net ~fake_id;
          Igp.Network.warm net)
    in
    lie_ms := !lie_ms +. inject_ms +. retract_ms
  done;
  let geant =
    row "fib_geant"
      [
        ("prefixes", num geant_prefixes);
        ("warm_ms", warm_ms);
        ("lie_cycle_ms", !lie_ms /. num lies);
      ]
  in
  ( List.concat_map (fun (rows, _, _) -> rows) results @ [ geant ],
    List.for_all (fun (_, _, ok) -> ok) results && independent )

(* How much a metric grows during [f ()] (a counter's count, a
   histogram's sum), read with telemetry on, in a private scope so the
   spans and events it records are dropped. Run it outside profiled
   cycles: telemetry allocates. *)
let metric_delta name f =
  let read () =
    match List.assoc_opt name (Obs.Metrics.dump ()) with
    | Some (Obs.Metrics.Counter n) -> num n
    | Some (Obs.Metrics.Histogram h) -> h.sum
    | Some (Obs.Metrics.Gauge _) | None -> 0.
  in
  let n, _ =
    Obs.capture (fun () ->
        Obs.enable ();
        let before = read () in
        Fun.protect ~finally:Obs.disable f;
        read () -. before)
  in
  n

(* TWATCH: cost and non-interference of the runtime safety watchdog.
   The gate is deterministic (work counters, not wall clock): on a calm
   steady-state run the incremental gating must keep the full safety
   sweep under 5% of steps, the watchdog must observe zero violations,
   and arming it must not perturb the simulation at all — the F2 series
   and the chaos verdicts must be bit-identical with and without it.
   Wall-clock overhead is recorded for information only. *)
let twatch nseeds =
  (* Steady state: one long-lived flow, no faults, no controller action.
     After the initial route computation nothing dirties routing, so the
     sweep must stay gated off. *)
  let steady, steady_ok =
    let d = T.demo () in
    let net = Igp.Network.create d.graph in
    Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
    let caps = Netsim.Link.capacities ~default:1e6 in
    let sim = Netsim.Sim.create ~dt:0.5 net caps in
    let wd = Netsim.Watchdog.arm sim in
    Netsim.Sim.add_flow sim
      (Netsim.Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
    Netsim.Sim.run_until sim 100.;
    let s = Netsim.Watchdog.stats wd in
    let sweep_pct =
      100. *. num s.safety_sweeps /. num (max 1 s.steps_checked)
    in
    ( row "watch_steady"
        [
          ("steps", num s.steps_checked);
          ("sweeps", num s.safety_sweeps);
          ("skipped", num s.safety_skipped);
          ("sweep_pct", sweep_pct);
          ("violations", num s.violations);
        ],
      sweep_pct < 5. && s.violations = 0 )
  in
  (* The Fig. 2 demo run with and without the watchdog. The controller
     steers (routing changes, sweeps run), yet the plotted series must be
     bit-identical — observation only, no perturbation. *)
  let fig2, fig2_ok =
    let run arm =
      let d = Demo.make ~fibbing:true () in
      ignore (Demo.load_fig2_workload d);
      let armed = arm d.Demo.sim in
      let (), wall = time_ms (fun () -> Demo.run d ~until:55.) in
      (Demo.fig2_series d, armed, wall)
    in
    let series_off, (), wall_off = run ignore in
    let series_on, wd, wall_on = run Netsim.Watchdog.arm in
    let s = Netsim.Watchdog.stats wd in
    let identical = series_on = series_off in
    ( row "watch_fig2"
        [
          ("steps", num s.steps_checked);
          ("sweeps", num s.safety_sweeps);
          ("skipped", num s.safety_skipped);
          ("violations", num s.violations);
          ("series_identical", flag identical);
          ("wall_off_ms", wall_off);
          ("wall_on_ms", wall_on);
        ],
      identical && s.violations = 0 )
  in
  (* Chaos seeds with and without the watchdog: same faults, same verdict
     (modulo the watchdog's own fields), zero violations. *)
  let chaos, chaos_ok =
    let seeds = List.init nseeds (fun i -> i + 1) in
    let strip (v : Scenarios.Chaos.verdict) =
      ( v.plan.events,
        v.edges_restored,
        v.fakes_left,
        v.fibs_match,
        v.unroutable_at_until,
        v.unroutable_at_end,
        v.controller_alive,
        v.reactions )
    in
    let sweep ~watchdog =
      time_ms (fun () ->
          List.map
            (fun seed -> Scenarios.Chaos.run ~watchdog ~seed ~until:20. ())
            seeds)
    in
    let off, wall_off = sweep ~watchdog:false in
    let on, wall_on = sweep ~watchdog:true in
    let identical = List.map strip on = List.map strip off in
    let violations =
      List.fold_left
        (fun acc (v : Scenarios.Chaos.verdict) -> acc + List.length v.violations)
        0 on
    in
    ( row "watch_chaos"
        [
          ("seeds", num nseeds);
          ("verdicts_identical", flag identical);
          ("violations", num violations);
          ("wall_off_ms", wall_off);
          ("wall_on_ms", wall_on);
        ],
      identical && violations = 0 )
  in
  (* A lie on one prefix among 522 (GEANT, one prefix per router plus
     500 synthesized ones, one flow): the sweeps it triggers must check
     that prefix alone, since a lie changes no other prefix's rows. A
     first lie cycle takes the first sweep after arming, which checks
     every prefix; a second cycle installs the lie, retracts it a few
     steps later and is measured. Gate: each of its sweeps checks
     exactly one prefix, so a return to full sweeps fails. *)
  let lie, lie_ok =
    let g, net, _ = geant_churn () in
    let prng = Kit.Prng.create ~seed:5 in
    List.iteri
      (fun i p -> Igp.Network.announce_prefix net p ~origin:(i mod G.node_count g) ~cost:1)
      (Igp.Prefix.synthesize prng ~n:500);
    let prefixes = List.length (Igp.Lsdb.prefix_list (Igp.Network.lsdb net)) in
    let target = pfx (Printf.sprintf "p%02d" (G.node_count g - 1)) in
    let sim = Netsim.Sim.create ~dt:0.5 net (Netsim.Link.capacities ~default:1e6) in
    let wd = Netsim.Watchdog.arm sim in
    Netsim.Sim.add_flow sim (Netsim.Flow.make ~id:0 ~src:0 ~prefix:target ~demand:10. ());
    Netsim.Sim.run_until sim 1.;
    (* Router 0's lie ties its own best route and forwards along that
       route's next hop: rows change, the forwarding stays safe. *)
    let fake : Igp.Lsa.fake =
      {
        fake_id = "watch";
        attachment = 0;
        attachment_cost = 1;
        prefix = target;
        announced_cost = Option.get (Igp.Network.distance net ~router:0 target) - 1;
        forwarding = List.hd (Igp.Network.next_hops net ~router:0 target);
      }
    in
    let cycle () =
      let now = Netsim.Sim.time sim in
      Netsim.Sim.schedule sim ~time:(now +. 1.) (fun sim ->
          Igp.Network.inject_fake net fake;
          Igp.Lsdb.set_fake_expiry (Igp.Network.lsdb net) ~fake_id:fake.fake_id
            ~now:(Netsim.Sim.time sim) ~ttl:30.);
      Netsim.Sim.schedule sim ~time:(now +. 3.) (fun _ ->
          Igp.Network.retract_fake net ~fake_id:fake.fake_id);
      Netsim.Sim.run_until sim (now +. 5.)
    in
    cycle ();
    let before = Netsim.Watchdog.stats wd in
    let checked = metric_delta "watchdog.prefixes_checked" cycle in
    let s = Netsim.Watchdog.stats wd in
    let sweeps = s.safety_sweeps - before.safety_sweeps in
    ( row "watch_lie"
        [
          ("prefixes", num prefixes);
          ("sweeps", num sweeps);
          ("prefixes_checked", checked);
          ("violations", num s.violations);
        ],
      sweeps > 0 && checked = num sweeps && s.violations = 0 )
  in
  ( [ steady; fig2; chaos; lie ],
    steady_ok && fig2_ok && chaos_ok && lie_ok )

(* TPROF: allocation/GC profiles of the hot paths. Its rows are
   what CI appends to the bench history for the regression gate. *)

(* One measured block: force a clean heap, run [cycles] repetitions,
   read the GC deltas directly via [Obs.Prof] snapshots (no telemetry
   needed — and none enabled, so this measures the true disabled-mode
   hot path, which is also the deterministic one). *)
let prof_measure ~cycles f =
  Gc.full_major ();
  let before = Obs.Prof.snapshot () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to cycles do
    f ()
  done;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (Obs.Prof.delta ~before ~after:(Obs.Prof.snapshot ()), wall_ms)

let prof_values track ~cycles ~context (d : Obs.Prof.snap) wall_ms =
  let per = num cycles in
  row track
    ([
       ("alloc_words", Obs.Prof.allocated_words d /. per);
       ("minor_collections", num d.minor_collections);
       ("major_collections", num d.major_collections);
       ("wall_ms", wall_ms /. per);
       ("cycles", per);
       (* Every profiled path runs on the calling domain; the constant
          keeps the rows' workload keys equal to older history rows. *)
       ("domains", 1.);
       (* Words read from the live GC counters ([Obs.Prof.snapshot]):
          rows from before they were live counted direct major
          allocation late, so they form no baseline for these. *)
       ("live_gc", 1.);
     ]
    @ context)

let prof_row track ~cycles ~context f =
  let d, wall_ms = prof_measure ~cycles f in
  prof_values track ~cycles ~context d wall_ms

(* [prof_row] over one phase of a cycle: [setup] and [teardown] run
   unmeasured around each measured call of [f], whose GC deltas are
   summed. *)
let prof_phase_row track ~cycles ~context ~setup ~teardown f =
  Gc.full_major ();
  let total =
    ref
      {
        Obs.Prof.minor_words = 0.;
        promoted_words = 0.;
        major_words = 0.;
        minor_collections = 0;
        major_collections = 0;
        compactions = 0;
      }
  in
  let wall_ms = ref 0. in
  for _ = 1 to cycles do
    setup ();
    let before = Obs.Prof.snapshot () in
    let (), ms = time_ms f in
    let d = Obs.Prof.delta ~before ~after:(Obs.Prof.snapshot ()) in
    teardown ();
    let t = !total in
    total :=
      {
        minor_words = t.minor_words +. d.minor_words;
        promoted_words = t.promoted_words +. d.promoted_words;
        major_words = t.major_words +. d.major_words;
        minor_collections = t.minor_collections + d.minor_collections;
        major_collections = t.major_collections + d.major_collections;
        compactions = t.compactions + d.compactions;
      };
    wall_ms := !wall_ms +. ms
  done;
  prof_values track ~cycles ~context !total !wall_ms


let tprof (churn_cycles, groups, fill_cycles, flows) =
  (* SPF churn on GEANT: the TSPF churn loop, reconverging each step. *)
  let spf_churn =
    let g, net, churn = geant_churn () in
    let step () =
      churn ();
      Igp.Network.warm net
    in
    Igp.Network.warm net;
    (* warm both branches of the flip *)
    step ();
    step ();
    prof_row "spf_churn" ~cycles:churn_cycles
      ~context:
        [
          ("routers", num (G.node_count g));
          ("prefixes", num (G.node_count g));
        ]
      step
  in
  (* The indexed water-filling kernel on a synthetic batch: fixed PRNG,
     3-link paths over a 400-link core. *)
  let water_fill =
    let nlinks = 400 in
    let prng = Kit.Prng.create ~seed:42 in
    let caps = Netsim.Link.capacities ~default:1000. in
    let link i = ((2 * i, (2 * i) + 1) : Netsim.Link.t) in
    let demands = Array.init groups (fun _ -> 1. +. Kit.Prng.float prng 9.) in
    let links =
      Array.init groups (fun _ ->
          List.init 3 (fun _ -> link (Kit.Prng.int prng nlinks)))
    in
    let weights = Array.init groups (fun _ -> 1 + Kit.Prng.int prng 3) in
    let run () =
      ignore (Netsim.Fairshare.water_fill caps ~demands ~links ~weights)
    in
    run ();
    (* warm *)
    prof_row "water_fill" ~cycles:fill_cycles
      ~context:[ ("groups", num groups); ("links", num nlinks) ]
      run
  in
  (* The demo under a flash crowd of [flows] streams from A and B, run
     until every flow is active and the classes are formed. *)
  let crowd ~fibbing =
    let d = Demo.make ~fibbing () in
    let prng = Kit.Prng.create ~seed:11 in
    let spec src =
      {
        Video.Workload.src;
        prefix = Demo.prefix;
        rate = Demo.stream_rate;
        video_duration = 3600.;
      }
    in
    let crowd =
      Video.Workload.crowd prng ~jitter:2.
        [ spec d.topology.a; spec d.topology.b ]
        ~first_id:0 ~count:flows ~at:0.
    in
    List.iter (Netsim.Sim.add_flow d.sim) crowd;
    Demo.run d ~until:4.;
    d
  in
  (* The aggregated simulator step (the flood scenario's steady state). *)
  let sim_step =
    let d = crowd ~fibbing:true in
    prof_row "sim_step" ~cycles:20
      ~context:[ ("flows", num flows) ]
      (fun () -> Demo.run d ~until:(Netsim.Sim.time d.sim +. d.Demo.dt))
  in
  (* One controller reaction to the crowd's hot links, from the same
     lie-free state each cycle: a fresh controller reacts, then
     withdraws its lies. The controller reads Sim's demand matrix, so
     these words do not grow with [flows]; a per-stream scan would.
     [rows_written] counts the prefix rows every SPF engine writes in
     one cycle, the what-if clones' included. [react_wide] runs the same
     cycle with 512 idle prefixes instead of 64: a what-if costs what it
     asks, so the track's gate fails unless both rows write the same
     rows and allocate within 2 % of each other. *)
  let reacted = ref true in
  let react_row track ~idle =
    let d = crowd ~fibbing:false in
    (* Prefixes no stream is aimed at: only a clone that refilled whole
       tables would write their rows. *)
    for i = 0 to idle - 1 do
      Igp.Network.announce_prefix d.net
        (Igp.Prefix.v (Printf.sprintf "idle%d" i))
        ~origin:(i mod G.node_count (Igp.Network.graph d.net))
        ~cost:1
    done;
    Igp.Network.warm d.net;
    let cycle () =
      let controller = Fibbing.Controller.create d.net in
      Fibbing.Controller.react controller d.sim [];
      if Fibbing.Controller.fake_count controller = 0 then reacted := false;
      Fibbing.Controller.withdraw_all controller
    in
    let row =
      prof_row track ~cycles:5
        ~context:[ ("flows", num flows); ("prefixes", num (idle + 1)) ]
        cycle
    in
    { row with values = row.values @ [ ("rows_written", metric_delta "spf.rows_written" cycle) ] }
  in
  let react = react_row "react" ~idle:64 in
  let react_wide = react_row "react_wide" ~idle:512 in
  let asks_only =
    let value (r : Obs.History.row) k = List.assoc k r.values in
    value react_wide "rows_written" = value react "rows_written"
    && Float.abs (value react_wide "alloc_words" -. value react "alloc_words")
       <= 0.02 *. value react "alloc_words"
  in
  (* The step that adopts one lie over the crowd: A's fake ties its
     route via B with one via R1, so A's streams re-hash over two next
     hops. Each cycle starts from the same lie-free state: the lie is
     installed before the measured step, and retracted after it with a
     step that re-hashes back, both unmeasured. [rehashed] counts the
     flows the adopting step re-walks; the track's gate fails if it
     re-walks none. *)
  let sim_adopt, adopted =
    let d = crowd ~fibbing:false in
    let a = d.topology.a in
    let fake : Igp.Lsa.fake =
      {
        fake_id = "adopt";
        attachment = a;
        attachment_cost = 1;
        prefix = Demo.prefix;
        announced_cost = Option.get (Igp.Network.distance d.net ~router:a Demo.prefix) - 1;
        forwarding = d.topology.r1;
      }
    in
    let step () = Demo.run d ~until:(Netsim.Sim.time d.sim +. d.Demo.dt) in
    let lie () = Igp.Network.inject_fake d.net fake in
    let unlie () =
      Igp.Network.retract_fake d.net ~fake_id:fake.fake_id;
      step ()
    in
    (* warm *)
    lie ();
    step ();
    unlie ();
    let row =
      prof_phase_row "sim_adopt" ~cycles:10 ~context:[ ("flows", num flows) ] ~setup:lie
        ~teardown:unlie step
    in
    let rehashed =
      metric_delta "sim.rehashed_flows" (fun () ->
          lie ();
          step ())
    in
    unlie ();
    ({ row with values = row.values @ [ ("rehashed", rehashed) ] }, rehashed > 0.)
  in
  (* The simulator's event queue under a crowd-shaped batch: [batch]
     streams start jittered over 1 s and stop 10 s later, all scheduled
     at once as [Sim.add_flow] does, then drained in 0.5 s steps as
     [Sim.step] drains them. The payloads are ints, so [alloc_words] is
     the queue's own; [words_per_event] divides it by the events, and
     the track's gate fails unless every event drains, in time order. *)
  let sim_events, in_order =
    let batch = 50 * flows and dt = 0.5 in
    let prng = Kit.Prng.create ~seed:5 in
    let starts = Array.init batch (fun _ -> Kit.Prng.float prng 1.) in
    (* Event [i < batch] starts stream [i], event [batch + i] stops it.
       The times are boxed once, here, as a flow record boxes them. *)
    let times = Array.append starts (Array.map (fun s -> s +. 10.) starts) in
    let events = Array.mapi (fun e time -> (time, e)) times in
    let ok = ref true in
    let cycle () =
      let q = Netsim.Events.create () in
      Array.iter (fun (time, e) -> Netsim.Events.schedule q ~time e) events;
      let drained = ref 0 and previous = ref (-1) in
      let check e =
        if !previous >= 0 && times.(e) < times.(!previous) then ok := false;
        previous := e;
        incr drained
      in
      let rec step time =
        Netsim.Events.drain q ~time check;
        if time < 12. then step (time +. dt)
      in
      step 0.;
      if !drained <> Array.length events then ok := false
    in
    let row = prof_row "sim_events" ~cycles:5 ~context:[ ("flows", num batch) ] cycle in
    let words = List.assoc "alloc_words" row.values in
    ( { row with values = row.values @ [ ("words_per_event", words /. num (Array.length events)) ] },
      !ok )
  in
  (* A flow's life in the simulator under a crowd-shaped batch on the
     demo: [batch] streams from A and B start jittered over 1 s and stop
     10 s later, and each measured cycle steps a fresh simulator until
     every one has stopped. Adding the flows (their one record and their
     two events) is unmeasured set-up, so [words_per_flow] is what a
     start, its placement and its stop allocate, with the drains' sorts
     and the steps' own work spread over the flows. *)
  let sim_churn =
    let batch = 50 * flows in
    let d = Demo.make ~fibbing:false () in
    let spec src =
      { Video.Workload.src; prefix = Demo.prefix; rate = Demo.stream_rate; video_duration = 10. }
    in
    let crowd =
      Video.Workload.crowd (Kit.Prng.create ~seed:7)
        [ spec d.topology.a; spec d.topology.b ]
        ~first_id:0 ~count:batch ~at:0.
    in
    let sim = ref d.sim in
    let setup () =
      sim := Netsim.Sim.create ~dt:0.5 d.net d.caps;
      List.iter (Netsim.Sim.add_flow !sim) crowd
    in
    let row =
      prof_phase_row "sim_churn" ~cycles:3 ~context:[ ("flows", num batch) ] ~setup
        ~teardown:ignore (fun () -> Netsim.Sim.run_until !sim 12.)
    in
    let words = List.assoc "alloc_words" row.values in
    (* What a simulator keeps once all its flows have stopped: the words
       reachable from it beyond those of a fresh simulator over the same
       network, after a full collection. *)
    setup ();
    Netsim.Sim.run_until !sim 12.;
    Gc.full_major ();
    let held sim = num (Obj.reachable_words (Obj.repr sim)) in
    let retained = held !sim -. held (Netsim.Sim.create ~dt:0.5 d.net d.caps) in
    {
      row with
      values =
        row.values
        @ [ ("words_per_flow", words /. num batch); ("retained_words_per_flow", retained /. num batch) ];
    }
  in
  let retains_little = List.assoc "retained_words_per_flow" sim_churn.values <= 1. in
  ( [ spf_churn; water_fill; sim_step; react; react_wide; sim_adopt; sim_events; sim_churn ],
    !reacted && asks_only && adopted && in_order && retains_little )

(* ------------------------------------------------------------------ *)
(* The track registry and the driver. *)

type track =
  | Track : {
      name : string;
      title : string;
      quick : 'size;
      full : 'size;
      run : 'size -> Obs.History.row list * bool;
    }
      -> track

let tracks =
  [
    Track
      {
        name = "spf";
        title = "SPF engine: batched + incremental FIB recompute on the largest zoo";
        (* 30 churns (~0.1 ms each) are cheap enough for the quick run. *)
        quick = 30;
        full = 30;
        run = tspf;
      };
    Track
      {
        name = "flow";
        title = "Flow engine: class aggregation + indexed max-min fair at crowd scale";
        quick = [ 1_000; 10_000 ];
        full = [ 1_000; 10_000; 100_000 ];
        run = tflow;
      };
    Track
      {
        name = "par";
        title = "Multicore scale-out: chaos seed sweeps vs domains";
        quick = 8;
        full = 64;
        run = tpar;
      };
    Track
      {
        name = "fib";
        title = "prefix-scale FIB: trie build, FAQS aggregation, incremental updates";
        quick = ([ 10_000; 50_000 ], 300, 5);
        full = ([ 100_000; 1_000_000 ], 2_000, 20);
        run = tfib;
      };
    Track
      {
        name = "watch";
        title = "watchdog: overhead and non-interference";
        quick = 4;
        full = 8;
        run = twatch;
      };
    Track
      {
        name = "prof";
        title = "Allocation/GC profile of the hot paths";
        quick = (10, 10_000, 3, 1_000);
        full = (30, 50_000, 5, 2_000);
        run = tprof;
      };
  ]

let track_names = List.map (fun (Track t) -> t.name) tracks

let pp_row fmt (r : Obs.History.row) =
  Format.fprintf fmt "@[<hov 2>%s" r.track;
  List.iter
    (fun (k, v) ->
      if Float.is_integer v || Float.abs v >= 100. then
        Format.fprintf fmt "@ %s=%.0f" k v
      else Format.fprintf fmt "@ %s=%.4g" k v)
    r.values;
  Format.fprintf fmt "@]@."

let write_bench name rows =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  Printf.fprintf oc "{\"track\": %s, \"cores\": %d, \"rows\": [\n  %s\n]}\n"
    (Kit.Json.to_string (Kit.Json.Str name))
    (Domain.recommended_domain_count ())
    (String.concat ",\n  " (List.map Obs.History.row_to_json rows));
  close_out oc;
  Format.printf "wrote %s@." file

(* Runs one track, routes its rows to every sink, and returns whether
   its gate passed. *)
let run_track ~quick ~json ~history ~tag (Track t) =
  section ("T" ^ String.uppercase_ascii t.name) t.title;
  let rows, ok = t.run (if quick then t.quick else t.full) in
  let rows = List.map (fun r -> { r with Obs.History.tag }) rows in
  List.iter (pp_row Format.std_formatter) rows;
  if json then write_bench t.name rows;
  Option.iter
    (fun file ->
      Obs.History.append ~file rows;
      Format.printf "appended %d rows (tag %s) to %s@." (List.length rows) tag
        file)
    history;
  if not ok then Format.printf "T%s gate FAILED@." (String.uppercase_ascii t.name);
  ok

let gate_main ~file =
  section "GATE" "Bench-history regression gate (newest row vs rolling median)";
  match Obs.History.load ~file with
  | [] ->
    Format.printf "no history at %s — nothing to gate (bootstrap run)@." file;
    0
  | rows ->
    let verdicts = Obs.History.gate rows in
    (* A track and workload that compared nothing pass vacuously; say
       so, so a gate that checked nothing shows in the log. *)
    List.iter
      (fun (track, work) ->
        if not (List.exists (fun (v : Obs.History.verdict) -> (v.v_track, v.v_workload) = (track, work)) verdicts)
        then Printf.eprintf "gate: no comparable baseline for track %s%s\n" track (if work = "" then "" else " at " ^ work))
      (List.sort_uniq compare (List.map (fun (r : Obs.History.row) -> (r.track, Obs.History.workload r)) rows));
    if verdicts = [] then begin
      Format.printf "%d rows, no comparable baseline yet — pass@."
        (List.length rows);
      0
    end
    else begin
      Format.printf "%a" Obs.History.pp_verdicts verdicts;
      if Obs.History.gate_ok verdicts then begin
        Format.printf "gate: OK@.";
        0
      end
      else begin
        Format.printf "gate: REGRESSION@.";
        1
      end
    end

let usage () =
  Printf.eprintf
    "usage: main.exe [quick] [json] [--history FILE --tag TAG] [TRACK...]\n\
    \       main.exe gate [--history FILE]\n\
     tracks: %s\n"
    (String.concat " " track_names);
  exit 2

type opts = {
  quick : bool;
  json : bool;
  history : string option;
  tag : string;
  selected : string list;
}

let rec parse o = function
  | [] -> o
  | "quick" :: rest -> parse { o with quick = true } rest
  | "json" :: rest -> parse { o with json = true } rest
  | "--history" :: file :: rest -> parse { o with history = Some file } rest
  | "--tag" :: tag :: rest -> parse { o with tag } rest
  | a :: rest when List.mem a track_names ->
    parse { o with selected = a :: o.selected } rest
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gate" ] -> exit (gate_main ~file:"bench/history.jsonl")
  | [ "gate"; "--history"; file ] -> exit (gate_main ~file)
  | args ->
    let o =
      parse
        { quick = false; json = false; history = None; tag = "dev"; selected = [] }
        args
    in
    if o.selected = [] then begin
      f1a ();
      f1b ();
      f1c ();
      f1d ();
      let f2_state = f2 () in
      tqoe f2_state;
      tovh ();
      tscale ();
      topt ();
      tabr ();
      taimd ();
      tzoo ();
      ttrans ();
      tfail ();
      tctrl ();
      tconv ();
      tstrat ();
      tmicro ();
      tplan ();
      if not o.quick then bechamel_timings ()
    end;
    let oks =
      List.filter_map
        (fun (Track t as track) ->
          if o.selected = [] || List.mem t.name o.selected then
            Some
              (run_track ~quick:o.quick ~json:o.json ~history:o.history
                 ~tag:o.tag track)
          else None)
        tracks
    in
    Format.printf "@.done.@.";
    if not (List.for_all Fun.id oks) then exit 1
