(* Control-loop benchmark: the paper's poll -> lie -> refill -> rebalance
   loop, end to end and per layer, on three seeded workloads.

   Every layer is timed from outside, through public calls. The bench
   registers its own Sim hooks immediately before and after
   [Fibbing.Controller.attach] and [Netsim.Watchdog.arm]; hooks run in
   registration order, so each controller and watchdog hook sits between
   two clock readings. A traced run (--trace 1) additionally switches on
   the spans the program already emits (sim.step, spf.recompute,
   fairshare.water_fill) and derives per-layer self times from spans and
   brackets together.

   Work is organised in repetitions: one repetition is a fixed,
   seed-determined workload (a flash-crowd schedule, or a block of chaos
   seeds), set up from scratch and then driven one simulation step at a
   time. The first repetition is the checked one: it is untimed, walks
   every stream to integrate the unserved demand, runs the output checks
   and gives the modelled results (relief, unserved share, counters,
   live heap). Timed repetitions follow for --seconds of wall-clock
   time, and each must reproduce the checked one's counters exactly.
   Host times are process CPU time (see [clock]).

   Usage:
     loopbench --workload crowd|prefixes|chaos --seed N --seconds S
               --trace 0|1 [--width K] [--out DIR]
   --width sets the width of every worker pool (default 1, 0 for the
   process default; see the note where it is applied).
   The last line on stdout is the JSON result; a fuller summary goes to
   DIR/<workload>-s<seed>-t<trace>.json (DIR defaults to .bench_out). *)

module G = Netgraph.Graph
module Sim = Netsim.Sim
module Ctl = Fibbing.Controller
module Wd = Netsim.Watchdog

(* ------------------------------------------------------------------ *)
(* Clock and quantiles *)

(* Host CPU time of the process (getrusage, 1 us resolution, about
   0.5 us per reading), made strictly increasing: brackets and spans
   stamped from it nest by timestamp alone, even when two readings fall
   within one clock tick. CPU time, not wall time: on the 2-vCPU VM the
   benchmark was written on, the host withholds the vCPUs for minutes at
   a time, which doubled every wall-clock reading while the process's
   CPU time stayed put. At width 1 the process runs one domain, so its
   CPU time is the loop's. *)
let last_reading = ref 0.

let clock () =
  let t = Sys.time () in
  let t = if t > !last_reading then t else Float.succ !last_reading in
  last_reading := t;
  t

(* Linear-interpolation quantile (the convention of Python's
   statistics.quantiles, method "inclusive"). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ------------------------------------------------------------------ *)
(* Per-repetition record *)

(* A named host-time interval of the traced run. [loop] links a
   controller reaction to the step that adopts it (-1: no loop). *)
type interval = { name : string; start : float; stop : float; loop : int }

type rep = {
  tracing : bool;
  checked : bool;
      (** The checked repetition: untimed, with per-stream accounting
          and the output checks; modelled metrics come from it. *)
  (* Timed region: every simulation step, plus per-seed assembly for
     chaos. *)
  mutable host_s : float;
  mutable sim_s : float;
  mutable loops : float list;  (** ms per control-loop iteration *)
  mutable react : float list;  (** ms of the controller's poll hooks on loop polls *)
  mutable loop_id : int;
  (* Hook brackets. *)
  mutable poll_ms : float;
  mutable polls : int;
  mutable poll_alloc_w : float;
  mutable revalidate_ms : float;
  mutable watchdog_ms : float;
  mutable assemble_ms : float;
  mutable generate_ms : float;
  mutable add_flow_ms : float;
  (* Modelled outcomes: pure functions of the seed. *)
  mutable relief_sum : float;
  mutable relief_n : int;
  mutable offered : float;
  mutable unserved : float;
  mutable attempted : int;
  mutable failed : int;
  mutable reactions : int;
  mutable lies_max : int;
  mutable classes_sum : float;
  mutable streams_sum : float;
  mutable spf_runs : int;
  mutable full_invalidations : int;
  mutable routers_dirtied : int;
  mutable routers_kept : int;
  mutable flood_messages : int;
  mutable wd_sweeps : int;
  mutable wd_skipped : int;
  mutable checks_failed : int;
  mutable problems : string list;
  mutable intervals : interval list;
}

let new_rep ~tracing ~checked =
  {
    tracing;
    checked;
    host_s = 0.;
    sim_s = 0.;
    loops = [];
    react = [];
    loop_id = 0;
    poll_ms = 0.;
    polls = 0;
    poll_alloc_w = 0.;
    revalidate_ms = 0.;
    watchdog_ms = 0.;
    assemble_ms = 0.;
    generate_ms = 0.;
    add_flow_ms = 0.;
    relief_sum = 0.;
    relief_n = 0;
    offered = 0.;
    unserved = 0.;
    attempted = 0;
    failed = 0;
    reactions = 0;
    lies_max = 0;
    classes_sum = 0.;
    streams_sum = 0.;
    spf_runs = 0;
    full_invalidations = 0;
    routers_dirtied = 0;
    routers_kept = 0;
    flood_messages = 0;
    wd_sweeps = 0;
    wd_skipped = 0;
    checks_failed = 0;
    problems = [];
    intervals = [];
  }

(* A failed output check: reported, and counted as a failure. *)
let fail_check rep fmt =
  Printf.ksprintf
    (fun s ->
      rep.problems <- s :: rep.problems;
      rep.checks_failed <- rep.checks_failed + 1)
    fmt

let interval rep name start stop loop =
  if rep.tracing then rep.intervals <- { name; start; stop; loop } :: rep.intervals

(* ------------------------------------------------------------------ *)
(* Hook brackets around the controller and the watchdog *)

type probe = {
  rep : rep;
  net : Igp.Network.t;
  spf0 : Igp.Spf_engine.stats;  (** Engine counters when wired. *)
  flood0 : int;  (** Flooded LSA copies when wired. *)
  mutable rc_t0 : float;
  mutable rc_t1 : float;
  mutable poll_t0 : float;
  mutable poll_v0 : int;
  mutable poll_alloc0 : Obs.Prof.snap;
  mutable step_t0 : float;
  mutable loop_start : float option;
      (** Poll-hook start of a loop whose poll step just ran. *)
  mutable adopting : (int * float) option;
      (** Loop id and host seconds already spent, while its adopting
          step is next. *)
  mutable current_loop : int;
  open_alarms : (Netsim.Link.t, float) Hashtbl.t;
}

let version net = Igp.Lsdb.version (Igp.Network.lsdb net)

(* Attach [ctl] and arm a watchdog whose guard purges put the
   controller's prefix on hold-down (the wiring of Scenarios.Chaos), with
   the bench's hooks registered immediately before and after each.
   The bench's own work inside its hooks (alarm bookkeeping, allocation
   snapshots, clock readings, interval records) is recorded as
   "bench.hook" intervals, so a traced run charges it to the bench and
   not to the step that runs the hooks. Returns the probe and the
   watchdog. *)
let wire rep sim net ctl =
  let p =
    {
      rep;
      net;
      spf0 = Igp.Spf_engine.stats (Igp.Network.engine net);
      flood0 = (Igp.Network.control_cost net).messages;
      rc_t0 = 0.;
      rc_t1 = 0.;
      poll_t0 = 0.;
      poll_v0 = 0;
      poll_alloc0 = Obs.Prof.snapshot ();
      step_t0 = 0.;
      loop_start = None;
      adopting = None;
      current_loop = -1;
      open_alarms = Hashtbl.create 16;
    }
  in
  Sim.on_route_change sim (fun _ -> p.rc_t0 <- clock ());
  Sim.on_poll sim (fun sim alarms ->
      let t_in = if rep.tracing then clock () else 0. in
      let time = Sim.time sim in
      List.iter
        (fun (a : Netsim.Monitor.alarm) ->
          if a.raised then begin
            if not (Hashtbl.mem p.open_alarms a.link) then
              Hashtbl.replace p.open_alarms a.link time
          end
          else
            match Hashtbl.find_opt p.open_alarms a.link with
            | Some since ->
              Hashtbl.remove p.open_alarms a.link;
              rep.relief_sum <- rep.relief_sum +. (time -. since);
              rep.relief_n <- rep.relief_n + 1
            | None -> ())
        alarms;
      p.poll_v0 <- version net;
      if rep.tracing then p.poll_alloc0 <- Obs.Prof.snapshot ();
      p.poll_t0 <- clock ();
      interval rep "bench.hook" t_in p.poll_t0 (-1));
  Ctl.attach ctl sim;
  Sim.on_route_change sim (fun _ ->
      let t = clock () in
      rep.revalidate_ms <- rep.revalidate_ms +. ((t -. p.rc_t0) *. 1000.);
      interval rep "fibbing.revalidate" p.rc_t0 t p.current_loop;
      p.rc_t1 <- clock ();
      interval rep "bench.hook" t p.rc_t1 (-1));
  Sim.on_poll sim (fun _ _ ->
      let t = clock () in
      let ms = (t -. p.poll_t0) *. 1000. in
      rep.poll_ms <- rep.poll_ms +. ms;
      rep.polls <- rep.polls + 1;
      let lies = Ctl.fake_count ctl in
      let looped = version net <> p.poll_v0 && lies > 0 in
      if looped then begin
        rep.react <- ms :: rep.react;
        p.loop_start <- Some p.poll_t0;
        rep.loop_id <- rep.loop_id + 1
      end;
      if rep.tracing then begin
        rep.poll_alloc_w <-
          rep.poll_alloc_w
          +. Obs.Prof.allocated_words
               (Obs.Prof.delta ~before:p.poll_alloc0 ~after:(Obs.Prof.snapshot ()));
        interval rep "fibbing.poll" p.poll_t0 t
          (if looped then rep.loop_id else p.current_loop)
      end;
      rep.lies_max <- max rep.lies_max lies;
      if rep.tracing then interval rep "bench.hook" t (clock ()) (-1));
  Sim.on_step sim (fun _ -> p.step_t0 <- clock ());
  let wd = Wd.arm sim in
  Wd.on_quarantine wd (fun ~prefix ~reason ->
      Ctl.quarantine ctl ~time:(Sim.time sim) ~prefix ~reason);
  Sim.on_route_change sim (fun _ ->
      let t = clock () in
      rep.watchdog_ms <- rep.watchdog_ms +. ((t -. p.rc_t1) *. 1000.);
      interval rep "netsim.watchdog" p.rc_t1 t p.current_loop;
      if rep.tracing then interval rep "bench.hook" t (clock ()) (-1));
  Sim.on_step sim (fun _ ->
      let t = clock () in
      rep.watchdog_ms <- rep.watchdog_ms +. ((t -. p.step_t0) *. 1000.);
      interval rep "netsim.watchdog" p.step_t0 t p.current_loop;
      if rep.tracing then interval rep "bench.hook" t (clock ()) (-1));
  (p, wd)

(* One timed simulation step. An iteration of the control loop is a
   poll whose hooks changed the LSDB version and left lies installed,
   plus the following step, in which the new routing is adopted;
   untimed bookkeeping between the two steps is excluded. Polls that
   withdraw every lie (calm, quarantine) are left out: they cost one to
   two orders of magnitude less than a reaction, and with both in one
   population the median jumped between the two modes from seed to
   seed. *)
let step p sim =
  let rep = p.rep in
  (match p.adopting with
  | Some (id, _) -> p.current_loop <- id
  | None -> p.current_loop <- -1);
  let t0 = clock () in
  Sim.run_until sim (Sim.time sim +. Sim.dt sim);
  let t1 = clock () in
  rep.host_s <- rep.host_s +. (t1 -. t0);
  rep.sim_s <- rep.sim_s +. Sim.dt sim;
  interval rep "bench.step" t0 t1 p.current_loop;
  (match p.adopting with
  | Some (_, spent) ->
    rep.loops <- ((spent +. (t1 -. t0)) *. 1000.) :: rep.loops;
    p.adopting <- None
  | None -> ());
  match p.loop_start with
  | Some ts ->
    p.adopting <- Some (rep.loop_id, t1 -. ts);
    p.loop_start <- None
  | None -> ()

(* Untimed per-step accounting of the modelled outcome (checked
   repetition only: it walks every active stream). Returns the number of
   active streams. *)
let account p sim =
  let rep = p.rep in
  let dt = Sim.dt sim in
  let offered = ref 0. and delivered = ref 0. and n = ref 0 in
  List.iter
    (fun (f : Netsim.Flow.t) ->
      offered := !offered +. f.demand;
      delivered := !delivered +. Sim.flow_rate sim f.id;
      incr n)
    (Sim.active_flows sim);
  rep.offered <- rep.offered +. (!offered *. dt);
  rep.unserved <- rep.unserved +. (Float.max 0. (!offered -. !delivered) *. dt);
  rep.streams_sum <- rep.streams_sum +. float_of_int !n;
  rep.classes_sum <- rep.classes_sum +. float_of_int (Sim.flow_classes sim);
  !n

(* Close a scenario: alarms still open count up to the end, and the
   network's counters since wiring are folded into the repetition. *)
let finish p sim ctl wd =
  let rep = p.rep in
  let time = Sim.time sim in
  Hashtbl.fold (fun link since acc -> (link, since) :: acc) p.open_alarms []
  |> List.sort compare
  |> List.iter (fun (_, since) ->
         rep.relief_sum <- rep.relief_sum +. (time -. since);
         rep.relief_n <- rep.relief_n + 1);
  Hashtbl.reset p.open_alarms;
  let s = Igp.Spf_engine.stats (Igp.Network.engine p.net) and s0 = p.spf0 in
  rep.spf_runs <- rep.spf_runs + s.spf_runs - s0.spf_runs;
  rep.full_invalidations <-
    rep.full_invalidations + s.full_invalidations - s0.full_invalidations;
  rep.routers_dirtied <- rep.routers_dirtied + s.routers_dirtied - s0.routers_dirtied;
  rep.routers_kept <- rep.routers_kept + s.routers_kept - s0.routers_kept;
  rep.flood_messages <-
    rep.flood_messages + (Igp.Network.control_cost p.net).messages - p.flood0;
  rep.reactions <- rep.reactions + List.length (Ctl.actions ctl);
  let w = Wd.stats wd in
  rep.wd_sweeps <- rep.wd_sweeps + w.safety_sweeps;
  rep.wd_skipped <- rep.wd_skipped + w.safety_skipped

(* ------------------------------------------------------------------ *)
(* Setup timings (medians over every setup of the run) *)

type setup_times = { mutable setup_s : float list; mutable warm_ms : float list }

let timed f =
  let t0 = clock () in
  let v = f () in
  (v, (clock () -. t0) *. 1000.)

(* ------------------------------------------------------------------ *)
(* crowd and prefixes: GEANT under a schedule of flash crowds *)

type surge_cfg = {
  synthesized : int;  (** Prefixes on top of one per router. *)
  surges : int;
  pairs : int;  (** PoP -> hot prefix pairs per surge. *)
  streams : int;  (** Per surge, split evenly over the pairs. *)
  capacity : float;  (** Per directed link, stream rate 1. *)
}

(* Both workloads start a surge every [period] simulated seconds, each
   with new hot prefixes; streams last [video] seconds, and the
   controller relaxes its lies [relax_after] seconds after a clear. *)
let period = 24.

let video = 10.

let relax_after = 6.

let crowd_cfg = { synthesized = 0; surges = 24; pairs = 3; streams = 9_000; capacity = 2_400. }

(* One PoP -> prefix pair per surge: with several, one pair's lies moved
   another pair's congestion, and the number of reactions per repetition
   swung by up to half from seed to seed. *)
let prefixes_cfg =
  { synthesized = 500; surges = 18; pairs = 1; streams = 1_000; capacity = 800. }

type surge_scenario = {
  sim : Sim.t;
  snet : Igp.Network.t;
  sctl : Ctl.t;
  swd : Wd.t;
  sprobe : probe;
  announced : (Igp.Prefix.t * G.node) list;
  horizon : float;
}

(* The shape of a surge workload (prefix table, origins, which PoPs
   surge towards which prefixes) is drawn from this fixed seed; the run's
   --seed draws the surge order, arrival jitter and stream ids (hence
   every ECMP hash). Results therefore vary from seed to seed only as
   much as those details move them, which keeps medians over seeds
   comparable between runs. *)
let shape_seed = 20160822

let surge_setup cfg ~seed ~rep ~times =
  let t_start = clock () in
  let shape = Kit.Prng.create ~seed:shape_seed in
  let prng = Kit.Prng.create ~seed in
  let g = (Netgraph.Zoo.geant ()).graph in
  let net = Igp.Network.create g in
  let routers = Array.of_list (G.nodes g) in
  let pops =
    Array.map (fun r -> (Igp.Prefix.v (Printf.sprintf "pop-%02d" r), r)) routers
  in
  let synth =
    Igp.Prefix.synthesize shape ~n:cfg.synthesized
    |> List.map (fun p -> (p, Kit.Prng.pick shape routers))
    |> Array.of_list
  in
  let announced = Array.to_list pops @ Array.to_list synth in
  List.iter
    (fun (p, origin) -> Igp.Network.announce_prefix net p ~origin ~cost:0)
    announced;
  let (), warm_ms = timed (fun () -> Igp.Network.warm net) in
  let (sim, ctl, wd, probe), assemble_ms =
    timed (fun () ->
        let caps = Netsim.Link.capacities ~default:cfg.capacity in
        let monitor =
          Netsim.Monitor.create ~poll_interval:2. ~threshold:0.9
            ~clear_threshold:0.7 ~alpha:0.8 caps
        in
        let sim = Sim.create ~dt:0.5 ~monitor ~flow_history:false net caps in
        let ctl =
          Ctl.create
            ~config:{ Ctl.default_config with relax_after }
            net
        in
        let probe, wd = wire rep sim net ctl in
        (sim, ctl, wd, probe))
  in
  (* Surge k: [pairs] PoPs from a rotation over every router, each
     sending to one hot prefix announced elsewhere. *)
  let order = Array.copy routers in
  Kit.Prng.shuffle shape order;
  let hot_pool = if cfg.synthesized > 0 then synth else pops in
  let surges =
    Array.init cfg.surges (fun k ->
        let hot = Array.init cfg.pairs (fun _ -> Kit.Prng.pick shape hot_pool) in
        List.init cfg.pairs (fun j ->
            let prefix, origin = hot.(j) in
            let rec src i =
              let r = order.((cfg.pairs * k + j + i) mod Array.length order) in
              if r = origin then src (i + 1) else r
            in
            { Video.Workload.src = src 0; prefix; rate = 1.; video_duration = video }))
  in
  Kit.Prng.shuffle prng surges;
  let first_id = Kit.Prng.int prng 1_000_000 * cfg.streams in
  let flows, generate_ms =
    timed (fun () ->
        Array.to_list
          (Array.mapi
             (fun k specs ->
               Video.Workload.crowd prng specs
                 ~first_id:(first_id + (k * cfg.streams))
                 ~count:cfg.streams
                 ~at:(2. +. (float_of_int k *. period)))
             surges)
        |> List.concat)
  in
  let (), add_flow_ms = timed (fun () -> List.iter (Sim.add_flow sim) flows) in
  times.warm_ms <- warm_ms :: times.warm_ms;
  rep.generate_ms <- generate_ms;
  rep.add_flow_ms <- add_flow_ms;
  rep.assemble_ms <- assemble_ms;
  times.setup_s <- (clock () -. t_start) :: times.setup_s;
  {
    sim;
    snet = net;
    sctl = ctl;
    swd = wd;
    sprobe = probe;
    announced;
    horizon = 2. +. (float_of_int cfg.surges *. period);
  }

let surge_run sc =
  let rep = sc.sprobe.rep in
  (* An operation is a stream-step; it fails when the stream has no
     route. *)
  while Sim.time sc.sim < sc.horizon -. 1e-9 do
    step sc.sprobe sc.sim;
    if rep.checked then rep.attempted <- rep.attempted + account sc.sprobe sc.sim;
    rep.failed <- rep.failed + List.length (Sim.unroutable_flows sc.sim)
  done;
  finish sc.sprobe sc.sim sc.sctl sc.swd;
  (* Output checks: the last surge is over and calm has passed, so the
     network must be back to its lie-free IGP state. *)
  let lsdb = Igp.Network.lsdb sc.snet in
  if Igp.Lsdb.fake_count lsdb <> 0 then
    fail_check rep "%d fakes left after the calm tail" (Igp.Lsdb.fake_count lsdb);
  if Wd.violation_count sc.swd <> 0 then
    fail_check rep "%d watchdog violations" (Wd.violation_count sc.swd);
  if Sim.unroutable_flows sc.sim <> [] then fail_check rep "unroutable streams at the end";
  let fresh = Igp.Network.create (Netgraph.Zoo.geant ()).graph in
  List.iter
    (fun (p, origin) -> Igp.Network.announce_prefix fresh p ~origin ~cost:0)
    sc.announced;
  let bad = ref 0 in
  List.iter
    (fun (p, _) ->
      List.iter
        (fun router ->
          match (Igp.Network.fib sc.snet ~router p, Igp.Network.fib fresh ~router p) with
          | None, None -> ()
          | Some a, Some b when Igp.Fib.equal_forwarding a b -> ()
          | _ -> incr bad)
        (Igp.Network.routers sc.snet))
    sc.announced;
  if !bad > 0 then fail_check rep "%d FIB entries differ from a fresh lie-free network" !bad;
  if rep.failed > 0 then
    rep.problems <- Printf.sprintf "%d stream-steps had no route" rep.failed :: rep.problems

(* ------------------------------------------------------------------ *)
(* chaos: consecutive seeds of Scenarios.Chaos, replayed with brackets *)

let chaos_seeds = 1000

let chaos_until = 30.

(* The verdict-relevant constants of Scenarios.Chaos.run. *)
let chaos_lie_ttl = 12.

let chaos_relax_after = 10.

let chaos_quiet = 40.

let chaos_prefix = Igp.Prefix.v "blue"

(* The inputs of one chaos repetition, drawn during set-up: a block of
   consecutive seeds with their fault plans, the offered streams (the
   same for every seed), and the fault-free reference network every
   verdict compares against (built once, where Scenarios.Chaos.run
   rebuilds it per seed). *)
type chaos_block = {
  plans : Netsim.Faults.plan list;
  flows : Netsim.Flow.t list;
  reference : Igp.Network.t;
}

(* Scenarios.Chaos.run rebuilt from public calls, with the bench's hooks
   around the controller and the watchdog. Assembly (everything up to
   the first step) is timed; the verdict is not. *)
let chaos_one rep block (plan : Netsim.Faults.plan) =
  let t0 = clock () in
  let demo = Netgraph.Topologies.demo () in
  let g = demo.graph in
  let pristine = G.copy g in
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net chaos_prefix ~origin:demo.c ~cost:0;
  let mb = 1024. *. 1024. in
  let caps = Netsim.Link.capacities ~default:(11. *. mb) in
  List.iter
    (fun link -> Netsim.Link.set_link caps link (2.75 *. mb))
    [ (demo.a, demo.r1); (demo.b, demo.r2); (demo.b, demo.r3) ];
  let monitor =
    Netsim.Monitor.create ~poll_interval:2. ~threshold:0.85 ~clear_threshold:0.6
      ~alpha:0.8 caps
  in
  let sim = Sim.create ~dt:0.5 ~monitor net caps in
  let ctl =
    Ctl.create
      ~config:
        {
          Ctl.default_config with
          relax_after = chaos_relax_after;
          lie_ttl = chaos_lie_ttl;
          max_backoff = 16.;
          seat = Some demo.r3;
        }
      net
  in
  let probe, wd = wire rep sim net ctl in
  let (), add_flow_ms = timed (fun () -> List.iter (Sim.add_flow sim) block.flows) in
  rep.add_flow_ms <- rep.add_flow_ms +. add_flow_ms;
  Netsim.Faults.inject sim plan
    ~on_controller_crash:(fun _ -> Ctl.crash ctl)
    ~on_controller_restart:(fun sim -> Ctl.restart ctl ~time:(Sim.time sim));
  let t1 = clock () in
  rep.host_s <- rep.host_s +. (t1 -. t0);
  rep.assemble_ms <- rep.assemble_ms +. ((t1 -. t0) *. 1000.);
  interval rep "scenarios.assemble" t0 t1 (-1);
  let run_to limit =
    while Sim.time sim < limit -. 1e-9 do
      step probe sim;
      if rep.checked then ignore (account probe sim)
    done
  in
  run_to chaos_until;
  let unroutable_at_until = Sim.unroutable_flows sim in
  run_to (chaos_until +. chaos_quiet);
  finish probe sim ctl wd;
  let unroutable_at_end = Sim.unroutable_flows sim in
  let edges_restored =
    List.sort compare (G.edges g) = List.sort compare (G.edges pristine)
  in
  let fibs_match =
    List.for_all
      (fun router ->
        match
          ( Igp.Network.fib net ~router chaos_prefix,
            Igp.Network.fib block.reference ~router chaos_prefix )
        with
        | None, None -> true
        | Some a, Some b -> Igp.Fib.equal_forwarding a b
        | Some _, None | None, Some _ -> false)
      (Igp.Network.routers net)
  in
  {
    Scenarios.Chaos.seed = plan.seed;
    plan;
    edges_restored;
    fakes_left = Igp.Lsdb.fake_count (Igp.Network.lsdb net);
    fibs_match;
    unroutable_at_until;
    unroutable_at_end;
    controller_alive = Ctl.alive ctl;
    reactions = List.length (Ctl.actions ctl);
    violations = Wd.violations wd;
    quarantines = Wd.quarantine_count wd;
    watchdog_stats = Some (Wd.stats wd);
  }

(* Set-up of one chaos repetition: the reference network, its warm, and
   the repetition's inputs (every seed's fault plan and the streams). *)
let chaos_setup ~seed ~rep ~times =
  let t_start = clock () in
  let demo = Netgraph.Topologies.demo () in
  let reference = Igp.Network.create demo.graph in
  Igp.Network.announce_prefix reference chaos_prefix ~origin:demo.c ~cost:0;
  let (), warm_ms = timed (fun () -> Igp.Network.warm reference) in
  let plans =
    List.init chaos_seeds (fun i ->
        Netsim.Faults.random_plan ~seed:((seed * chaos_seeds) + 1 + i) ~until:chaos_until
          demo.graph)
  in
  let rate = 128. *. 1024. in
  let streams ~base ~count ~src ~at ~duration =
    List.init count (fun i ->
        Netsim.Flow.make ~id:(base + i) ~src ~prefix:chaos_prefix ~demand:rate
          ~start_time:at ~duration ())
  in
  let flows, generate_ms =
    timed (fun () ->
        streams ~base:0 ~count:24 ~src:demo.a ~at:0.5 ~duration:(chaos_until +. 1.5)
        @ streams ~base:100 ~count:20 ~src:demo.b ~at:1. ~duration:(chaos_until +. 1.)
        @ [
            Netsim.Flow.make ~id:999 ~src:demo.a ~prefix:chaos_prefix ~demand:1.
              ~start_time:0. ~duration:(chaos_until +. chaos_quiet +. 10.) ();
          ])
  in
  rep.generate_ms <- generate_ms;
  times.warm_ms <- warm_ms :: times.warm_ms;
  times.setup_s <- (clock () -. t_start) :: times.setup_s;
  { plans; flows; reference }

let chaos_run rep block =
  let verdicts = List.map (chaos_one rep block) block.plans in
  rep.attempted <- List.length verdicts;
  List.iter
    (fun v ->
      if not (Scenarios.Chaos.ok v) then begin
        rep.failed <- rep.failed + 1;
        rep.problems <-
          Printf.sprintf "chaos seed %d: verdict not ok" v.Scenarios.Chaos.seed
          :: rep.problems
      end)
    verdicts;
  verdicts

(* Every replayed verdict must equal Scenarios.Chaos.run's for the seed
   (computed here by the library's own sweep). *)
let chaos_check rep verdicts =
  let seeds = List.map (fun (v : Scenarios.Chaos.verdict) -> v.seed) verdicts in
  let pool = Kit.Pool.create ~domains:(Domain.recommended_domain_count ()) () in
  let expected =
    Scenarios.Chaos.sweep ~pool ~seeds ~until:chaos_until () |> List.map fst
  in
  List.iter2
    (fun (v : Scenarios.Chaos.verdict) e ->
      if v <> e then
        fail_check rep "chaos seed %d: verdict differs from Scenarios.Chaos.run" v.seed)
    verdicts expected

(* ------------------------------------------------------------------ *)
(* Traced-run attribution *)

let layer_of = function
  | "sim.step" -> Some "netsim.step_self"
  | "spf.recompute" -> Some "igp.recompute"
  | "fairshare.water_fill" -> Some "netsim.water_fill"
  | "fibbing.poll" | "fibbing.revalidate" -> Some "fibbing.controller"
  | "netsim.watchdog" -> Some "netsim.watchdog"
  | "scenarios.assemble" -> Some "scenarios.assemble"
  | "bench.step" | "bench.hook" -> Some "bench"
  | _ -> None

(* Self time of every interval: its duration minus what its children
   cover. Intervals from one domain nest properly and the clock is
   strictly increasing, so sorting by start and keeping a stack of open
   intervals recovers the tree. Only trees rooted at a timed bench
   interval count; spans emitted during untimed set-up or checks are
   dropped. Returns the kept intervals, their self times and parents
   (indices into the result, -1 for roots). *)
let self_times intervals =
  let arr = Array.of_list intervals in
  Array.sort (fun a b -> compare a.start b.start) arr;
  let n = Array.length arr in
  let self = Array.map (fun i -> i.stop -. i.start) arr in
  let parent = Array.make n (-1) in
  let keep = Array.make n false in
  let stack = ref [] in
  Array.iteri
    (fun k i ->
      let rec pop () =
        match !stack with
        | top :: rest when arr.(top).stop <= i.start ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | top :: _ ->
        parent.(k) <- top;
        keep.(k) <- keep.(top);
        self.(top) <- self.(top) -. (i.stop -. i.start)
      | [] -> keep.(k) <- i.name = "bench.step" || i.name = "scenarios.assemble");
      stack := k :: !stack)
    arr;
  let index = Array.make n (-1) in
  let kept = ref [] and m = ref 0 in
  Array.iteri
    (fun k _ ->
      if keep.(k) then begin
        index.(k) <- !m;
        incr m;
        kept := k :: !kept
      end)
    arr;
  let kept = Array.of_list (List.rev !kept) in
  ( Array.map (fun k -> arr.(k)) kept,
    Array.map (fun k -> self.(k)) kept,
    Array.map (fun k -> if parent.(k) < 0 then -1 else index.(parent.(k))) kept )

let spans_as_intervals () =
  List.filter_map
    (fun (s : Obs.Trace.span) ->
      match s.name with
      | "sim.step" | "spf.recompute" | "fairshare.water_fill" ->
        Some { name = s.name; start = s.start_time; stop = s.end_time; loop = -1 }
      | _ -> None)
    (Obs.Trace.spans ())

(* Spans carry no loop id of their own: they inherit the one of the
   bench interval that contains them. *)
let inherit_loops arr parent =
  Array.iteri
    (fun k i ->
      if i.loop < 0 && parent.(k) >= 0 then arr.(k) <- { i with loop = arr.(parent.(k)).loop })
    arr

(* ------------------------------------------------------------------ *)
(* JSON *)

module J = Kit.Json

let num x = if Float.is_finite x then J.Num x else J.Null

let int n = J.Num (float_of_int n)

let metric value unit = J.Obj [ ("value", num value); ("unit", J.Str unit) ]

(* ------------------------------------------------------------------ *)
(* Main *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  width : int;
  out : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let width = ref 1 and out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "crowd|prefixes|chaos");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "timed seconds per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ( "--width",
        Arg.Set_int width,
        "worker-pool width (default 1; 0: the process default)" );
      ("--out", Arg.Set_string out, "directory for the summary and span dump");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loopbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "crowd"; "prefixes"; "chaos" ]) then begin
    prerr_endline "loopbench: --workload must be crowd, prefixes or chaos";
    exit 2
  end;
  if !seed < 0 then begin
    prerr_endline "loopbench: --seed must be non-negative";
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    width = max 0 !width;
    out = !out;
  }

(* What a run measured. *)
type outcome = {
  first : rep;  (** The checked repetition. *)
  timed : rep list;  (** Every later repetition, in order. *)
  live_heap_mb : float;
  times : setup_times;
}

(* The modelled outcome every repetition reproduces exactly. *)
let fingerprint r =
  Printf.sprintf "%h %d %d %d %d %d %d %d %d %d %d %d %d %d"
    r.relief_sum r.relief_n r.failed r.reactions r.lies_max (List.length r.loops)
    r.polls r.spf_runs r.full_invalidations r.routers_dirtied r.routers_kept
    r.flood_messages r.wd_sweeps r.wd_skipped

(* The state a repetition leaves behind, kept reachable for the
   live-heap reading. *)
type kept =
  | Surges of surge_scenario
  | Chaos of chaos_block * Scenarios.Chaos.verdict list

(* Live words of the major heap after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

(* Size of the state a repetition leaves reachable: live heap with it
   minus live heap once it is dropped, so that runtime bookkeeping (per
   domain, per pool) does not count. *)
let retained_mb kept =
  let kept = ref (Some kept) in
  let with_state = live_words () in
  ignore (Sys.opaque_identity !kept);
  kept := None;
  let without = live_words () in
  float_of_int ((with_state - without) * (Sys.word_size / 8)) /. 1e6

let run_workload args =
  let times = { setup_s = []; warm_ms = [] } in
  let cfg = if args.workload = "crowd" then crowd_cfg else prefixes_cfg in
  (* One repetition: set up, drive, check. Each starts from a compacted
     heap: without it, every repetition ran a few percent slower than
     the one before, as the major heap grew with each dropped scenario. *)
  let one ~tracing ~checked =
    Gc.compact ();
    let rep = new_rep ~tracing ~checked in
    if tracing then begin
      Obs.reset ();
      Obs.enable ();
      Obs.Prof.enable ()
    end;
    let kept =
      match args.workload with
      | "chaos" ->
        let block = chaos_setup ~seed:args.seed ~rep ~times in
        Chaos (block, chaos_run rep block)
      | _ ->
        let sc = surge_setup cfg ~seed:args.seed ~rep ~times in
        surge_run sc;
        Surges sc
    in
    if tracing then begin
      Obs.disable ();
      Obs.Prof.disable ();
      if Obs.Trace.dropped () > 0 then
        fail_check rep "span ring overflowed (%d spans dropped)" (Obs.Trace.dropped ());
      rep.intervals <- spans_as_intervals () @ rep.intervals;
      Obs.reset ()
    end;
    (rep, kept)
  in
  Obs.Clock.set_source clock;
  Obs.Trace.set_capacity 1_000_000;
  (* The checked repetition comes first and doubles as warm-up: its
     outputs are checked (against the library's own results for chaos)
     and its modelled metrics reported, but its step timings are not
     used. *)
  let first, kept = one ~tracing:false ~checked:true in
  (match kept with
  | Chaos (_, verdicts) -> chaos_check first verdicts
  | Surges _ -> ());
  let heap = retained_mb kept in
  (* Set-ups without a run, so that setup_s is a median of at least ten
     set-ups however few repetitions fit in --seconds. *)
  for _ = 1 to 8 do
    Gc.compact ();
    let rep = new_rep ~tracing:false ~checked:false in
    match args.workload with
    | "chaos" -> ignore (chaos_setup ~seed:args.seed ~rep ~times)
    | _ -> ignore (surge_setup cfg ~seed:args.seed ~rep ~times)
  done;
  (* Timed repetitions for --seconds of wall-clock time, their set-up
     included, so that a run's length stays bounded when the host
     withholds the CPU. A traced run alternates traced and untraced
     ones, so that its overhead compares like with like. *)
  let timed = ref [] in
  let k = ref 0 in
  let have tracing = List.exists (fun r -> r.tracing = tracing) !timed in
  let t_end = Unix.gettimeofday () +. args.seconds in
  while
    Unix.gettimeofday () < t_end
    || not (have false)
    || (args.trace && not (have true))
  do
    incr k;
    let r, _ = one ~tracing:(args.trace && !k mod 2 = 1) ~checked:false in
    if fingerprint r <> fingerprint first then
      fail_check r "repetition %d is not a replay of the checked one" !k;
    timed := r :: !timed
  done;
  { first; timed = List.rev !timed; live_heap_mb = heap; times }

let sum_by f reps = List.fold_left (fun acc r -> acc +. f r) 0. reps

let traced o = List.filter (fun r -> r.tracing) o.timed

let untraced o = List.filter (fun r -> not r.tracing) o.timed

let rate r = r.sim_s /. r.host_s

let end_to_end o =
  let u = untraced o in
  let loops = List.concat_map (fun r -> r.loops) u in
  let f = o.first in
  [
    ("setup_s", median o.times.setup_s, "s");
    ("sim_rate", median (List.map rate u), "sim-s/s");
    ("loop_ms_p50", quantile loops 0.5, "ms");
    ("relief_s_mean", f.relief_sum /. float_of_int (max 1 f.relief_n), "sim-s");
    ("unserved_share", f.unserved /. f.offered, "ratio");
    ("live_heap_mb", o.live_heap_mb, "MB");
  ]

(* Per-layer metrics: times are medians over the traced repetitions of
   each one's total; counters come from the checked repetition (every
   repetition reproduces them). *)
let per_layer o ~self =
  let t = traced o in
  let med f = median (List.map f t) in
  let f = o.first in
  let kept_share =
    float_of_int f.routers_kept
    /. float_of_int (max 1 (f.routers_kept + f.routers_dirtied))
  in
  let layer name = med (fun r -> self r name) *. 1000. in
  [
    ("fibbing.poll_ms", med (fun r -> r.poll_ms), "ms");
    ("fibbing.polls", float_of_int f.polls, "count");
    ("fibbing.poll_alloc_mw", med (fun r -> r.poll_alloc_w /. 1e6), "Mw");
    ("fibbing.react_ms_p50", quantile (List.concat_map (fun r -> r.react) t) 0.5, "ms");
    ("fibbing.reactions", float_of_int f.reactions, "count");
    ("fibbing.lies_max", float_of_int f.lies_max, "count");
    ("fibbing.revalidate_ms", med (fun r -> r.revalidate_ms), "ms");
    ("igp.spf_runs", float_of_int f.spf_runs, "count");
    ("igp.full_invalidations", float_of_int f.full_invalidations, "count");
    ("igp.routers_dirtied", float_of_int f.routers_dirtied, "count");
    ("igp.kept_share", kept_share, "ratio");
    ("igp.recompute_ms", layer "igp.recompute", "ms");
    ("igp.warm_ms", median o.times.warm_ms, "ms");
    ("igp.flood_messages", float_of_int f.flood_messages, "count");
    ("netsim.step_self_ms", layer "netsim.step_self", "ms");
    ("netsim.water_fill_ms", layer "netsim.water_fill", "ms");
    ("netsim.class_share", f.classes_sum /. Float.max 1. f.streams_sum, "ratio");
    ("netsim.watchdog_ms", med (fun r -> r.watchdog_ms), "ms");
    ("netsim.watchdog_sweeps", float_of_int f.wd_sweeps, "count");
    ("netsim.watchdog_skipped", float_of_int f.wd_skipped, "count");
    ("video.generate_ms", med (fun r -> r.generate_ms), "ms");
    ("netsim.add_flow_ms", med (fun r -> r.add_flow_ms), "ms");
    ("scenarios.assemble_ms", med (fun r -> r.assemble_ms), "ms");
    ( "obs.trace_overhead",
      (median (List.map rate (untraced o)) /. median (List.map rate t)) -. 1.,
      "ratio" );
  ]

let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Attribute every traced repetition: self time per layer, written with
   each interval as JSON lines to [dump]. Returns ((rep, layer), self
   seconds) rows. *)
let attribute o ~dump =
  let oc = open_out dump in
  let table = ref [] in
  List.iteri
    (fun ri r ->
      let arr, self, parent = self_times r.intervals in
      inherit_loops arr parent;
      let origin = if Array.length arr > 0 then arr.(0).start else 0. in
      let per_layer = Hashtbl.create 8 in
      Array.iteri
        (fun k i ->
          let layer = Option.value ~default:i.name (layer_of i.name) in
          Hashtbl.replace per_layer layer
            (self.(k) +. Option.value ~default:0. (Hashtbl.find_opt per_layer layer));
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("rep", int ri);
                    ("id", int k);
                    ("parent", int parent.(k));
                    ("name", J.Str i.name);
                    ("layer", J.Str layer);
                    ("start_us", num ((i.start -. origin) *. 1e6));
                    ("dur_us", num ((i.stop -. i.start) *. 1e6));
                    ("self_us", num (self.(k) *. 1e6));
                    ("loop", int i.loop);
                  ]));
          output_char oc '\n')
        arr;
      Hashtbl.iter (fun layer s -> table := ((r, layer), s) :: !table) per_layer)
    (traced o);
  close_out oc;
  !table

let () =
  let args = parse_args () in
  (* Every pool the program creates gets this width. At the process
     default (nproc) each SPF batch and each large water-fill spawns a
     helper domain; on the 2-vCPU VM the benchmark was built on, the
     cost of those spawns swung by a factor of three or more between
     runs minutes apart, so timings are taken at width 1 and the
     default width is exercised by the self-test (see NOTES.md). *)
  if args.width > 0 then Kit.Pool.set_default_domains (Some args.width);
  let width = Kit.Pool.default_domain_count () in
  let nproc = Domain.recommended_domain_count () in
  let o = run_workload args in
  let f = o.first in
  ensure_dir args.out;
  let base =
    Filename.concat args.out
      (Printf.sprintf "%s-s%d-t%d" args.workload args.seed (if args.trace then 1 else 0))
  in
  let table = if args.trace then attribute o ~dump:(base ^ "-spans.jsonl") else [] in
  let self r l = Option.value ~default:0. (List.assoc_opt (r, l) table) in
  let layers = List.sort_uniq compare (List.map (fun ((_, l), _) -> l) table) in
  (* Share of each traced repetition's timed host time that the
     program's layers account for (the rest is the bench's own step loop
     and hook work). *)
  let coverage =
    List.map
      (fun r ->
        List.fold_left
          (fun acc l -> if l = "bench" then acc else acc +. self r l)
          0. layers
        /. r.host_s)
      (traced o)
  in
  if args.workload <> "chaos" then
    List.iter
      (fun share ->
        if share < 0.95 then
          fail_check f "layer self times cover only %.1f%% of timed host time"
            (share *. 100.))
      coverage;
  let metrics = if args.trace then per_layer o ~self else end_to_end o in
  let reps = f :: o.timed in
  let problems = List.sort_uniq compare (List.concat_map (fun r -> r.problems) reps) in
  let attempted = f.attempted in
  let failed =
    f.failed + List.fold_left (fun acc r -> acc + r.checks_failed) 0 reps
  in
  let correct = failed = 0 in
  Printf.printf
    "workload %s, seed %d, pool width %d (nproc %d), %d repetitions (%d traced)\n"
    args.workload args.seed width nproc (List.length reps) (List.length (traced o));
  Printf.printf "timed %.3f s host for %.1f sim-s; %d loops\n"
    (sum_by (fun r -> r.host_s) o.timed)
    (sum_by (fun r -> r.sim_s) o.timed)
    (List.length (List.concat_map (fun r -> r.loops) o.timed));
  Printf.printf "per-repetition sim-s/s:%s\n"
    (String.concat ""
       (List.map
          (fun r -> Printf.sprintf " %.1f%s" (rate r) (if r.tracing then "t" else ""))
          o.timed));
  (* Reported, not gated: failures already fail the run, and the loop
     tail has ten samples beyond p90 only on crowd and chaos. *)
  Printf.printf "  %-26s %14.6g ratio (%d of %d)\n" "failed_share"
    (float_of_int f.failed /. float_of_int (max 1 f.attempted))
    f.failed f.attempted;
  let loops = List.concat_map (fun r -> r.loops) (untraced o) in
  Printf.printf "  %-26s %14.6g ms (%d loops)\n" "loop_ms_p90" (quantile loops 0.9)
    (List.length loops);
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %14.6g %s\n" n v u) metrics;
  if args.trace then begin
    Printf.printf "per-layer self time, median ms per traced repetition:\n";
    List.iter
      (fun l ->
        Printf.printf "  %-26s %12.3f\n" l
          (median (List.map (fun r -> self r l) (traced o)) *. 1000.))
      layers;
    List.iter
      (fun s -> Printf.printf "  program layers cover %.2f%% of timed host time\n" (s *. 100.))
      coverage
  end;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let metrics_json = J.Obj (List.map (fun (n, v, u) -> (n, metric v u)) metrics) in
  let oc = open_out (base ^ ".json") in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str args.workload);
            ("seed", int args.seed);
            ("width", int width);
            ("nproc", int nproc);
            ("repetitions", int (List.length reps));
            ("correct", J.Bool correct);
            ("modelled", J.Str (fingerprint f ^ Printf.sprintf " %h" o.live_heap_mb));
            ("metrics", metrics_json);
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", int (max 1 attempted));
            ("failed", int failed);
            ("metrics", metrics_json);
          ]));
  exit (if correct then 0 else 1)
