(* Chaos harness: run the paper's demo network under a random seeded
   fault schedule and check that, once the faults cease and every lie
   has been refreshed away or aged out, the system converges back to
   exactly the fault-free pure-IGP state. *)

module Graph = Netgraph.Graph
module Sim = Netsim.Sim
module Faults = Netsim.Faults

type verdict = {
  seed : int;
  plan : Faults.plan;
  edges_restored : bool;
  fakes_left : int;
  fibs_match : bool;
  unroutable_at_until : int list;
      (** Flows without a path when the faults have healed but lies may
          still be installed — informative, not part of [ok]. *)
  unroutable_at_end : int list;
  controller_alive : bool;
  reactions : int;
  violations : Netsim.Watchdog.violation list;
  quarantines : int;
  watchdog_stats : Netsim.Watchdog.stats option;
}

let ok v =
  v.edges_restored && v.fakes_left = 0 && v.fibs_match
  && v.unroutable_at_end = [] && v.violations = []

let prefix = Igp.Prefix.v "blue"

(* Controller tuned for short chaos runs: lies age out in [lie_ttl]
   seconds without refresh, calm withdrawal after [relax_after]. The
   quiescence tail must outlast both. *)
let lie_ttl = 12.

let relax_after = 10.

let quiet = 40.

let run ?(faults = 4) ?(watchdog = true) ~seed ~until () =
  if until < 16. then invalid_arg "Chaos.run: until must be >= 16";
  let demo = Netgraph.Topologies.demo () in
  let g = demo.graph in
  let pristine = Graph.copy g in
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net prefix ~origin:demo.c ~cost:0;
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
  (* When telemetry is on, stamp the shared timeline with simulated time
     so two identical runs emit byte-identical traces. *)
  if Obs.enabled () then Obs.Clock.set_source (fun () -> Sim.time sim);
  let controller =
    Fibbing.Controller.create
      ~config:
        {
          Fibbing.Controller.default_config with
          relax_after;
          lie_ttl;
          max_backoff = 16.;
          (* The paper's controller is connected to R3: during a
             partition it only sees (and reacts to) its own side. *)
          seat = Some demo.r3;
        }
      net
  in
  (* Hook order matters: the controller attaches first, so on a route
     change its own revalidation withdraws invalidated lies before the
     watchdog's guard-of-last-resort purges whatever remains. *)
  Fibbing.Controller.attach controller sim;
  let wd =
    if not watchdog then None
    else begin
      let wd = Netsim.Watchdog.arm sim in
      (* A guard purge enters the owner's hold-down too: the controller
         must not re-install the same bad steering next poll. *)
      Netsim.Watchdog.on_quarantine wd (fun ~prefix ~reason ->
          Fibbing.Controller.quarantine controller ~time:(Sim.time sim)
            ~prefix ~reason);
      Some wd
    end
  in
  (* Deterministic offered load, shaped like the demo's flash crowds so
     the controller actually lies: enough demand from both A and B to
     congest the 2.75 MB/s edge links. *)
  let rate = 128. *. 1024. in
  let add_flows ~base ~count ~src ~at ~duration =
    List.init count (fun i ->
        Netsim.Flow.make ~id:(base + i) ~src ~prefix ~demand:rate
          ~start_time:at ~duration ())
    |> List.iter (Sim.add_flow sim)
  in
  add_flows ~base:0 ~count:24 ~src:demo.a ~at:0.5 ~duration:(until +. 1.5);
  add_flows ~base:100 ~count:20 ~src:demo.b ~at:1. ~duration:(until +. 1.);
  (* A negligible probe flow outlives everything: its utilization cannot
     disturb calm detection, but it must stay routable to the very end. *)
  let probe_id = 999 in
  Netsim.Flow.make ~id:probe_id ~src:demo.a ~prefix ~demand:1. ~start_time:0.
    ~duration:(until +. quiet +. 10.) ()
  |> Sim.add_flow sim;
  let plan = Faults.random_plan ~faults ~seed ~until g in
  Faults.inject sim plan
    ~on_controller_crash:(fun _ -> Fibbing.Controller.crash controller)
    ~on_controller_restart:(fun sim ->
      Fibbing.Controller.restart controller ~time:(Sim.time sim));
  Sim.run_until sim until;
  let unroutable_at_until = Sim.unroutable_flows sim in
  (* Quiescence: the heavy flows end, calm sets in, a live controller
     withdraws its lies, a dead one lets them age out. *)
  Sim.run_until sim (until +. quiet);
  let unroutable_at_end = Sim.unroutable_flows sim in
  let edges_restored =
    List.sort compare (Graph.edges g) = List.sort compare (Graph.edges pristine)
  in
  let fakes_left = Igp.Lsdb.fake_count (Igp.Network.lsdb net) in
  (* Ground truth: a from-scratch, never-faulted network over the same
     topology must agree with every surviving FIB. *)
  let reference = Igp.Network.create (Graph.copy pristine) in
  Igp.Network.announce_prefix reference prefix ~origin:demo.c ~cost:0;
  let fibs_match =
    List.for_all
      (fun router ->
        match
          ( Igp.Network.fib net ~router prefix,
            Igp.Network.fib reference ~router prefix )
        with
        | None, None -> true
        | Some a, Some b -> Igp.Fib.equal_forwarding a b
        | Some _, None | None, Some _ -> false)
      (Igp.Network.routers net)
  in
  {
    seed;
    plan;
    edges_restored;
    fakes_left;
    fibs_match;
    unroutable_at_until;
    unroutable_at_end;
    controller_alive = Fibbing.Controller.alive controller;
    reactions = List.length (Fibbing.Controller.actions controller);
    violations =
      (match wd with Some wd -> Netsim.Watchdog.violations wd | None -> []);
    quarantines =
      (match wd with Some wd -> Netsim.Watchdog.quarantine_count wd | None -> 0);
    watchdog_stats = Option.map Netsim.Watchdog.stats wd;
  }

(* One scenario per domain. Each run is wrapped in [Obs.capture], so its
   sequence numbers restart at 0 and its events stay in domain-private
   buffers: the timeline of run k is byte-identical whether the sweep
   executes on 1 domain or 8, in whatever interleaving. *)
let sweep ~pool ?faults ?watchdog ~seeds ~until () =
  let seeds = Array.of_list seeds in
  Kit.Pool.map pool ~n:(Array.length seeds) (fun i ->
      let v, cap =
        Obs.capture (fun () ->
            run ?faults ?watchdog ~seed:seeds.(i) ~until ())
      in
      let timeline =
        if Obs.enabled () then Some (Obs.capture_json cap) else None
      in
      (v, timeline))
  |> Array.to_list

let pp fmt v =
  let demo = Netgraph.Topologies.demo () in
  Format.fprintf fmt
    "@[<v>chaos seed %d: %s@,\
     schedule:@,%s@,\
     edges restored: %b@,\
     fakes left: %d@,\
     fibs match fault-free reference: %b@,\
     unroutable at until: %d, at end: %d@,\
     controller alive: %b, actions logged: %d@,\
     watchdog: %s@]"
    v.seed
    (if ok v then "OK" else "FAILED")
    (Faults.to_string demo.graph v.plan)
    v.edges_restored v.fakes_left v.fibs_match
    (List.length v.unroutable_at_until)
    (List.length v.unroutable_at_end)
    v.controller_alive v.reactions
    (match v.watchdog_stats with
    | None -> "off"
    | Some s ->
      Printf.sprintf
        "%d violations, %d quarantines (%d steps, %d sweeps, %d skipped)"
        (List.length v.violations)
        v.quarantines s.steps_checked s.safety_sweeps s.safety_skipped)
