let m_steps = Obs.Metrics.counter "sim.steps"
let m_step_alloc = Obs.Metrics.counter "sim.step_alloc_words"

type rate_model = Max_min_fair | Aimd of Aimd.t

(* A reconvergence in progress: routers still on [old_fib] until their
   entry in [applies_at] passes. [switch_times] (sorted) and
   [next_switch] track which installation boundaries have been crossed,
   so flows are only re-routed on steps where some router actually
   switched views. *)
type transition = {
  old_fib : (Netgraph.Graph.node * Igp.Lsa.prefix, Igp.Fib.t option) Hashtbl.t;
  applies_at : (Netgraph.Graph.node, float) Hashtbl.t; (* absolute times *)
  switch_times : float array;
  mutable next_switch : int;
  ends_at : float;
}

type t = {
  net : Igp.Network.t;
  caps : Link.capacities;
  dt : float;
  monitor : Monitor.t option;
  rate_model : rate_model;
  flow_history : bool;
  mutable time : float;
  (* Each flow's life, scheduled at its start and at its stop. *)
  queue : Placement.life Events.t;
  (* Scheduled actions; equal times run in registration order. *)
  pending_actions : (t -> unit) Events.t;
  placement : Placement.t;
  (* Every id ever added: an id is never reused. *)
  known_ids : Kit.Int_set.t;
  poll_hooks : (t -> Monitor.alarm list -> unit) Queue.t;
  step_hooks : (t -> unit) Queue.t;
  (* Pre-routing hooks: fired after fake expiry and scheduled actions,
     before flows are (re)routed, on steps where the LSDB changed.
     [route_change_version] tracks the last version they saw. *)
  route_change_hooks : (t -> unit) Queue.t;
  mutable route_change_version : int;
  mutable routes_lsdb_version : int;
  mutable spf_cursor : int;
  (* Convergence modelling (optional). *)
  convergence : Igp.Convergence.timing option;
  mutable transition : transition option;
  fib_snapshot : (Netgraph.Graph.node * Igp.Lsa.prefix, Igp.Fib.t option) Hashtbl.t;
  (* Last step's per-link throughput, sorted by link. *)
  mutable link_rates : (Link.t * float) list;
  (* Histories, only for what a reader asked for: every flow when
     [flow_history] is set, and the links named by [track_link] or a
     [link_series] call. *)
  flow_histories : (int, Kit.Timeseries.t) Hashtbl.t;
  link_histories : (Link.t, Kit.Timeseries.t) Hashtbl.t;
  (* Failure state: weights of removed directed edges, keyed per failed
     link, so a restore reinstates exactly what the failure took out. *)
  failed_edges : (Netgraph.Graph.node * Netgraph.Graph.node, int) Hashtbl.t;
  (* Crashed routers with their saved adjacencies (succ, pred). *)
  crashed : (Netgraph.Graph.node, (Netgraph.Graph.node * int) list * (Netgraph.Graph.node * int) list) Hashtbl.t;
}

let create ?(dt = 0.5) ?monitor ?(rate_model = Max_min_fair) ?convergence
    ?(aggregation = true) ?(flow_history = false) net caps =
  if dt <= 0. then invalid_arg "Sim.create: dt must be positive";
  let aggregate =
    (* AIMD evolves per-flow state, so its classes stay singletons. *)
    aggregation && (match rate_model with Max_min_fair -> true | Aimd _ -> false)
  in
  {
    net;
    caps;
    dt;
    monitor;
    rate_model;
    flow_history;
    convergence;
    transition = None;
    fib_snapshot = Hashtbl.create 64;
    time = 0.;
    queue = Events.create ();
    pending_actions = Events.create ();
    placement = Placement.create ~aggregate net;
    known_ids = Kit.Int_set.create ();
    poll_hooks = Queue.create ();
    step_hooks = Queue.create ();
    route_change_hooks = Queue.create ();
    route_change_version = Igp.Lsdb.version (Igp.Network.lsdb net);
    routes_lsdb_version = -1;
    spf_cursor = 0;
    link_rates = [];
    flow_histories = Hashtbl.create 64;
    link_histories = Hashtbl.create 32;
    failed_edges = Hashtbl.create 8;
    crashed = Hashtbl.create 4;
  }

let network t = t.net

let capacities t = t.caps

let monitor t = t.monitor

let time t = t.time

let dt t = t.dt

let add_flow t flow =
  Flow.validate flow;
  if Kit.Int_set.mem t.known_ids flow.Flow.id then
    invalid_arg "Sim.add_flow: duplicate flow id";
  if flow.Flow.start_time < t.time then
    invalid_arg "Sim.add_flow: start time in the past";
  let life = Placement.life flow in
  Events.schedule t.queue ~time:flow.Flow.start_time life;
  if Flow.end_time flow < infinity then Events.schedule t.queue ~time:(Flow.end_time flow) life;
  (* Only now: a flow [Events.schedule] rejected leaves its id free. *)
  Kit.Int_set.add t.known_ids flow.Flow.id

let schedule t ~time action =
  if time < t.time then invalid_arg "Sim.schedule: time in the past";
  Events.schedule t.pending_actions ~time action

let router_crashed t r = Hashtbl.mem t.crashed r

let fault_event t ~kind attrs =
  if Obs.enabled () then
    Obs.Timeline.record ~time:t.time ~source:"faults" ~kind attrs

let link_attrs t (u, v) =
  [ ("link", Obs.Attr.String (Link.name (Igp.Network.graph t.net) (u, v))) ]

(* Take one directed edge out of the topology, remembering its weight so
   a restore reinstates it bit-for-bit. Already-failed edges keep their
   original record (failing twice must not forget the true weight). *)
let take_edge t a b =
  let g = Igp.Network.graph t.net in
  match Netgraph.Graph.weight g a b with
  | Some w ->
    if not (Hashtbl.mem t.failed_edges (a, b)) then
      Hashtbl.replace t.failed_edges (a, b) w;
    Netgraph.Graph.remove_edge g a b;
    true
  | None -> false

let put_edge_back t a b =
  match Hashtbl.find_opt t.failed_edges (a, b) with
  | Some w when not (router_crashed t a || router_crashed t b) ->
    Netgraph.Graph.add_edge (Igp.Network.graph t.net) a b ~weight:w;
    Hashtbl.remove t.failed_edges (a, b);
    true
  | Some _ | None -> false

let forget_monitor_link t (a, b) =
  match t.monitor with None -> () | Some m -> Monitor.forget m (a, b)

(* A fake LSA whose forwarding adjacency is gone is meaningless: the
   lied-to router cannot resolve the fake next hop any more. Flush it,
   as a real router flushes a route whose next hop vanished. *)
let flush_dangling_fakes t =
  let g = Igp.Network.graph t.net in
  let lsdb = Igp.Network.lsdb t.net in
  List.iter
    (fun (f : Igp.Lsa.fake) ->
      if not (Netgraph.Graph.has_edge g f.attachment f.forwarding) then begin
        Igp.Lsdb.retract_fake lsdb ~fake_id:f.fake_id;
        fault_event t ~kind:"fake_flushed"
          [
            ("fake", String f.fake_id);
            ("router", String (Netgraph.Graph.name g f.attachment));
          ]
      end)
    (Igp.Lsdb.fakes lsdb)

let fail_link_now t (u, v) =
  let removed = take_edge t u v in
  let removed' = take_edge t v u in
  if removed || removed' then begin
    forget_monitor_link t (u, v);
    forget_monitor_link t (v, u);
    flush_dangling_fakes t;
    Igp.Lsdb.touch ~origin:u (Igp.Network.lsdb t.net);
    fault_event t ~kind:"link_down" (link_attrs t (u, v))
  end

let restore_link_now t (u, v) =
  let restored = put_edge_back t u v in
  let restored' = put_edge_back t v u in
  if restored || restored' then begin
    Igp.Lsdb.touch ~origin:u (Igp.Network.lsdb t.net);
    fault_event t ~kind:"link_up" (link_attrs t (u, v))
  end

let crash_router_now t r =
  if not (router_crashed t r) then begin
    let g = Igp.Network.graph t.net in
    let succ = Netgraph.Graph.succ g r in
    let pred = Netgraph.Graph.pred g r in
    List.iter (fun (n, _) -> Netgraph.Graph.remove_edge g r n) succ;
    List.iter (fun (n, _) -> Netgraph.Graph.remove_edge g n r) pred;
    Hashtbl.replace t.crashed r (succ, pred);
    (match t.monitor with
    | Some m -> Monitor.prune m ~alive:(fun (a, b) -> a <> r && b <> r)
    | None -> ());
    (* The crashed router's LSAs are flushed domain-wide: its router LSA
       ages out (sequence bump below) and any fake attached to — or
       forwarding through — it dies with its adjacencies. The retraction
       bypasses flooding-cost accounting: a dead router floods nothing. *)
    flush_dangling_fakes t;
    Igp.Lsdb.reoriginate (Igp.Network.lsdb t.net) ~origin:r;
    fault_event t ~kind:"router_crash"
      [ ("router", String (Netgraph.Graph.name g r)) ]
  end

let recover_router_now t r =
  match Hashtbl.find_opt t.crashed r with
  | None -> ()
  | Some (succ, pred) ->
    Hashtbl.remove t.crashed r;
    let g = Igp.Network.graph t.net in
    (* Re-add adjacencies towards live neighbors; edges towards a still
       crashed neighbor are handed to that neighbor's crash record so
       its own recovery restores them. *)
    let defer n edge_succ edge_pred =
      match Hashtbl.find_opt t.crashed n with
      | Some (s, p) ->
        Hashtbl.replace t.crashed n (edge_succ @ s, edge_pred @ p)
      | None -> ()
    in
    List.iter
      (fun (n, w) ->
        if router_crashed t n then defer n [] [ (r, w) ]
        else Netgraph.Graph.add_edge g r n ~weight:w)
      succ;
    List.iter
      (fun (n, w) ->
        if router_crashed t n then defer n [ (r, w) ] []
        else Netgraph.Graph.add_edge g n r ~weight:w)
      pred;
    Igp.Lsdb.reoriginate (Igp.Network.lsdb t.net) ~origin:r;
    fault_event t ~kind:"router_recover"
      [ ("router", String (Netgraph.Graph.name g r)) ]

(* Cut (or heal) a whole edge set in one scheduled action, so the
   intermediate one-edge-down states of a partition are never exposed to
   routing: the step that runs the action sees the complete cut. *)
let fail_links_now t links =
  List.iter (fun link -> fail_link_now t link) links

let restore_links_now t links =
  List.iter (fun link -> restore_link_now t link) links

let fail_link t ~time link = schedule t ~time (fun t -> fail_link_now t link)

let restore_link t ~time link =
  schedule t ~time (fun t -> restore_link_now t link)

let fail_links t ~time links =
  schedule t ~time (fun t -> fail_links_now t links)

let restore_links t ~time links =
  schedule t ~time (fun t -> restore_links_now t links)

let crash_router t ~time r = schedule t ~time (fun t -> crash_router_now t r)

let recover_router t ~time r =
  schedule t ~time (fun t -> recover_router_now t r)

let on_poll t hook =
  if t.monitor = None then invalid_arg "Sim.on_poll: no monitor configured";
  Queue.add hook t.poll_hooks

let on_step t hook = Queue.add hook t.step_hooks

let on_route_change t hook = Queue.add hook t.route_change_hooks

let series table key ~make =
  match Hashtbl.find_opt table key with
  | Some s -> s
  | None ->
    let s = make () in
    Hashtbl.replace table key s;
    s

let flow_series t id =
  let make () = Kit.Timeseries.create ~name:(Printf.sprintf "flow%d" id) in
  if t.flow_history then series t.flow_histories id ~make else make ()

let link_series t link =
  series t.link_histories link ~make:(fun () ->
      Kit.Timeseries.create ~name:(Link.name (Igp.Network.graph t.net) link))

let track_link t link = ignore (link_series t link)

let active_flows t = Placement.flows t.placement

let flow_rate t id = Placement.flow_rate t.placement id

let current_link_rates t = t.link_rates

let unroutable_flows t = Placement.unroutable_flows t.placement

let flow_path t id = Placement.flow_path t.placement id

let flow_classes t = Placement.class_count t.placement

let active_prefixes t = Placement.prefixes t.placement

type demand = Placement.demand = {
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  path : Netgraph.Graph.node list option;
  amount : float;
}

let demand_matrix t = Placement.demand_matrix t.placement

(* The FIB a router is currently forwarding with: during a transition,
   routers whose installation time has not passed still use their old
   FIB. *)
let effective_fib t router prefix =
  match t.transition with
  | Some transition
    when (match Hashtbl.find_opt transition.applies_at router with
         | Some apply_at -> t.time < apply_at -. 1e-9
         | None -> true (* never receives the flood: stays old until the end *))
    -> (
    match Hashtbl.find_opt transition.old_fib (router, prefix) with
    | Some fib -> fib
    | None -> Igp.Network.fib t.net ~router prefix)
  | Some _ | None -> Igp.Network.fib t.net ~router prefix

(* Capture the currently-effective FIBs as the "old" side and schedule
   each router's switch to the new routing. *)
let begin_transition t timing =
  let g = Igp.Network.graph t.net in
  let old_fib = Hashtbl.create 64 in
  List.iter
    (fun prefix ->
      List.iter
        (fun router ->
          Hashtbl.replace old_fib (router, prefix)
            (match Hashtbl.find_opt t.fib_snapshot (router, prefix) with
            | Some fib -> fib
            | None -> effective_fib t router prefix))
        (Igp.Network.routers t.net))
    (active_prefixes t);
  let origin =
    Option.value ~default:0 (Igp.Lsdb.last_origin (Igp.Network.lsdb t.net))
  in
  let schedule = Igp.Convergence.installation_schedule timing g ~origin in
  let applies_at = Hashtbl.create (max 8 (List.length schedule)) in
  List.iter
    (fun (router, rel) -> Hashtbl.replace applies_at router (t.time +. rel))
    schedule;
  let switch_times =
    Array.of_list (List.map (fun (_, rel) -> t.time +. rel) schedule)
  in
  Array.sort compare switch_times;
  let ends_at = Array.fold_left max t.time switch_times in
  (* Switches at or before the current instant are already effective:
     the rewalk of this very step sees them. *)
  let next_switch = ref 0 in
  while
    !next_switch < Array.length switch_times
    && t.time >= switch_times.(!next_switch) -. 1e-9
  do
    incr next_switch
  done;
  t.transition <-
    Some { old_fib; applies_at; switch_times; next_switch = !next_switch; ends_at }

let snapshot_fibs t =
  Hashtbl.reset t.fib_snapshot;
  List.iter
    (fun prefix ->
      let table = Igp.Network.fib_table t.net prefix in
      Array.iteri
        (fun router fib -> Hashtbl.replace t.fib_snapshot (router, prefix) fib)
        table)
    (active_prefixes t)

(* Bring routing up to date: begin/advance/end convergence transitions,
   re-walk affected flows (all of them during a transition, where every
   router's view is time-dependent; only those whose rows may have
   changed otherwise), then route newly started flows. *)
let recompute_routes t =
  Placement.new_pass t.placement ~read:(effective_fib t);
  let engine = Igp.Network.engine t.net in
  let lsdb_version = Igp.Lsdb.version (Igp.Network.lsdb t.net) in
  let lsdb_changed = lsdb_version <> t.routes_lsdb_version in
  if lsdb_changed then begin
    (match t.convergence with
    | Some timing when Hashtbl.length t.fib_snapshot > 0 ->
      begin_transition t timing
    | Some _ | None -> ());
    t.routes_lsdb_version <- lsdb_version
  end;
  let transition_ended =
    match t.transition with
    | Some transition when t.time >= transition.ends_at -. 1e-9 ->
      t.transition <- None;
      true
    | Some _ | None -> false
  in
  let boundary_crossed =
    match t.transition with
    | None -> false
    | Some tr ->
      let crossed = ref false in
      while
        tr.next_switch < Array.length tr.switch_times
        && t.time >= tr.switch_times.(tr.next_switch) -. 1e-9
      do
        tr.next_switch <- tr.next_switch + 1;
        crossed := true
      done;
      !crossed
  in
  if lsdb_changed || transition_ended || boundary_crossed then begin
    if t.transition <> None || transition_ended then Placement.rewalk_all t.placement
    else begin
      match Igp.Spf_engine.dirtied_since engine ~cursor:t.spf_cursor with
      | None -> Placement.rewalk_all t.placement
      | Some dirty -> Placement.rewalk_dirty t.placement dirty
    end;
    t.spf_cursor <- Igp.Spf_engine.dirty_cursor engine
  end;
  if Placement.place_starts t.placement then t.spf_cursor <- Igp.Spf_engine.dirty_cursor engine;
  (* Only a convergence model reads the snapshot, at the next change.
     Without one, every router is still brought up to date while a flow
     is active, so a step's SPF refills, and their [spf.recompute]
     spans, fall inside the step that caused them rather than in
     whatever reads routes next. *)
  match t.convergence with
  | Some _ -> if t.transition = None then snapshot_fibs t
  | None -> if Placement.live t.placement > 0 then Igp.Network.warm t.net

let step_body t =
  let step_start = t.time in
  (* Fake-LSA aging: the simulator — i.e. the routers themselves — ages
     lies out, so an orphaned lie expires even when the controller that
     installed it is dead. This is the paper's graceful-degradation
     argument made executable. *)
  let expired = Igp.Lsdb.expire_fakes (Igp.Network.lsdb t.net) ~now:step_start in
  if expired <> [] && Obs.enabled () then
    List.iter
      (fun (f : Igp.Lsa.fake) ->
        Obs.Timeline.record ~time:step_start ~source:"faults"
          ~kind:"lie_expired"
          [
            ("fake", String f.fake_id);
            ("prefix", String (Igp.Prefix.to_string f.prefix));
          ])
      expired;
  (* 0. Run scheduled actions due now (failures, manual injections),
     ordered by time then registration order for equal timestamps. An
     action scheduled by one of them waits for the next step. *)
  Events.drain t.pending_actions ~time:(step_start +. 1e-9) (fun action -> action t);
  (* 0b. Route-change hooks: the control plane reacts to LSDB changes
     (faults, expiries, manual injections) {e before} flows are routed
     against the new state — a Fibbing controller participates in the
     IGP, so it learns of a flood as fast as any router and can withdraw
     a lie the change invalidated within the same convergence. Hooks may
     themselves change the LSDB (withdrawals); the version marker is
     re-read after they run so their own changes do not re-trigger. *)
  if not (Queue.is_empty t.route_change_hooks) then begin
    let lsdb = Igp.Network.lsdb t.net in
    if Igp.Lsdb.version lsdb <> t.route_change_version then begin
      Queue.iter (fun hook -> hook t) t.route_change_hooks;
      t.route_change_version <- Igp.Lsdb.version lsdb
    end
  end;
  (* 1. Activate and retire flows due at the start of this step. *)
  Events.drain t.queue ~time:step_start (fun life ->
      if not (Placement.started life) then begin
        let flow = Placement.start t.placement life in
        if Obs.enabled () then
          Obs.Timeline.record ~time:step_start ~source:"sim" ~kind:"flow_start"
            [
              ("flow", Int flow.Flow.id);
              ("prefix", String (Igp.Prefix.to_string flow.Flow.prefix));
              ("demand", Float flow.Flow.demand);
            ]
      end
      else begin
        let id = Placement.stop t.placement life in
        if Obs.enabled () then
          Obs.Timeline.record ~time:step_start ~source:"sim" ~kind:"flow_stop"
            [ ("flow", Int id) ];
        match t.rate_model with Aimd aimd -> Aimd.forget aimd id | Max_min_fair -> ()
      end);
  (* 2–3. Route and allocate. Once no flow is active or scheduled, the
     slots go: a finished workload's peak is not kept, while a gap
     between two scheduled crowds does not regrow them. *)
  recompute_routes t;
  if Events.is_empty t.queue then Placement.release_slots t.placement;
  (match t.rate_model with
  | Max_min_fair -> Placement.allocate_max_min t.placement t.caps
  | Aimd aimd -> Placement.allocate_aimd t.placement aimd ~dt:t.dt t.caps);
  let link_tbl = Placement.link_loads t.placement in
  t.link_rates <-
    Hashtbl.fold (fun link rate acc -> (link, rate) :: acc) link_tbl []
    |> List.sort (fun (a, _) (b, _) -> Link.compare a b);
  (* 4. Record histories for this interval, stamped at its start. *)
  if t.flow_history then
    Placement.iter_rates t.placement (fun id rate ->
        Kit.Timeseries.add (flow_series t id) ~time:step_start rate);
  (* Every tracked link gets this step's rate (0. when idle). *)
  Hashtbl.iter
    (fun link series ->
      let rate = Option.value ~default:0. (Hashtbl.find_opt link_tbl link) in
      Kit.Timeseries.add series ~time:step_start rate)
    t.link_histories;
  (* 5. Advance time, then feed the monitor and fire hooks. *)
  t.time <- step_start +. t.dt;
  Obs.Metrics.incr m_steps;
  (match t.monitor with
  | None -> ()
  | Some monitor ->
    Monitor.observe monitor ~time:t.time ~dt:t.dt t.link_rates;
    if Monitor.poll_due monitor ~time:t.time then begin
      let alarms = Monitor.poll monitor ~time:t.time in
      (* Alarms are recorded before the poll hooks run, so controller
         reactions always follow their triggering alarm in the merged
         timeline's causal order. *)
      if Obs.enabled () then begin
        Obs.Timeline.record ~time:t.time ~source:"monitor" ~kind:"poll"
          [ ("alarms", Int (List.length alarms)) ];
        let g = Igp.Network.graph t.net in
        List.iter
          (fun (a : Monitor.alarm) ->
            Obs.Timeline.record ~time:t.time ~source:"monitor"
              ~kind:(if a.raised then "alarm" else "clear")
              [
                ("link", String (Link.name g a.link));
                ("utilization", Float a.utilization);
              ])
          alarms
      end;
      Queue.iter (fun hook -> hook t alarms) t.poll_hooks
    end);
  Queue.iter (fun hook -> hook t) t.step_hooks

let step t =
  if Obs.enabled () then
    Obs.Prof.with_span "sim.step" ~alloc_counter:m_step_alloc (fun () ->
        step_body t)
  else step_body t

let run_until t until =
  while t.time < until -. 1e-9 do
    step t
  done
