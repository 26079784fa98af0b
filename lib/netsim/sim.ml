type event = Start of Flow.t | Stop of int

let m_steps = Obs.Metrics.counter "sim.steps"
let m_step_alloc = Obs.Metrics.counter "sim.step_alloc_words"
let m_rehashed = Obs.Metrics.counter "sim.rehashed_flows"

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

(* Flows sharing (src, prefix, demand, hashed path) are fluid-identical:
   max-min fairness gives them the same rate, so they collapse into one
   weighted [Fairshare] group and each member's rate is the group's
   per-member level. [solo] pins a class to a single flow (AIMD keeps
   per-flow state; [~aggregation:false] forces it for A/B tests). *)
type class_key = {
  ck_src : Netgraph.Graph.node;
  ck_prefix : Igp.Lsa.prefix;
  ck_demand : float;
  ck_path : Netgraph.Graph.node list;
  ck_solo : int; (* -1 when aggregating, else the member's flow id *)
}

type flow_class = {
  key : class_key;
  c_links : Link.t list; (* distinct directed links of the path *)
  members : (int, unit) Hashtbl.t;
  mutable weight : int;
  (* Smallest member id, the class's place in [demand_matrix]; stale
     after that member leaves, until the next [demand_matrix] rescans. *)
  mutable first : int;
  mutable first_stale : bool;
  mutable rate : float; (* per-member rate of the last completed step *)
  (* Set while [rewalk_dirty] picks the flows to re-place: the class's
     path crosses a row the pass found dirty for its prefix. *)
  mutable rehash : bool;
}

(* Where a flow's routing stands. A flow is [Unplaced] from its start
   until the routing pass of that step places it; a [Classed] flow's
   path is its class's [ck_path]. *)
type placement = Unplaced | Unroutable | Classed of flow_class

type flow_state = { flow : Flow.t; mutable placement : placement }

type t = {
  net : Igp.Network.t;
  caps : Link.capacities;
  dt : float;
  monitor : Monitor.t option;
  rate_model : rate_model;
  aggregate : bool;
  flow_history : bool;
  mutable time : float;
  queue : event Events.t;
  (* Scheduled actions; equal times run in registration order. *)
  pending_actions : (t -> unit) Events.t;
  (* One record per active flow, inserted at its start: a start, a stop
     or a placement is one lookup. Its iteration order is the order the
     re-walks place flows in, which sets the order classes enter
     [classes] and so the order of every per-link float sum over them. *)
  flows : (int, flow_state) Hashtbl.t;
  known_ids : (int, unit) Hashtbl.t;
  poll_hooks : (t -> Monitor.alarm list -> unit) Queue.t;
  step_hooks : (t -> unit) Queue.t;
  (* Pre-routing hooks: fired after fake expiry and scheduled actions,
     before flows are (re)routed, on steps where the LSDB changed.
     [route_change_version] tracks the last version they saw. *)
  route_change_hooks : (t -> unit) Queue.t;
  mutable route_change_version : int;
  (* The flow classes built over the flows' hashed paths, and the
     [Unroutable] flows, indexed so [demand_matrix] costs no scan of
     every flow; a flow enters or leaves the index only when it loses or
     regains a path. *)
  classes : (class_key, flow_class) Hashtbl.t;
  unroutable : (int, flow_state) Hashtbl.t;
  mutable pending_starts : flow_state list; (* reversed arrival order *)
  (* Per prefix, the rows the current routing pass has read, by router
     ([None] = not read yet); emptied at the start of every pass. *)
  rows : (Igp.Lsa.prefix, Igp.Fib.t option option array) Hashtbl.t;
  mutable routes_lsdb_version : int;
  mutable spf_cursor : int;
  (* Convergence modelling (optional). *)
  convergence : Igp.Convergence.timing option;
  mutable transition : transition option;
  fib_snapshot : (Netgraph.Graph.node * Igp.Lsa.prefix, Igp.Fib.t option) Hashtbl.t;
  (* Last step's per-link throughput, sorted by link. *)
  mutable link_rates : (Link.t * float) list;
  flow_histories : (int, Kit.Timeseries.t) Hashtbl.t;
  link_histories : (Link.t, Kit.Timeseries.t) Hashtbl.t;
  (* Failure state: weights of removed directed edges, keyed per failed
     link, so a restore reinstates exactly what the failure took out. *)
  failed_edges : (Netgraph.Graph.node * Netgraph.Graph.node, int) Hashtbl.t;
  (* Crashed routers with their saved adjacencies (succ, pred). *)
  crashed : (Netgraph.Graph.node, (Netgraph.Graph.node * int) list * (Netgraph.Graph.node * int) list) Hashtbl.t;
}

let create ?(dt = 0.5) ?monitor ?(rate_model = Max_min_fair) ?convergence
    ?(aggregation = true) ?(flow_history = true) net caps =
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
    aggregate;
    flow_history;
    convergence;
    transition = None;
    fib_snapshot = Hashtbl.create 64;
    time = 0.;
    queue = Events.create ();
    pending_actions = Events.create ();
    flows = Hashtbl.create 256;
    known_ids = Hashtbl.create 256;
    poll_hooks = Queue.create ();
    step_hooks = Queue.create ();
    route_change_hooks = Queue.create ();
    route_change_version = Igp.Lsdb.version (Igp.Network.lsdb net);
    classes = Hashtbl.create 64;
    unroutable = Hashtbl.create 16;
    pending_starts = [];
    rows = Hashtbl.create 16;
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
  if Hashtbl.mem t.known_ids flow.Flow.id then
    invalid_arg "Sim.add_flow: duplicate flow id";
  if flow.Flow.start_time < t.time then
    invalid_arg "Sim.add_flow: start time in the past";
  Events.schedule t.queue ~time:flow.Flow.start_time (Start flow);
  if Flow.end_time flow < infinity then
    Events.schedule t.queue ~time:(Flow.end_time flow) (Stop flow.Flow.id);
  (* Only now: a flow [Events.schedule] rejected leaves its id free. *)
  Hashtbl.replace t.known_ids flow.Flow.id ()

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
  series t.flow_histories id ~make:(fun () ->
      Kit.Timeseries.create ~name:(Printf.sprintf "flow%d" id))

let link_series t link =
  series t.link_histories link ~make:(fun () ->
      Kit.Timeseries.create ~name:(Link.name (Igp.Network.graph t.net) link))

let track_link t link = ignore (link_series t link)

let active_flows t =
  Hashtbl.fold (fun _ st acc -> st.flow :: acc) t.flows []
  |> List.sort (fun (a : Flow.t) b -> compare a.id b.id)

let class_of t id =
  match Hashtbl.find_opt t.flows id with
  | Some { placement = Classed c; _ } -> Some c
  | Some { placement = Unplaced | Unroutable; _ } | None -> None

let flow_rate t id = match class_of t id with Some c -> c.rate | None -> 0.

let current_link_rates t = t.link_rates

let unroutable_flows t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.unroutable [] |> List.sort compare

let flow_path t id = Option.map (fun c -> c.key.ck_path) (class_of t id)

let flow_classes t = Hashtbl.length t.classes

let active_prefixes t =
  Hashtbl.fold (fun _ st acc -> st.flow.Flow.prefix :: acc) t.flows []
  |> List.sort_uniq compare

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

(* ---- flow classes ---- *)

let links_of_path path =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go ((u, v) :: acc) rest
    | _ -> acc
  in
  go [] path

let join_class t st path =
  let flow = st.flow in
  let key =
    {
      ck_src = flow.src;
      ck_prefix = flow.prefix;
      ck_demand = flow.demand;
      ck_path = path;
      ck_solo = (if t.aggregate then -1 else flow.id);
    }
  in
  let c =
    match Hashtbl.find_opt t.classes key with
    | Some c -> c
    | None ->
      let c =
        {
          key;
          c_links = List.sort_uniq Link.compare (links_of_path path);
          members = Hashtbl.create 4;
          weight = 0;
          first = flow.id;
          first_stale = false;
          rate = 0.;
          rehash = false;
        }
      in
      Hashtbl.replace t.classes key c;
      c
  in
  if flow.id < c.first then c.first <- flow.id;
  c.weight <- c.weight + 1;
  Hashtbl.replace c.members flow.id ();
  st.placement <- Classed c

(* Take a flow out of its class, or out of the unroutable index. *)
let unplace t st =
  let id = st.flow.id in
  match st.placement with
  | Classed c ->
    Hashtbl.remove c.members id;
    c.weight <- c.weight - 1;
    if id = c.first then c.first_stale <- true;
    if c.weight = 0 then Hashtbl.remove t.classes c.key
  | Unroutable -> Hashtbl.remove t.unroutable id
  | Unplaced -> ()

(* The rows of [prefix] the current pass reads, by router. A row is read
   through [effective_fib] the first time the pass asks for it, so a
   router the SPF engine must refill is refilled — with its
   [spf.recompute] span — on the same read as it would be uncached. The
   cache is only valid within one pass: the next may follow an LSDB
   change, a transition's switch or a later instant. *)
let row_reader t prefix =
  let row =
    match Hashtbl.find_opt t.rows prefix with
    | Some row -> row
    | None ->
      let row = Array.make (Netgraph.Graph.node_count (Igp.Network.graph t.net)) None in
      Hashtbl.replace t.rows prefix row;
      row
  in
  fun router ->
    match row.(router) with
    | Some fib -> fib
    | None ->
      let fib = effective_fib t router prefix in
      row.(router) <- Some fib;
      fib

(* (Re)derive one flow's hashed path and update its class membership;
   a flow whose walk reproduces its class's path keeps its class
   untouched, and that check builds no list. *)
let place_flow t st =
  let flow = st.flow in
  let fib = row_reader t flow.prefix in
  let max_hops = Netgraph.Graph.node_count (Igp.Network.graph t.net) in
  let kept =
    match st.placement with
    | Classed c -> Hashing.follows ~fib ~max_hops ~flow_id:flow.id c.key.ck_path
    | Unroutable | Unplaced -> false
  in
  if not kept then
    match (Hashing.route_with ~fib ~max_hops ~flow_id:flow.id ~src:flow.src, st.placement) with
    | None, Unroutable -> ()
    | Some path, _ ->
      unplace t st;
      join_class t st path
    | None, (Classed _ | Unplaced) ->
      unplace t st;
      st.placement <- Unroutable;
      Hashtbl.replace t.unroutable flow.id st

let remove_flow t id =
  match Hashtbl.find_opt t.flows id with
  | None -> ()
  | Some st ->
    (* An [Unplaced] flow stays in [pending_starts]; the placement loop
       skips it once it is out of [flows]. *)
    Hashtbl.remove t.flows id;
    unplace t st

(* ---- demand matrix ---- *)

type demand = {
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  path : Netgraph.Graph.node list option;
  amount : float;
}

(* One entry per class and one per unroutable flow, in ascending order
   of smallest member id: a consumer summing per key meets its keys in
   the order an id-sorted walk over the streams would (see sim.mli).
   Between steps every active flow is placed — in a class or
   unroutable — since [recompute_routes] places each start. *)
let demand_matrix t =
  let unroutable id st acc =
    let f = st.flow in
    (id, { src = f.src; prefix = f.prefix; path = None; amount = f.demand }) :: acc
  in
  let classed =
    Hashtbl.fold
      (fun _ c acc ->
        if c.first_stale then begin
          c.first <- Hashtbl.fold (fun id () m -> Int.min id m) c.members max_int;
          c.first_stale <- false
        end;
        let k = c.key in
        ( c.first,
          {
            src = k.ck_src;
            prefix = k.ck_prefix;
            path = Some k.ck_path;
            amount = float_of_int c.weight *. k.ck_demand;
          } )
        :: acc)
      t.classes []
  in
  Hashtbl.fold unroutable t.unroutable classed
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let rewalk_all t =
  Obs.Metrics.add m_rehashed (Hashtbl.length t.flows);
  Hashtbl.iter (fun _ st -> place_flow t st) t.flows

(* Re-walk only the flows whose cached answers may have changed: the
   members of a class whose path crosses a router that reran stage 1, or
   a router whose row for the class's prefix was flagged by a lie, plus
   every currently-unroutable flow, which may have regained a path.
   Every member of a class shares its prefix and path, so the class is
   judged once for all of them. Every other flow's routers answer its
   prefix exactly as before (see [Spf_engine.dirtied_since]), so its
   hashed walk would reproduce the cached path verbatim. A lie flags one
   prefix's rows, so the classes of other prefixes through the same
   routers keep their paths. The flows are placed in reverse [flows]
   order: [classes], and the float sums over it, depend on the order
   members move between classes. *)
let rewalk_dirty t dirt =
  if dirt <> [] || Hashtbl.length t.unroutable > 0 then begin
    (* By router: [Some []] when every row may change, [Some ps] when
       the rows of [ps] may, [None] when none may. *)
    let dirty = Array.make (Netgraph.Graph.node_count (Igp.Network.graph t.net)) None in
    let every_row rs = List.iter (fun r -> dirty.(r) <- Some []) rs in
    List.iter
      (function
        | Igp.Spf_engine.Full_dirt -> every_row (Igp.Network.routers t.net)
        | Routers_dirt rs -> every_row rs
        | Rows_dirt (p, rs) ->
          List.iter
            (fun r ->
              match dirty.(r) with
              | Some [] -> ()
              | Some ps -> dirty.(r) <- Some (p :: ps)
              | None -> dirty.(r) <- Some [ p ])
            rs)
      dirt;
    let crosses prefix r =
      match dirty.(r) with
      | None -> false
      | Some [] -> true
      | Some ps -> List.exists (Igp.Prefix.equal prefix) ps
    in
    let judged =
      Hashtbl.fold
        (fun _ c acc ->
          if List.exists (crosses c.key.ck_prefix) c.key.ck_path then begin
            c.rehash <- true;
            c :: acc
          end
          else acc)
        t.classes []
    in
    if judged <> [] || Hashtbl.length t.unroutable > 0 then begin
      let todo =
        Hashtbl.fold
          (fun _ st acc ->
            match st.placement with
            | Classed c when c.rehash -> st :: acc
            | Unroutable -> st :: acc
            | Classed _ | Unplaced -> acc)
          t.flows []
      in
      List.iter (fun c -> c.rehash <- false) judged;
      Obs.Metrics.add m_rehashed (List.length todo);
      List.iter (place_flow t) todo
    end
  end

(* Bring routing up to date: begin/advance/end convergence transitions,
   re-walk affected flows (all of them during a transition, where every
   router's view is time-dependent; only those whose rows may have
   changed otherwise), then route newly started flows. *)
let recompute_routes t =
  if Hashtbl.length t.rows > 0 then Hashtbl.reset t.rows;
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
    if t.transition <> None || transition_ended then rewalk_all t
    else begin
      match Igp.Spf_engine.dirtied_since engine ~cursor:t.spf_cursor with
      | None -> rewalk_all t
      | Some dirty -> rewalk_dirty t dirty
    end;
    t.spf_cursor <- Igp.Spf_engine.dirty_cursor engine
  end;
  (match t.pending_starts with
  | [] -> ()
  | starts ->
    List.iter
      (fun st -> if Hashtbl.mem t.flows st.flow.id then place_flow t st)
      (List.rev starts);
    t.pending_starts <- [];
    t.spf_cursor <- Igp.Spf_engine.dirty_cursor engine);
  (* Only a convergence model reads the snapshot, at the next change.
     Without one, every router is still brought up to date while a flow
     is active, so a step's SPF refills, and their [spf.recompute]
     spans, fall inside the step that caused them rather than in
     whatever reads routes next. *)
  match t.convergence with
  | Some _ -> if t.transition = None then snapshot_fibs t
  | None -> if Hashtbl.length t.flows > 0 then Igp.Network.warm t.net

(* ---- allocation ---- *)

let allocate_max_min t =
  let arr = Array.of_list (Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []) in
  let demands = Array.map (fun c -> c.key.ck_demand) arr in
  let links = Array.map (fun c -> c.c_links) arr in
  let weights = Array.map (fun c -> c.weight) arr in
  let rates = Fairshare.water_fill t.caps ~demands ~links ~weights in
  Array.iteri (fun i c -> c.rate <- rates.(i)) arr

let allocate_aimd t aimd =
  (* Classes are singletons here ([create] disables aggregation for
     AIMD), so each class maps 1:1 to a flow and its route. *)
  let routes =
    Hashtbl.fold
      (fun _ st acc ->
        match st.placement with
        | Classed c -> ({ Fairshare.flow = st.flow; links = c.c_links }, c) :: acc
        | Unroutable | Unplaced -> acc)
      t.flows []
  in
  let fair_routes = List.map fst routes in
  let offered = Aimd.update aimd ~dt:t.dt ~capacities:t.caps fair_routes in
  let offered_tbl : (int, float) Hashtbl.t =
    Hashtbl.create (max 16 (2 * List.length offered))
  in
  List.iter (fun (id, rate) -> Hashtbl.replace offered_tbl id rate) offered;
  (* Offered load per link at the AIMD rates; delivery is capped at the
     bottleneck share of each flow (excess is queue drop). *)
  let loads : (Link.t, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((route : Fairshare.route), _) ->
      let rate =
        Option.value ~default:0. (Hashtbl.find_opt offered_tbl route.flow.Flow.id)
      in
      List.iter
        (fun link ->
          Hashtbl.replace loads link
            (rate +. Option.value ~default:0. (Hashtbl.find_opt loads link)))
        route.links)
    routes;
  List.iter
    (fun ((route : Fairshare.route), c) ->
      let rate =
        Option.value ~default:0. (Hashtbl.find_opt offered_tbl route.flow.Flow.id)
      in
      let factor =
        List.fold_left
          (fun acc link ->
            let load = Option.value ~default:0. (Hashtbl.find_opt loads link) in
            if load > 0. then min acc (Link.capacity t.caps link /. load)
            else acc)
          1. route.links
      in
      c.rate <- rate *. min 1. factor)
    routes

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
  Events.drain t.queue ~time:step_start (fun event ->
      match event with
      | Start flow ->
        (* Resolve the flow's destination against the announced prefixes
           by longest-prefix match: a flow aimed inside an announced
           block is governed by that block's announcement (exact matches
           — every named prefix — resolve to themselves). The flow then
           carries the governing prefix, so classes, FIB snapshots and
           the controller all key on what the routers actually route. *)
        let flow =
          match Igp.Network.resolve t.net flow.Flow.prefix with
          | Some governing
            when not (Igp.Prefix.equal governing flow.Flow.prefix) ->
            { flow with Flow.prefix = governing }
          | Some _ | None -> flow
        in
        let st = { flow; placement = Unplaced } in
        Hashtbl.replace t.flows flow.Flow.id st;
        t.pending_starts <- st :: t.pending_starts;
        if Obs.enabled () then
          Obs.Timeline.record ~time:step_start ~source:"sim" ~kind:"flow_start"
            [
              ("flow", Int flow.Flow.id);
              ("prefix", String (Igp.Prefix.to_string flow.Flow.prefix));
              ("demand", Float flow.Flow.demand);
            ]
      | Stop id ->
        remove_flow t id;
        if Obs.enabled () then
          Obs.Timeline.record ~time:step_start ~source:"sim" ~kind:"flow_stop"
            [ ("flow", Int id) ];
        (match t.rate_model with
        | Aimd aimd -> Aimd.forget aimd id
        | Max_min_fair -> ()));
  (* 2–3. Route and allocate. *)
  recompute_routes t;
  (match t.rate_model with
  | Max_min_fair -> allocate_max_min t
  | Aimd aimd -> allocate_aimd t aimd);
  let link_tbl : (Link.t, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ c ->
      let total = float_of_int c.weight *. c.rate in
      List.iter
        (fun link ->
          Hashtbl.replace link_tbl link
            (total +. Option.value ~default:0. (Hashtbl.find_opt link_tbl link)))
        c.c_links)
    t.classes;
  t.link_rates <-
    Hashtbl.fold (fun link rate acc -> (link, rate) :: acc) link_tbl []
    |> List.sort (fun (a, _) (b, _) -> Link.compare a b);
  (* 4. Record histories for this interval, stamped at its start. *)
  if t.flow_history then begin
    Hashtbl.iter
      (fun id st ->
        let rate = match st.placement with Classed c -> c.rate | Unroutable | Unplaced -> 0. in
        Kit.Timeseries.add (flow_series t id) ~time:step_start rate)
      t.flows
  end;
  (* Every link with an existing history gets this step's rate (0. when
     idle); links carrying traffic for the first time open a history.
     Appends target distinct series, so no ordering or union list is
     needed — the two passes replace a per-step [touched @ tracked]
     [sort_uniq], which allocated on every step of every run. *)
  Hashtbl.iter
    (fun link series ->
      let rate = Option.value ~default:0. (Hashtbl.find_opt link_tbl link) in
      Kit.Timeseries.add series ~time:step_start rate)
    t.link_histories;
  List.iter
    (fun (link, rate) ->
      if not (Hashtbl.mem t.link_histories link) then
        Kit.Timeseries.add (link_series t link) ~time:step_start rate)
    t.link_rates;
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
