module Graph = Netgraph.Graph
module Sim = Netsim.Sim
module Monitor = Netsim.Monitor
module Link = Netsim.Link

(* Telemetry: no-ops while Obs is disabled. *)
let m_reactions = Obs.Metrics.counter "controller.reactions"
let m_candidates_considered = Obs.Metrics.counter "controller.candidates_considered"
let m_candidates_dropped = Obs.Metrics.counter "controller.candidates_dropped"
let m_quarantines = Obs.Metrics.counter "controller.quarantines"
let m_resyncs = Obs.Metrics.counter "controller.resyncs"
let g_fakes_live = Obs.Metrics.gauge "controller.fakes_live"

type strategy = Local_deflection | Global_optimal

type config = {
  max_entries : int;
  cooldown : float;
  relax_after : float;
  strategy : strategy;
  lie_ttl : float;
  max_backoff : float;
  seat : Graph.node option;
}

let default_config =
  {
    max_entries = 4;
    cooldown = 4.;
    relax_after = 60.;
    strategy = Local_deflection;
    lie_ttl = 30.;
    max_backoff = 60.;
    seat = None;
  }

(* Candidates offering less than this share of the total available
   capacity are dropped. *)
let min_avail_fraction = 0.05

(* Upstream hops one reaction may walk. *)
let escalation_depth = 4

(* Actions the log keeps; the oldest are evicted first. *)
let log_capacity = 4096

(* Seconds a quarantined prefix is held down. *)
let quarantine_hold = 12.

type reoptimizer =
  Igp.Network.t ->
  prefix:Igp.Lsa.prefix ->
  capacities:(Netsim.Link.t -> float) ->
  demands:(Graph.node * float) list ->
  egress:Graph.node ->
  Requirements.router_requirement list

type action = { time : float; description : string; fakes_installed : int }

(* What the controller decided about one prefix. The lies themselves
   live only in the LSDB: a live controller owns every one of them. *)
type steering =
  | Computed of {
      reqs : Requirements.t;
      (* The recipe of the prefix's lies, kept for a safe-order
         withdrawal; forgotten once one of them has left the LSDB. *)
      plan : Augmentation.plan;
      mutable last_action : float; (* the cooldown's stamp *)
    }
  (* Hold-down until this time after a quarantine: no new steering. *)
  | Held of float

type t = {
  net : Igp.Network.t;
  config : config;
  reoptimize : reoptimizer option;
  steering : (Igp.Lsa.prefix, steering) Hashtbl.t;
  log : action Kit.Ring.t; (* bounded, oldest evicted first *)
  mutable calm_since : float option;
  mutable alive : bool;
  (* Exponential backoff for reactions that keep changing nothing. *)
  mutable failures : int;
  mutable backoff_until : float;
  (* Routers reachable from the seat at the last reaction; growth means
     a partition healed and triggers an adopt-or-withdraw resync. -1 =
     never measured (or no seat configured). *)
  mutable reachable_count : int;
}

let create ?(config = default_config) ?reoptimize net =
  if config.lie_ttl <= 0. then
    invalid_arg "Controller.create: lie_ttl must be positive";
  if config.max_backoff < config.cooldown then
    invalid_arg "Controller.create: max_backoff must be >= cooldown";
  {
    net;
    config;
    reoptimize;
    steering = Hashtbl.create 4;
    log = Kit.Ring.create ~capacity:log_capacity;
    calm_since = None;
    alive = true;
    failures = 0;
    backoff_until = neg_infinity;
    reachable_count = -1;
  }

let fake_count t =
  if t.alive then Igp.Lsdb.fake_count (Igp.Network.lsdb t.net) else 0

let alive t = t.alive

let stamp t ~time (f : Igp.Lsa.fake) =
  Igp.Lsdb.set_fake_expiry
    (Igp.Network.lsdb t.net)
    ~fake_id:f.fake_id ~now:time ~ttl:t.config.lie_ttl

let refresh_lies t ~time = List.iter (stamp t ~time) (Igp.Network.fakes t.net)

(* Append to the action log and publish the live-lie gauge and a
   timeline event. *)
let log t ~time ~counter ~fakes_installed ~kind attrs description =
  Kit.Ring.push t.log { time; description; fakes_installed };
  Obs.Metrics.incr counter;
  if Obs.enabled () then begin
    Obs.Metrics.set g_fakes_live (float_of_int (fake_count t));
    Obs.Timeline.record ~time ~source:"controller" ~kind attrs
  end

let record t ~time ~prefix description =
  let fakes_installed =
    match Hashtbl.find_opt t.steering prefix with
    | Some (Computed { plan; _ }) -> Augmentation.fake_count plan
    | Some (Held _) | None -> 0
  in
  log t ~time ~counter:m_reactions ~fakes_installed ~kind:"action"
    [
      ("prefix", String (Igp.Prefix.to_string prefix));
      ("description", String description);
      ("fakes", Int fakes_installed);
    ]
    description

let actions t = Kit.Ring.to_list t.log

let withdraw_all t =
  if t.alive then begin
    Igp.Network.retract_all_fakes t.net;
    Hashtbl.filter_map_inplace
      (fun _ s -> match s with Held _ -> Some s | Computed _ -> None)
      t.steering
  end

let announcers_of net prefix = Igp.Lsdb.announcers (Igp.Network.lsdb net) prefix

let announcer_of net prefix =
  match announcers_of net prefix with [] -> None | origin :: _ -> Some origin

let quarantine_active t ~time prefix =
  match Hashtbl.find_opt t.steering prefix with
  | Some (Held until) when time < until -> true
  | Some (Held _) -> Hashtbl.remove t.steering prefix; false
  | Some (Computed _) | None -> false

let installed t (f : Igp.Lsa.fake) =
  Igp.Lsdb.installed (Igp.Network.lsdb t.net) f.fake_id

(* A violation was attributed to this prefix's lies (by our own
   revalidation or by the watchdog): withdraw them all and hold the
   prefix down — no new steering until a clean window has passed. *)
let quarantine t ~time ~prefix ~reason =
  if t.alive then begin
    (* Withdraw a computed plan in a transiently safe order when one
       exists. A state that is already unsafe often admits none (and a
       watchdog purge may have left the plan partially installed, which
       the order search cannot replay) — then retract outright, as for
       lies without a plan: better a transient gap than a persistent
       loop. *)
    (match Hashtbl.find_opt t.steering prefix with
    | Some (Computed { plan; _ }) when List.for_all (installed t) plan.fakes ->
      ignore (Transient.revert_safely t.net plan)
    | Some (Computed _ | Held _) | None -> ());
    ignore (Igp.Network.retract_prefix_fakes t.net prefix);
    Hashtbl.replace t.steering prefix (Held (time +. quarantine_hold));
    t.calm_since <- None;
    Obs.Metrics.incr m_quarantines;
    record t ~time ~prefix (Printf.sprintf "quarantine: %s" reason);
    if Obs.enabled () then
      Obs.Timeline.record ~time ~source:"controller" ~kind:"quarantine"
        [
          ("prefix", String (Igp.Prefix.to_string prefix));
          ("reason", String reason);
          ("hold_until", Float (time +. quarantine_hold));
        ]
  end

(* Re-check every prefix we steer against the live network. Registered
   on [Sim.on_route_change], so it runs on every LSDB change, before any
   flow is routed over it: a lie set the change turned unsafe is
   withdrawn within the same convergence. A plan one of whose lies has
   left the LSDB (flushed, expired or purged) is forgotten first: its
   surviving lies count as adopted, and the next reaction compiles
   afresh. *)
let revalidate t sim =
  if t.alive then begin
    let time = Sim.time sim in
    Hashtbl.filter_map_inplace
      (fun _ s ->
        match s with
        | Computed { plan; _ } when not (List.for_all (installed t) plan.fakes)
          ->
          None
        | Computed _ | Held _ -> Some s)
      t.steering;
    let steered =
      List.fold_left
        (fun acc (f : Igp.Lsa.fake) ->
          if List.exists (Igp.Prefix.equal f.prefix) acc then acc
          else f.prefix :: acc)
        [] (Igp.Network.fakes t.net)
    in
    List.iter
      (fun prefix ->
        match Igp.Safety.state_safe t.net ~prefix with
        | Ok () -> ()
        | Error reason ->
          quarantine t ~time ~prefix
            ~reason:
              (Printf.sprintf "topology change made steering unsafe: %s"
                 reason))
      (List.rev steered)
  end

let crash t =
  if t.alive then begin
    t.alive <- false;
    (* Memory is gone; the lies are not. They survive in the LSDB and,
       no longer refreshed, age out there (Sim expires them) — the
       paper's fail-safe. The action log is an observer artifact and is
       deliberately kept for post-mortems. *)
    Hashtbl.reset t.steering;
    t.calm_since <- None;
    t.failures <- 0;
    t.backoff_until <- neg_infinity;
    t.reachable_count <- -1;
    if Obs.enabled () then begin
      Obs.Metrics.set g_fakes_live 0.;
      Obs.Timeline.record ~time:(Obs.Clock.now ()) ~source:"controller"
        ~kind:"crash" []
    end
  end

(* The adopt-or-withdraw judgement over lies found in the LSDB without a
   plan: one whose prefix is still announced and whose forwarding link
   still exists is adopted — stamped now, and from then on refreshed,
   counted and withdrawn on calm like any other; any other is withdrawn
   on the spot. Never blindly reinstall: the steering behind the lies
   may be stale. Returns the adopted and withdrawn counts. *)
let adopt_or_withdraw t ~time fakes =
  let g = Igp.Network.graph t.net in
  List.fold_left
    (fun (adopted, withdrawn) (f : Igp.Lsa.fake) ->
      if
        announcers_of t.net f.prefix <> []
        && Graph.has_edge g f.attachment f.forwarding
      then begin
        stamp t ~time f;
        (adopted + 1, withdrawn)
      end
      else begin
        Igp.Network.retract_fake t.net ~fake_id:f.fake_id;
        (adopted, withdrawn + 1)
      end)
    (0, 0) fakes

let restart t ~time =
  if not t.alive then begin
    t.alive <- true;
    t.calm_since <- None;
    t.failures <- 0;
    t.backoff_until <- neg_infinity;
    t.reachable_count <- -1;
    (* Resync from the network, not from memory: every surviving lie. *)
    let adopted, withdrawn =
      adopt_or_withdraw t ~time (Igp.Network.fakes t.net)
    in
    log t ~time ~counter:m_reactions ~fakes_installed:(fake_count t)
      ~kind:"restart"
      [ ("adopted", Int adopted); ("withdrawn", Int withdrawn) ]
      (Printf.sprintf "restart: %d lies adopted, %d withdrawn" adopted
         withdrawn)
  end

(* Routers reachable from the controller's seat over the live topology.
   During a partition, telemetry from the far side cannot reach the
   controller: links with no reachable endpoint are invisible to it. *)
let reachable_set t seat =
  let g = Igp.Network.graph t.net in
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  Hashtbl.replace seen seat ();
  Queue.add seat queue;
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    List.iter
      (fun (n, _) ->
        if not (Hashtbl.mem seen n) then begin
          Hashtbl.replace seen n ();
          Queue.add n queue
        end)
      (Graph.succ g r)
  done;
  seen

let planned t prefix =
  match Hashtbl.find_opt t.steering prefix with
  | Some (Computed _) -> true
  | Some (Held _) | None -> false

(* Reachability grew (a partition healed): re-run the adopt-or-withdraw
   judgement on every lie without a plan, re-check every computed
   steering, and clear the backoff so the controller re-engages
   promptly. Mirrors the resync [restart] performs, but with memory
   intact. *)
let resync t ~time ~reason =
  let kept, withdrawn =
    adopt_or_withdraw t ~time
      (List.filter
         (fun (f : Igp.Lsa.fake) -> not (planned t f.prefix))
         (Igp.Network.fakes t.net))
  in
  let plans =
    Hashtbl.fold
      (fun p s acc -> match s with Computed _ -> p :: acc | Held _ -> acc)
      t.steering []
  in
  List.iter
    (fun prefix ->
      match Igp.Safety.state_safe t.net ~prefix with
      | Ok () -> ()
      | Error why ->
        quarantine t ~time ~prefix
          ~reason:(Printf.sprintf "resync found unsafe steering: %s" why))
    plans;
  t.failures <- 0;
  t.backoff_until <- neg_infinity;
  log t ~time ~counter:m_resyncs ~fakes_installed:(fake_count t) ~kind:"resync"
    [
      ("reason", String reason);
      ("kept", Int kept);
      ("withdrawn", Int withdrawn);
    ]
    (Printf.sprintf "resync (%s): %d adopted lies kept, %d withdrawn" reason
       kept withdrawn)

(* The capacity a link leaves [v]'s traffic once all foreign demand
   ([other]) is subtracted. *)
let residual_of sim ~other link =
  let foreign = Option.value ~default:0. (Hashtbl.find_opt other link) in
  max 0. (Link.capacity (Sim.capacities sim) link -. foreign)

(* The residual network of one visit at [v]: every link's residual,
   links at [v] excluded (paths through v do not count), drained by a
   virtual super-sink that every announcer feeds (anycast). Built once
   per visit; each candidate runs one max-flow over it. *)
let visit_network t ~residual ~v ~egresses =
  let g = Igp.Network.graph t.net in
  let table : Netgraph.Maxflow.capacities = Hashtbl.create 32 in
  (* An augmented copy, so that node ids of g are preserved. *)
  let g' = Graph.copy g in
  let sink = Graph.add_node g' ~name:"super-sink" in
  List.iter
    (fun egress ->
      Graph.add_edge g' egress sink ~weight:1;
      Hashtbl.replace table (egress, sink) infinity)
    egresses;
  List.iter
    (fun (a, b, _) ->
      if a <> v && b <> v then Hashtbl.replace table (a, b) (residual (a, b)))
    (Graph.edges g);
  (Netgraph.Maxflow.network g' table, sink)

(* Capacity available to [v]'s traffic through candidate next hop [n]:
   the max-flow from n to the prefix's egress(es) over the visit's
   residual network, capped by the v->n link's own residual. *)
let availability ~residual ~v ~egresses visit n =
  let first_hop = residual (v, n) in
  if List.mem n egresses then first_hop
  else begin
    let network, sink = Lazy.force visit in
    min first_hop (Netgraph.Maxflow.max_flow network ~source:n ~sink)
  end

(* Candidate next hops at [v]: current ones plus loop-free alternates
   (neighbors n with D(n) < w(v->n reversed) + D(v), the standard LFA
   condition with the direct-link upper bound on dist(n, v)). *)
let candidates t ~prefix ~v =
  let g = Igp.Network.graph t.net in
  let current = Igp.Network.next_hops t.net ~router:v prefix in
  let dv = Igp.Network.distance t.net ~router:v prefix in
  let alternates =
    match dv with
    | None -> []
    | Some dv ->
      List.filter_map
        (fun (n, _) ->
          if List.mem n current then None
          else begin
            match
              (Igp.Network.distance t.net ~router:n prefix, Graph.weight g n v)
            with
            | Some dn, Some w_nv when dn < w_nv + dv -> Some n
            | Some _, (Some _ | None) | None, _ -> None
          end)
        (Graph.succ g v)
  in
  current @ alternates

(* Two requirement sets are equivalent when they compile to the same FIB
   entry multiplicities everywhere: re-lying for a sub-quantum change is
   pure churn. *)
let same_requirements ~max_entries a b =
  let norm routers =
    List.sort compare
      (List.map
         (fun (rr : Requirements.router_requirement) ->
           (rr.router, List.sort compare (Splitting.multiplicities ~max_entries rr.splits)))
         routers)
  in
  norm a = norm b

(* Install (or refresh) requirements for a prefix. Returns true when
   something was changed. *)
let install_requirements t ~time ~prefix ~description routers =
  if quarantine_active t ~time prefix then false
  else begin
  (* Past the hold-down check, the prefix has a computed plan or none. *)
  let prior = Hashtbl.find_opt t.steering prefix in
  let unchanged =
    match prior with
    | Some (Computed s) ->
      same_requirements ~max_entries:t.config.max_entries s.reqs.routers routers
    | Some (Held _) | None -> false
  in
  if unchanged then false
  else begin
    let reqs = { Requirements.prefix; routers } in
    (* Recompile from a clean slate: retract the prefix's lies first, so
       their ids cannot collide with the new plan's; a rollback puts them
       back. *)
    let previous = Igp.Network.retract_prefix_fakes t.net prefix in
    let rollback message =
      (* Reinstall the previous lies that still fit the topology: a link
         one forwards over can have failed since. Never die mid-reaction.
         A plan survives only whole; otherwise what is back counts as
         adopted. *)
      let restored =
        List.filter
          (fun (f : Igp.Lsa.fake) ->
            match Igp.Network.inject_fake t.net f with
            | () -> true
            | exception Invalid_argument _ -> false)
          previous
      in
      (match prior with
      | Some (Computed s) when List.compare_lengths restored previous = 0 ->
        s.last_action <- time
      | Some (Computed _ | Held _) | None -> Hashtbl.remove t.steering prefix);
      (* A topology change since those lies went in can also make them
         loop: keep them only under the same end-state gate a fresh
         steering must pass, else withdraw and forget them. *)
      let message =
        if restored = [] then message
        else
          match Igp.Safety.state_safe t.net ~prefix with
          | Ok () ->
            List.iter (stamp t ~time) restored;
            message
          | Error reason ->
            ignore (Igp.Network.retract_prefix_fakes t.net prefix);
            Hashtbl.remove t.steering prefix;
            Printf.sprintf "%s; withdrew previous steering (unsafe): %s"
              message reason
      in
      record t ~time ~prefix message;
      false
    in
    match Augmentation.compile ~max_entries:t.config.max_entries t.net reqs with
    | Ok plan ->
      (* Safety gate: requirements merged across reactions were each
         computed against a lied-to network, so the combination could
         form a forwarding cycle even though every router obeys it.
         Reject any steering whose end state is not loop-free. *)
      let scratch = Igp.Network.clone t.net in
      Augmentation.apply scratch plan;
      (match Igp.Safety.state_safe scratch ~prefix with
      | Error reason ->
        rollback (Printf.sprintf "rejected steering (unsafe end state): %s" reason)
      | Ok () ->
        (* Inject in a transiently safe order when one exists; a verified
           plan always has one in practice, but never leave the network
           half-fixed if the search fails. *)
        (match Transient.apply_safely t.net plan with
        | Ok () -> ()
        | Error _ -> Augmentation.apply t.net plan);
        Hashtbl.replace t.steering prefix
          (Computed { reqs; plan; last_action = time });
        (* Lies are born mortal: without this first stamp, a controller
           crash right after installing would leave them orphaned
           forever. *)
        List.iter (stamp t ~time) plan.Augmentation.fakes;
        record t ~time ~prefix description;
        true)
    | Error message -> rollback (Printf.sprintf "compile failed: %s" message)
  end
  end

(* Merge one router's new splits into the prefix's requirements. *)
let install t ~time ~prefix ~router splits =
  let g = Igp.Network.graph t.net in
  let merged =
    { Requirements.router; splits }
    ::
    (match Hashtbl.find_opt t.steering prefix with
    | Some (Computed s) ->
      List.filter
        (fun (rr : Requirements.router_requirement) -> rr.router <> router)
        s.reqs.routers
    | Some (Held _) | None -> [])
  in
  let unchanged_at_router =
    match Hashtbl.find_opt t.steering prefix with
    | Some (Computed s) ->
      (match Requirements.find s.reqs router with
      | Some rr ->
        same_requirements ~max_entries:t.config.max_entries [ rr ]
          [ { Requirements.router; splits } ]
      | None -> false)
    | Some (Held _) | None -> false
  in
  if unchanged_at_router then false
  else
    install_requirements t ~time ~prefix
      ~description:
        (Format.asprintf "steer %s at %s: %a" (Igp.Prefix.to_string prefix) (Graph.name g router)
           (Format.pp_print_list
              ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
              (fun fmt (s : Requirements.split) ->
                Format.fprintf fmt "%s=%.2f" (Graph.name g s.next_hop) s.fraction))
           splits)
      merged

(* Whether a steering still suppresses reactions at [time]: a computed
   plan for its cooldown, a hold-down until it expires. *)
let suppressing t ~time = function
  | Computed s -> time -. s.last_action < t.config.cooldown
  | Held until -> time < until

let cooldown_active t ~time prefix =
  match Hashtbl.find_opt t.steering prefix with
  | Some s -> suppressing t ~time s
  | None -> false

(* [demands] is the reaction's one read of the traffic matrix: paths
   cannot change within a reaction, since Sim adopts new routing only on
   its next step. *)
let rec handle_router t sim ~demands ~time ~prefix ~visited ~depth v =
  let g = Igp.Network.graph t.net in
  if List.mem v visited || depth > escalation_depth then ()
  else begin
    match announcers_of t.net prefix with
    | [] -> ()
    | egresses when List.mem v egresses -> ()
    | egresses ->
      let other = Demand.foreign_loads demands ~prefix ~via:v in
      let own_demand = Demand.through demands ~prefix ~via:v in
      let cands = candidates t ~prefix ~v in
      let residual = residual_of sim ~other in
      let visit = lazy (visit_network t ~residual ~v ~egresses) in
      let avails =
        List.map (fun n -> (n, availability ~residual ~v ~egresses visit n)) cands
      in
      let total_avail = List.fold_left (fun acc (_, a) -> acc +. a) 0. avails in
      let kept =
        List.filter
          (fun (_, a) -> a > min_avail_fraction *. total_avail)
          avails
      in
      (* The FIB width bounds how many next hops a lie can install: keep
         the most capacious candidates. *)
      let kept =
        List.filteri
          (fun i _ -> i < t.config.max_entries)
          (List.stable_sort (fun (_, a) (_, b) -> compare b a) kept)
        |> List.sort compare
      in
      let kept_total = List.fold_left (fun acc (_, a) -> acc +. a) 0. kept in
      Obs.Metrics.add m_candidates_considered (List.length cands);
      Obs.Metrics.add m_candidates_dropped
        (List.length cands - List.length kept);
      (if List.length kept >= 1 && kept_total > 0.
          && not (cooldown_active t ~time prefix)
      then begin
        let splits =
          List.map
            (fun (n, a) ->
              { Requirements.next_hop = n; fraction = a /. kept_total })
            kept
        in
        ignore (install t ~time ~prefix ~router:v splits)
      end);
      (* Not enough capacity from here: walk towards the heaviest
         upstream neighbor feeding v. *)
      if kept_total < own_demand -. 1e-9 then begin
        match Demand.heaviest (Demand.inflow demands ~prefix ~via:v) with
        | Some (u, _) when u <> v ->
          if Obs.enabled () then
            Obs.Timeline.record ~time ~source:"controller" ~kind:"escalate"
              [
                ("prefix", String (Igp.Prefix.to_string prefix));
                ("from", String (Graph.name g v));
                ("to", String (Graph.name g u));
                ("depth", Int (depth + 1));
              ];
          handle_router t sim ~demands ~time ~prefix ~visited:(v :: visited)
            ~depth:(depth + 1) u
        | Some _ | None -> ()
      end
  end

(* Global strategy: recompute the optimal splits for the prefix's whole
   demand set and install them wholesale. *)
let handle_global t sim ~demands ~time ~prefix =
  if cooldown_active t ~time prefix then ()
  else begin
    match (announcer_of t.net prefix, t.reoptimize) with
    | None, _ -> ()
    | Some _, None ->
      record t ~time ~prefix "global strategy needs a reoptimizer; skipping"
    | Some egress, Some reoptimize ->
      let demands = Demand.by_src demands ~prefix ~except:egress in
      if demands <> [] then begin
        (* Compute the target routing against a lie-free clone. *)
        let scratch = Igp.Network.clone t.net in
        ignore (Igp.Network.retract_prefix_fakes scratch prefix);
        let capacities link = Netsim.Link.capacity (Sim.capacities sim) link in
        let routers = reoptimize scratch ~prefix ~capacities ~demands ~egress in
        if routers <> [] then
          ignore
            (install_requirements t ~time ~prefix
               ~description:
                 (Printf.sprintf "re-optimize %s: %d routers steered" (Igp.Prefix.to_string prefix)
                    (List.length routers))
               routers)
      end
  end

let handle_link t sim ~time ((x, _) as link) =
  let demands = Sim.demand_matrix sim in
  (* Dominant prefix on the congested link, by offered demand. *)
  match Demand.heaviest (Demand.on_link demands link) with
  | None -> ()
  | Some (prefix, _) when quarantine_active t ~time prefix -> ()
  | Some (prefix, _) ->
    (match t.config.strategy with
    | Local_deflection ->
      handle_router t sim ~demands ~time ~prefix ~visited:[] ~depth:0 x
    | Global_optimal -> handle_global t sim ~demands ~time ~prefix)

let react t sim _alarms =
  match Sim.monitor sim with
  | None -> ()
  | _ when not t.alive -> ()
  | Some monitor ->
    let time = Sim.time sim in
    (* Keep-alive: every owned lie's age is reset each control iteration.
       Stop calling react (crash the controller) and they expire. *)
    refresh_lies t ~time;
    (* Partition awareness: with a seat configured, only links with at
       least one endpoint reachable from the seat have telemetry the
       controller can actually see; growth of the reachable set means a
       partition healed, which triggers an adopt-or-withdraw resync. *)
    let reachable =
      match t.config.seat with
      | None -> None
      | Some seat -> Some (reachable_set t seat)
    in
    (match reachable with
    | Some set ->
      let n = Hashtbl.length set in
      if t.reachable_count >= 0 && n > t.reachable_count then
        resync t ~time ~reason:"reachability grew";
      t.reachable_count <- n
    | None -> ());
    let visible (u, v) =
      match reachable with
      | None -> true
      | Some set -> Hashtbl.mem set u || Hashtbl.mem set v
    in
    (* One fold over the smoothed utilizations: calm (every link below
       the clear threshold) and the worst visible link above the alarm
       threshold, ties to the smallest link. *)
    let clear = Monitor.clear_threshold monitor
    and threshold = Monitor.threshold monitor in
    let calm = ref true in
    let worst =
      Monitor.fold_utilizations monitor ~init:None (fun link u worst ->
          if not (u < clear) then calm := false;
          if u > threshold && visible link then
            match worst with
            | Some (l, bu) when bu > u || (bu = u && Link.compare l link < 0) -> worst
            | Some _ | None -> Some (link, u)
          else worst)
    in
    (* Withdrawal: sustained calm retracts all lies. *)
    (match (!calm, t.calm_since) with
    | false, _ -> t.calm_since <- None
    | true, None -> t.calm_since <- Some time
    | true, Some since ->
      if time -. since >= t.config.relax_after && fake_count t > 0 then begin
        withdraw_all t;
        log t ~time ~counter:m_reactions ~fakes_installed:0 ~kind:"withdraw"
          [ ("reason", String "calm period over") ]
          "calm period over: all lies withdrawn";
        t.calm_since <- None
      end);
    (* React to the currently hottest link above threshold (not only to
       edge-triggered alarms: a link stuck above threshold after an
       insufficient fix must be revisited). *)
    (match worst with
    | Some (link, _) when time >= t.backoff_until ->
      let lsdb = Igp.Network.lsdb t.net in
      let version_before = Igp.Lsdb.version lsdb in
      handle_link t sim ~time link;
      (* Backoff bookkeeping. A reaction that was merely suppressed by a
         per-prefix cooldown is neutral; a reaction that was free to act
         and still changed nothing (no candidates, compile failure,
         rejected steering) is a failure, and repeated failures double
         the pause up to [max_backoff] — a flapping input must not make
         the controller churn at poll rate forever. *)
      let in_cooldown =
        Hashtbl.fold (fun _ s acc -> acc || suppressing t ~time s) t.steering false
      in
      if Igp.Lsdb.version lsdb <> version_before then t.failures <- 0
      else if not in_cooldown then begin
        t.failures <- t.failures + 1;
        let delay =
          Float.min t.config.max_backoff
            (t.config.cooldown *. (2. ** float_of_int (t.failures - 1)))
        in
        t.backoff_until <- time +. delay;
        if Obs.enabled () then
          Obs.Timeline.record ~time ~source:"controller" ~kind:"backoff"
            [ ("failures", Int t.failures); ("delay", Float delay) ]
      end
    | Some _ -> () (* backing off *)
    | None -> t.failures <- 0)

let attach t sim =
  (* Revalidation must run before any guard-of-last-resort armed later
     (the watchdog): the owner gets first chance to withdraw its own
     invalidated lies cleanly. *)
  Sim.on_route_change sim (fun sim -> revalidate t sim);
  Sim.on_poll sim (fun sim alarms -> react t sim alarms)
