module Graph = Netgraph.Graph

let m_steps = Obs.Metrics.counter "watchdog.steps"
let m_safety_sweeps = Obs.Metrics.counter "watchdog.safety_sweeps"
let m_safety_skipped = Obs.Metrics.counter "watchdog.safety_skipped"
let m_violations = Obs.Metrics.counter "watchdog.violations"
let m_quarantines = Obs.Metrics.counter "watchdog.quarantines"

let h_prefixes_checked =
  Obs.Metrics.histogram "watchdog.prefixes_checked"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]

type kind =
  | Forwarding_loop
  | Blackhole
  | Lie_budget
  | Stale_lie
  | Dangling_lie
  | Link_overload
  | Malformed_fib

let kind_to_string = function
  | Forwarding_loop -> "forwarding_loop"
  | Blackhole -> "blackhole"
  | Lie_budget -> "lie_budget"
  | Stale_lie -> "stale_lie"
  | Dangling_lie -> "dangling_lie"
  | Link_overload -> "link_overload"
  | Malformed_fib -> "malformed_fib"

type violation = {
  time : float;
  kind : kind;
  prefix : Igp.Lsa.prefix option;
  subject : string;
  detail : string;
}

(* The lie budget, and the violations the ring keeps. *)
let max_fakes = 64
let history = 256

type stats = {
  steps_checked : int;
  safety_sweeps : int;
  safety_skipped : int;
  violations : int;
  quarantines : int;
}

type t = {
  (* Incremental gating: a safety sweep reruns only when the LSDB
     version moved AND the SPF dirty log says some router's answers
     actually changed — steady-state steps skip the O(prefixes * (V+E))
     walk entirely. The guard and the post-step check share this state:
     a clean guard pass means the post-step check of the same (still
     unchanged) version can skip. *)
  mutable lsdb_version : int;
  mutable spf_cursor : int;
  (* Set when the post-step check found a prefix unsafe. Its sweep
     consumed the gate, so without this the next step's guard would see
     nothing changed and leave the unsafe lies installed. *)
  mutable unsafe_seen : bool;
  (* A sweep checks every prefix only when it must: on router-wide or
     full dirt, when [unsafe_seen] is set, and on the first change after
     [arm] ([swept] still false: rows the engine had not computed yet
     left no trace in its log). Otherwise it checks the prefixes whose
     rows the log names, plus those in [failing]: the prefixes whose
     last check was unsafe or malformed. Any other prefix has the FIB
     table it had at its last check, which found it safe and well
     formed, so a full sweep would report nothing for it: the partial
     sweep reports the same violations and quarantines, in the same
     order. *)
  mutable swept : bool;
  mutable failing : Igp.Lsa.prefix list;
  ring : violation Kit.Ring.t;
  mutable n_steps : int;
  mutable n_sweeps : int;
  mutable n_skipped : int;
  mutable n_violations : int;
  mutable n_quarantines : int;
  quarantine_hooks : (prefix:Igp.Lsa.prefix -> reason:string -> unit) Queue.t;
}

let on_quarantine t hook = Queue.add hook t.quarantine_hooks

let violations t = Kit.Ring.to_list t.ring

let violation_count t = t.n_violations

let quarantine_count t = t.n_quarantines

let stats t =
  {
    steps_checked = t.n_steps;
    safety_sweeps = t.n_sweeps;
    safety_skipped = t.n_skipped;
    violations = t.n_violations;
    quarantines = t.n_quarantines;
  }

let report t ~time ~kind ?prefix ~subject detail =
  let v = { time; kind; prefix; subject; detail } in
  t.n_violations <- t.n_violations + 1;
  Kit.Ring.push t.ring v;
  Obs.Metrics.incr m_violations;
  if Obs.enabled () then
    Obs.Timeline.record ~time ~source:"watchdog" ~kind:"violation"
      ([
         ("invariant", Obs.Attr.String (kind_to_string kind));
         ("subject", Obs.Attr.String subject);
         ("detail", Obs.Attr.String detail);
       ]
      @
      match prefix with
      | Some p -> [ ("prefix", Obs.Attr.String (Igp.Prefix.to_string p)) ]
      | None -> [])

(* ---- invariants ---- *)

(* The lie ledger: budget respected, every fake mortal, refreshed within
   age, and anchored to a live adjacency. O(#fakes) per step. [now] is
   post-step time; the sim purges expiries <= step start, so a surviving
   fake may legally carry an expiry up to [dt] in the past. *)
let check_lies t sim ~time =
  let net = Sim.network sim in
  let g = Igp.Network.graph net in
  let lsdb = Igp.Network.lsdb net in
  let count = Igp.Lsdb.fake_count lsdb in
  if count > max_fakes then
    report t ~time ~kind:Lie_budget ~subject:"lsdb"
      (Printf.sprintf "%d fakes installed, budget %d" count max_fakes);
  let slack = Sim.dt sim +. 1e-9 in
  List.iter
    (fun (f : Igp.Lsa.fake) ->
      (match Igp.Lsdb.fake_expiry lsdb ~fake_id:f.fake_id with
      | None ->
        report t ~time ~kind:Stale_lie ~prefix:f.prefix ~subject:f.fake_id
          "installed without an expiry (immortal lie)"
      | Some expiry ->
        if expiry <= time -. slack then
          report t ~time ~kind:Stale_lie ~prefix:f.prefix ~subject:f.fake_id
            (Printf.sprintf "expiry %.2f passed at %.2f and was not purged"
               expiry time)
        else if expiry > time +. Igp.Lsa.max_age +. 1e-9 then
          report t ~time ~kind:Stale_lie ~prefix:f.prefix ~subject:f.fake_id
            (Printf.sprintf "expiry %.2f exceeds max lie age %.1f" expiry
               Igp.Lsa.max_age));
      if not (Graph.has_edge g f.attachment f.forwarding) then
        report t ~time ~kind:Dangling_lie ~prefix:f.prefix ~subject:f.fake_id
          (Printf.sprintf "forwarding adjacency %s -> %s is gone"
             (Graph.name g f.attachment)
             (Graph.name g f.forwarding)))
    (Igp.Lsdb.fakes lsdb)

(* Delivered per-link throughput must respect capacity. The allocator
   guarantees this by construction; the invariant catches a regression
   in it (or a caller bypassing it). *)
let check_utilization t sim ~time =
  let caps = Sim.capacities sim in
  let g = Igp.Network.graph (Sim.network sim) in
  List.iter
    (fun (link, rate) ->
      let cap = Link.capacity caps link in
      if rate > (cap *. (1. +. 1e-6)) +. 1e-6 then
        report t ~time ~kind:Link_overload ~subject:(Link.name g link)
          (Printf.sprintf "delivered %.0f B/s exceeds capacity %.0f B/s" rate
             cap))
    (Sim.current_link_rates sim)

(* An unsafe [Igp.Safety] verdict, worded as [Igp.Safety.state_safe]
   words it. *)
let report_unsafe t net ~time prefix verdict =
  let kind =
    match verdict with
    | Igp.Safety.Blackhole _ -> Blackhole
    | Igp.Safety.Loop _ | Igp.Safety.Safe -> Forwarding_loop
  in
  report t ~time ~kind ~prefix ~subject:(Igp.Prefix.to_string prefix)
    (Igp.Safety.describe (Igp.Network.graph net) ~prefix verdict)

(* Which prefixes a sweep must check. *)
type scope = Unchanged | Every_prefix | Prefixes of Igp.Lsa.prefix list

(* Has routing actually changed since the watchdog last looked? Version
   unchanged: certainly not. Version moved: ask the SPF dirty log; an
   empty log means every router still answers exactly as before (e.g. a
   pure metadata bump), and a log of lies alone names the prefixes
   whose rows they flagged. *)
let routing_change t net =
  let lsdb = Igp.Network.lsdb net in
  let version = Igp.Lsdb.version lsdb in
  if version = t.lsdb_version then Unchanged
  else begin
    t.lsdb_version <- version;
    let engine = Igp.Network.engine net in
    let scope =
      match Igp.Spf_engine.dirtied_since engine ~cursor:t.spf_cursor with
      | _ when not t.swept -> Every_prefix
      | Some [] -> Unchanged
      | None -> Every_prefix
      | Some dirt -> (
        try
          Prefixes
            (List.map
               (function
                 | Igp.Spf_engine.Rows_dirt (p, _) -> p
                 | Full_dirt | Routers_dirt _ -> raise Exit)
               dirt)
        with Exit -> Every_prefix)
    in
    t.spf_cursor <- Igp.Spf_engine.dirty_cursor engine;
    scope
  end

(* Check the prefixes in [scope], in [Lsdb.prefix_list] order; a partial
   sweep sorts only the prefixes it checks. [on_unsafe] handles an
   unsafe verdict and says whether the prefix is still unsafe
   afterwards. *)
let sweep_safety t sim ~time ~scope ~on_unsafe =
  let net = Sim.network sim in
  let lsdb = Igp.Network.lsdb net in
  let prefixes =
    match scope with
    | Prefixes rows -> Igp.Lsdb.announced_among lsdb (List.rev_append rows t.failing)
    | Every_prefix | Unchanged -> Igp.Lsdb.prefix_list lsdb
  in
  t.swept <- true;
  t.n_sweeps <- t.n_sweeps + 1;
  Obs.Metrics.incr m_safety_sweeps;
  Obs.Metrics.observe h_prefixes_checked (float_of_int (List.length prefixes));
  List.iter
    (fun prefix ->
      (* Structural invariant first: [Safety] and the allocator both
         assume canonical entries with positive multiplicities. *)
      let malformed = ref false in
      Array.iter
        (function
          | None -> ()
          | Some (fib : Igp.Fib.t) -> (
            match Igp.Fib.invariant fib with
            | Ok () -> ()
            | Error reason ->
              malformed := true;
              report t ~time ~kind:Malformed_fib ~prefix
                ~subject:(Graph.name (Igp.Network.graph net) fib.router)
                reason))
        (Igp.Network.fib_table net prefix);
      let unsafe =
        match Igp.Safety.verdict net ~prefix with
        | Igp.Safety.Safe -> false
        | unsafe -> on_unsafe ~time prefix unsafe
      in
      let others = List.filter (fun p -> not (Igp.Prefix.equal p prefix)) t.failing in
      t.failing <- (if !malformed || unsafe then prefix :: others else others))
    prefixes

(* ---- the two checkpoints ---- *)

(* Post-step check: every invariant, with the safety sweep gated on the
   dirty log. Any hit here is a real violation — this state allocated
   traffic. *)
let check t sim =
  let time = Sim.time sim in
  t.n_steps <- t.n_steps + 1;
  Obs.Metrics.incr m_steps;
  check_lies t sim ~time;
  check_utilization t sim ~time;
  match routing_change t (Sim.network sim) with
  | Unchanged ->
    t.n_skipped <- t.n_skipped + 1;
    Obs.Metrics.incr m_safety_skipped
  | scope ->
    sweep_safety t sim ~time ~scope ~on_unsafe:(fun ~time prefix unsafe ->
        t.unsafe_seen <- true;
        report_unsafe t (Sim.network sim) ~time prefix unsafe;
        true)

(* Pre-routing guard: when a topology change invalidates an installed
   lie set (a failure elsewhere can make a previously verified lie
   loop), purge the prefix's fakes before a single flow is routed
   against the unsafe state — MaxAge-flooding the poisoned lies, which
   any IGP speaker may do. This is the lie quarantine of last resort: a
   live controller's own revalidation (registered earlier on the same
   hook) normally withdraws first; the guard covers dead controllers
   and unowned garbage. A state still unsafe with no lies left to blame
   is a genuine IGP anomaly and is reported as a violation. A state the
   post-step check found unsafe is swept again here even when nothing
   changed since: it must not carry traffic for another step. *)
let guard t sim =
  let net = Sim.network sim in
  match routing_change t net with
  | Unchanged when not t.unsafe_seen -> ()
  | scope ->
    let scope = if t.unsafe_seen then Every_prefix else scope in
    t.unsafe_seen <- false;
    sweep_safety t sim ~time:(Sim.time sim) ~scope ~on_unsafe:(fun ~time prefix unsafe ->
        match Igp.Network.retract_prefix_fakes net prefix with
        | [] ->
          report_unsafe t net ~time prefix unsafe;
          true
        | blamed ->
          let problem =
            Igp.Safety.describe (Igp.Network.graph net) ~prefix unsafe
          in
          t.n_quarantines <- t.n_quarantines + 1;
          Obs.Metrics.incr m_quarantines;
          if Obs.enabled () then
            Obs.Timeline.record ~time ~source:"watchdog" ~kind:"quarantine"
              [
                ("prefix", Obs.Attr.String (Igp.Prefix.to_string prefix));
                ("fakes_purged", Obs.Attr.Int (List.length blamed));
                ("reason", Obs.Attr.String problem);
              ];
          Queue.iter
            (fun hook -> hook ~prefix ~reason:problem)
            t.quarantine_hooks;
          (* The purge must have restored safety; if not, report. *)
          match Igp.Safety.verdict net ~prefix with
          | Igp.Safety.Safe -> false
          | still ->
            report_unsafe t net ~time prefix still;
            true);
    (* The purges themselves bumped the version; absorb them so the
       post-step check does not re-sweep an already-vetted state. *)
    ignore (routing_change t net)

let arm sim =
  let net = Sim.network sim in
  let t =
    {
      lsdb_version = Igp.Lsdb.version (Igp.Network.lsdb net);
      spf_cursor = Igp.Spf_engine.dirty_cursor (Igp.Network.engine net);
      unsafe_seen = false;
      swept = false;
      failing = [];
      ring = Kit.Ring.create ~capacity:history;
      n_steps = 0;
      n_sweeps = 0;
      n_skipped = 0;
      n_violations = 0;
      n_quarantines = 0;
      quarantine_hooks = Queue.create ();
    }
  in
  Sim.on_route_change sim (fun sim -> guard t sim);
  Sim.on_step sim (fun sim -> check t sim);
  t
