module Graph = Netgraph.Graph
module Dijkstra = Netgraph.Dijkstra

(* Telemetry (no-ops while Obs is disabled; only touched from the
   coordinating domain — workers report through the [spf_runs] atomic). *)
let m_spf_runs = Obs.Metrics.counter "spf.runs"
let m_syncs = Obs.Metrics.counter "spf.syncs"
let m_full_invalidations = Obs.Metrics.counter "spf.full_invalidations"
let m_routers_dirtied = Obs.Metrics.counter "spf.routers_dirtied"
let m_routers_kept = Obs.Metrics.counter "spf.routers_kept"
let m_recompute_ms = Obs.Metrics.histogram "spf.recompute_ms"
let m_alloc_words = Obs.Metrics.counter "spf.alloc_words"
let g_dirty = Obs.Metrics.gauge "spf.dirty_routers"

type stats = {
  spf_runs : int;
  syncs : int;
  full_invalidations : int;
  routers_dirtied : int;
  routers_kept : int;
}

(* One dirty-log event: the set of routers whose cached tables a sync
   (or an explicit invalidation) dropped. [Full_dirt] means "assume
   everything" — the entries array was rebuilt, so even router identity
   is suspect. *)
type dirt = Full_dirt | Routers_dirt of Graph.node list

type t = {
  lsdb : Lsdb.t;
  pool : Kit.Pool.t;
  mutable entries : (Lsa.prefix, Fib.t) Hashtbl.t option array;
      (* Slot [r] holds router [r]'s full per-prefix FIB table, valid at
         version [synced]; [None] marks a dirty router. *)
  mutable synced : int;
  spf_runs : int Atomic.t; (* bumped from worker domains *)
  mutable syncs : int;
  mutable full_invalidations : int;
  mutable routers_dirtied : int;
  mutable routers_kept : int;
  (* Bounded log of invalidation events for [dirtied_since]: newest
     first, generations are consecutive. *)
  mutable dirty_gen : int;
  mutable dirty_log : (int * dirt) list;
}

let create ?pool lsdb =
  let pool = match pool with Some p -> p | None -> Kit.Pool.create () in
  let n = Graph.node_count (Lsdb.base_graph lsdb) in
  {
    lsdb;
    pool;
    entries = Array.make n None;
    synced = Lsdb.version lsdb;
    spf_runs = Atomic.make 0;
    syncs = 0;
    full_invalidations = 0;
    routers_dirtied = 0;
    routers_kept = 0;
    dirty_gen = 0;
    dirty_log = [];
  }

(* Enough depth that a simulation step's worth of churn never overflows;
   a cursor older than the tail reports [None] (full fallback). *)
let dirty_log_limit = 64

let record_dirt t dirt =
  t.dirty_gen <- t.dirty_gen + 1;
  let log = (t.dirty_gen, dirt) :: t.dirty_log in
  t.dirty_log <-
    (if List.length log > dirty_log_limit then
       List.filteri (fun i _ -> i < dirty_log_limit) log
     else log)

let pool t = t.pool

let stats t =
  {
    spf_runs = Atomic.get t.spf_runs;
    syncs = t.syncs;
    full_invalidations = t.full_invalidations;
    routers_dirtied = t.routers_dirtied;
    routers_kept = t.routers_kept;
  }

(* One Dijkstra for router [r], shared by every prefix. *)
let compute_router t view r =
  Atomic.incr t.spf_runs;
  let fib_list = Spf.compute view ~router:r in
  let tbl = Hashtbl.create (max 8 (2 * List.length fib_list)) in
  List.iter (fun (f : Fib.t) -> Hashtbl.replace tbl f.prefix f) fib_list;
  tbl

let drop_all t =
  Array.fill t.entries 0 (Array.length t.entries) None;
  t.full_invalidations <- t.full_invalidations + 1;
  Obs.Metrics.incr m_full_invalidations

let invalidate_all t =
  drop_all t;
  record_dirt t Full_dirt;
  t.synced <- Lsdb.version t.lsdb

(* Cached view distance from [r] to [prefix]'s sink: FIB distances have
   the announcer +1 offset removed, so add it back; no FIB entry means
   the prefix was unreachable (infinite distance). *)
let cached_view_distance tbl prefix =
  match Hashtbl.find_opt tbl prefix with
  | Some (fib : Fib.t) -> Some (fib.distance + 1)
  | None -> None

(* Fake install/retract at attachment [a] with sink cost [c]: router [r]'s
   routes for that prefix can change only if the candidate path through
   the fake competes with r's cached distance, i.e.
   d(r, a) + c <= cached_view_distance(r, prefix). Equality matters:
   retracting an equal-cost fake changes the ECMP set, and an install at
   equal cost widens it. [d(r, a)] comes from one reverse-graph Dijkstra
   rooted at the attachment — fake stubs are never transit nodes, so
   real-node distances in the view equal base-graph distances, and a
   fake-only batch leaves the base graph untouched.

   Deltas are applied in log order: a router whose true distance is
   changed by delta i is dirtied by delta i's own test (retraction
   affects r only when the candidate equals the distance — caught by
   [<=]), so every router still holding its table when delta j > i is
   examined has a cached distance that is still its true distance. That
   makes the sequential test sound for arbitrary install/retract
   interleavings, including supersessions (logged as retract + install). *)
let apply_fake_delta t rev_graph rev_results ~attachment ~view_cost ~prefix =
  let rev =
    match Hashtbl.find_opt rev_results attachment with
    | Some r -> r
    | None ->
      let r = Dijkstra.run rev_graph ~source:attachment in
      Hashtbl.add rev_results attachment r;
      r
  in
  Array.iteri
    (fun r entry ->
      match entry with
      | None -> ()
      | Some tbl -> (
        match Dijkstra.distance rev r with
        | None -> () (* attachment unreachable: the fake can't matter *)
        | Some d_ra ->
          let dirty =
            match cached_view_distance tbl prefix with
            | None -> true (* was unreachable; an install could route it *)
            | Some cached -> d_ra + view_cost <= cached
          in
          if dirty then t.entries.(r) <- None))
    t.entries

(* Weight change on directed edge (u, v), evaluated on the post-change
   graph: router [r] is affected iff the edge lies on one of its old or
   new shortest-path DAGs, which reduces to
   d_new(r, u) + min(w_old, w_new) <= d_new(r, v).
   Soundness: positive weights make shortest paths simple, so no
   shortest path to [u] traverses (u, v) and d(r, u) is the same before
   and after the change. Writing A for r's best u->v-avoiding distance
   to [v]: d_old(r, v) = min (A, d(r, u) + w_old) and
   d_new(r, v) = min (A, d(r, u) + w_new). If the edge was on an old DAG
   then d(r, u) + w_old <= A, hence d_new(r, v) >= min over both >=
   ... >= d(r, u) + min(w_old, w_new) is <= d_new(r, v) — the test
   fires; symmetrically if it is on a new DAG. Conversely if it was on
   neither, A < d(r, u) + min(w_old, w_new) and d_new(r, v) = A, so the
   test stays quiet — and then no shortest path of r (to any node: a
   shortest path through the edge would have a shortest prefix to [v]
   using it) changes, distances and DAGs included.

   Only single-delta batches use this rule: two weight changes evaluated
   against the final graph can mask each other, so mixed or multi-delta
   batches fall back to full invalidation. *)
let apply_weight_delta t ~u ~v ~old_weight ~new_weight =
  if old_weight <> new_weight then begin
    let rev = Graph.reverse (Lsdb.base_graph t.lsdb) in
    let from_u = Dijkstra.run rev ~source:u in
    let from_v = Dijkstra.run rev ~source:v in
    let bound = min old_weight new_weight in
    Array.iteri
      (fun r entry ->
        match entry with
        | None -> ()
        | Some _ -> (
          match Dijkstra.distance from_u r with
          | None -> () (* r can't reach u, so it can't use the edge *)
          | Some d_ru ->
            let dirty =
              match Dijkstra.distance from_v r with
              | None -> true
              | Some d_rv -> d_ru + bound <= d_rv
            in
            if dirty then t.entries.(r) <- None))
      t.entries
  end

let apply_deltas t deltas =
  let fake_only =
    List.for_all
      (function Lsdb.Fake_delta _ -> true | _ -> false)
      deltas
  in
  if fake_only then begin
    let rev_graph = Graph.reverse (Lsdb.base_graph t.lsdb) in
    let rev_results = Hashtbl.create 4 in
    List.iter
      (function
        | Lsdb.Fake_delta { attachment; view_cost; prefix } ->
          apply_fake_delta t rev_graph rev_results ~attachment ~view_cost
            ~prefix
        | Lsdb.Weight_delta _ | Lsdb.Generic_delta -> assert false)
      deltas
  end
  else
    match deltas with
    | [ Lsdb.Weight_delta { u; v; old_weight; new_weight } ] ->
      apply_weight_delta t ~u ~v ~old_weight ~new_weight
    | _ -> drop_all t

let sync t =
  let current = Lsdb.version t.lsdb in
  if current <> t.synced then begin
    t.syncs <- t.syncs + 1;
    Obs.Metrics.incr m_syncs;
    let n = Graph.node_count (Lsdb.base_graph t.lsdb) in
    if Array.length t.entries <> n then begin
      t.entries <- Array.make n None;
      t.full_invalidations <- t.full_invalidations + 1;
      record_dirt t Full_dirt;
      Obs.Metrics.incr m_full_invalidations
    end
    else begin
      let valid a =
        Array.fold_left (fun k e -> if Option.is_some e then k + 1 else k) 0 a
      in
      let before = valid t.entries in
      if before > 0 then begin
        let was_valid = Array.map Option.is_some t.entries in
        (match Lsdb.deltas_since t.lsdb ~since:t.synced with
        | None -> drop_all t
        | Some deltas -> apply_deltas t deltas);
        let dirtied = ref [] in
        Array.iteri
          (fun r was ->
            if was && t.entries.(r) = None then dirtied := r :: !dirtied)
          was_valid;
        if !dirtied <> [] then record_dirt t (Routers_dirt !dirtied);
        let after = valid t.entries in
        t.routers_kept <- t.routers_kept + after;
        t.routers_dirtied <- t.routers_dirtied + (before - after);
        Obs.Metrics.add m_routers_kept after;
        Obs.Metrics.add m_routers_dirtied (before - after);
        if Obs.enabled () then begin
          Obs.Metrics.set g_dirty (float_of_int (n - after));
          Obs.Timeline.record ~source:"spf" ~kind:"sync"
            [ ("kept", Int after); ("dirtied", Int (before - after)) ]
        end
      end
    end;
    t.synced <- current
  end

let dirty_cursor t =
  sync t;
  t.dirty_gen

let dirtied_since t ~cursor =
  sync t;
  if cursor >= t.dirty_gen then Some []
  else begin
    let events = List.filter (fun (g, _) -> g > cursor) t.dirty_log in
    (* Generations are consecutive and the log is truncated from the
       tail, so a shortfall means the log no longer reaches the cursor. *)
    if List.length events <> t.dirty_gen - cursor then None
    else
      try
        Some
          (List.concat_map
             (function
               | _, Full_dirt -> raise Exit
               | _, Routers_dirt rs -> rs)
             events
          |> List.sort_uniq compare)
      with Exit -> None
  end

let check_router t router =
  if router < 0 || router >= Array.length t.entries then
    invalid_arg "Spf_engine: not a real router"

let table_for t router =
  match t.entries.(router) with
  | Some tbl -> tbl
  | None ->
    let fill () = compute_router t (Lsdb.view t.lsdb) router in
    let tbl =
      if Obs.enabled () then begin
        let t0 = Obs.Clock.now () in
        let tbl =
          Obs.Prof.with_span "spf.recompute" ~alloc_counter:m_alloc_words
            ~attrs:[ ("router", Int router); ("dirty", Int 1) ]
            fill
        in
        Obs.Metrics.observe m_recompute_ms ((Obs.Clock.now () -. t0) *. 1000.);
        tbl
      end
      else fill ()
    in
    Obs.Metrics.incr m_spf_runs;
    t.entries.(router) <- Some tbl;
    tbl

let fib t ~router prefix =
  sync t;
  check_router t router;
  Hashtbl.find_opt (table_for t router) prefix

let distance t ~router prefix =
  Option.map (fun (f : Fib.t) -> f.distance) (fib t ~router prefix)

let compute_all t =
  sync t;
  let n = Array.length t.entries in
  let missing = ref [] in
  for r = n - 1 downto 0 do
    if t.entries.(r) = None then missing := r :: !missing
  done;
  match !missing with
  | [] -> ()
  | [ r ] -> ignore (table_for t r)
  | rs ->
    (* Materialize the view before fanning out: [Lsdb.view] mutates its
       cache and must not race. Workers then only read the view and
       write disjoint slots of [entries]. *)
    let view = Lsdb.view t.lsdb in
    let missing = Array.of_list rs in
    let work () =
      Kit.Pool.iter t.pool ~n:(Array.length missing) (fun i ->
          let r = missing.(i) in
          t.entries.(r) <- Some (compute_router t view r))
    in
    Obs.Metrics.add m_spf_runs (Array.length missing);
    if Obs.enabled () then begin
      let t0 = Obs.Clock.now () in
      (* No pool-width attribute here: the timeline must be a pure
         function of the logical run, byte-identical at any width.
         (Prof attrs only appear under the separate prof switch, which
         the determinism-gated paths never enable.) *)
      Obs.Prof.with_span "spf.recompute" ~alloc_counter:m_alloc_words
        ~attrs:[ ("dirty", Int (Array.length missing)) ]
        work;
      Obs.Metrics.observe m_recompute_ms ((Obs.Clock.now () -. t0) *. 1000.)
    end
    else work ()

let prefix_table t prefix =
  compute_all t;
  Array.map
    (function
      | Some tbl -> Hashtbl.find_opt tbl prefix
      | None -> assert false (* compute_all filled every slot *))
    t.entries
