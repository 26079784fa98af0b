module Graph = Netgraph.Graph
module Dijkstra = Netgraph.Dijkstra

(* Telemetry (no-ops while Obs is disabled). *)
let m_spf_runs = Obs.Metrics.counter "spf.runs"
let m_syncs = Obs.Metrics.counter "spf.syncs"
let m_full_invalidations = Obs.Metrics.counter "spf.full_invalidations"
let m_routers_dirtied = Obs.Metrics.counter "spf.routers_dirtied"
let m_routers_kept = Obs.Metrics.counter "spf.routers_kept"
let m_rows_written = Obs.Metrics.counter "spf.rows_written"
let m_recompute_ms = Obs.Metrics.histogram "spf.recompute_ms"
let m_alloc_words = Obs.Metrics.counter "spf.alloc_words"
let g_dirty = Obs.Metrics.gauge "spf.dirty_routers"

type stats = {
  spf_runs : int;
  syncs : int;
  full_invalidations : int;
  routers_dirtied : int;
  routers_kept : int;
  rows_written : int;
}

(* What one sync (or an explicit invalidation) changed. [Full_dirt]
   means "assume everything": the slots array was rebuilt, so even
   router identity is suspect. *)
type dirt =
  | Full_dirt
  | Routers_dirt of Graph.node list (* stage 1 reruns: every row *)
  | Rows_dirt of Lsa.prefix * Graph.node list (* this prefix's row only *)

type table = (Lsa.prefix, Fib.t) Hashtbl.t

(* A router's cached state. Only [Current] counts as a kept table; the
   next two are what the dirty accounting calls dropped, and the next
   lookup refills them. A clone's slots are [On_demand] or [Dirty]. *)
type slot =
  | Current of Spf.tree * table
  | Stale_rows of Spf.tree * table * Lsa.prefix list
      (* Stage 1 still holds; the listed prefixes' rows must be
         rewritten (fake deltas), every other row is current. *)
  | Dirty (* Stage 1 must rerun (one Dijkstra), then every row. *)
  | On_demand of Spf.tree * (Lsa.prefix, Fib.t option) Hashtbl.t
      (* Stage 1 (the tree may be shared with the engine this one was
         cloned from: trees are immutable) and the rows asked for so
         far; a prefix absent from the table has not been asked for. *)

(* Stage 2's inputs per prefix, valid at LSDB version [at]. Only a
   generic delta can change announcements, and it builds a fresh
   [announced] table; nothing writes to one afterwards, so a clone reads
   its parent's by reference. [faked] holds the fakes of every prefix
   that has some (a fake's prefix is always announced); fake deltas
   patch it in place, so each engine owns its own. *)
type index = {
  mutable at : int;
  announced : (Lsa.prefix, (Graph.node * int) list) Hashtbl.t;
  faked : (Lsa.prefix, Lsa.fake list) Hashtbl.t;
}

type t = {
  lsdb : Lsdb.t;
  on_demand : bool;
      (* A clone: a refill runs stage 1 only, and each row is computed
         when a lookup first asks for it. *)
  mutable slots : slot array; (* indexed by router, valid at [synced] *)
  mutable index : index option;
  mutable synced : int;
  mutable spf_runs : int;
  mutable syncs : int;
  mutable full_invalidations : int;
  mutable routers_dirtied : int;
  mutable routers_kept : int;
  mutable rows_written : int;
  (* Bounded log for [dirtied_since], newest first: each entry carries
     the generation of the sync that logged it (one generation per sync
     that changed something, possibly several entries). Only the last
     [dirty_log_limit] generations are kept. *)
  mutable dirty_gen : int;
  mutable dirty_log : (int * dirt) list;
}

let make lsdb ~on_demand slots =
  {
    lsdb;
    on_demand;
    slots;
    index = None;
    synced = Lsdb.version lsdb;
    spf_runs = 0;
    syncs = 0;
    full_invalidations = 0;
    routers_dirtied = 0;
    routers_kept = 0;
    rows_written = 0;
    dirty_gen = 0;
    dirty_log = [];
  }

let create lsdb =
  make lsdb ~on_demand:false (Array.make (Graph.node_count (Lsdb.base_graph lsdb)) Dirty)

(* Enough depth that a simulation step's worth of churn never overflows;
   a cursor older than the tail reports [None] (full fallback). *)
let dirty_log_limit = 64

let record_dirt t dirt =
  t.dirty_gen <- t.dirty_gen + 1;
  let oldest = t.dirty_gen - dirty_log_limit in
  let kept =
    if List.exists (fun (g, _) -> g <= oldest) t.dirty_log then
      List.filter (fun (g, _) -> g > oldest) t.dirty_log
    else t.dirty_log
  in
  t.dirty_log <- List.fold_left (fun log d -> (t.dirty_gen, d) :: log) kept dirt

let stats t =
  {
    spf_runs = t.spf_runs;
    syncs = t.syncs;
    full_invalidations = t.full_invalidations;
    routers_dirtied = t.routers_dirtied;
    routers_kept = t.routers_kept;
    rows_written = t.rows_written;
  }

let build_index lsdb =
  let announced = Hashtbl.create 64 and faked = Hashtbl.create 8 in
  let push tbl p x =
    Hashtbl.replace tbl p (x :: Option.value ~default:[] (Hashtbl.find_opt tbl p))
  in
  List.iter (fun (p, o, cost) -> push announced p (o, cost)) (Lsdb.prefixes lsdb);
  List.iter (fun (f : Lsa.fake) -> push faked f.prefix f) (Lsdb.fakes lsdb);
  { at = Lsdb.version lsdb; announced; faked }

(* The index at the current version. Across fake and weight deltas it is
   patched: each fake delta re-reads its prefix's fakes. *)
let index t =
  let version = Lsdb.version t.lsdb in
  let idx =
    match t.index with
    | Some idx when idx.at = version -> idx
    | Some idx -> (
      match Lsdb.deltas_since t.lsdb ~since:idx.at with
      | Some deltas when not (List.mem Lsdb.Generic_delta deltas) ->
        List.iter
          (function
            | Lsdb.Fake_delta { prefix; _ } -> (
              match
                List.filter
                  (fun (f : Lsa.fake) -> Prefix.equal f.prefix prefix)
                  (Lsdb.fakes t.lsdb)
              with
              | [] -> Hashtbl.remove idx.faked prefix
              | fakes -> Hashtbl.replace idx.faked prefix fakes)
            | Lsdb.Weight_delta _ | Lsdb.Generic_delta -> ())
          deltas;
        idx.at <- version;
        idx
      | Some _ | None -> build_index t.lsdb)
    | None -> build_index t.lsdb
  in
  t.index <- Some idx;
  idx

(* The row of an announced prefix, from its [announcers]. A lie-free
   index skips hashing the prefix. *)
let prefix_row t idx tree prefix announcers =
  t.rows_written <- t.rows_written + 1;
  Obs.Metrics.incr m_rows_written;
  let fakes =
    if Hashtbl.length idx.faked = 0 then []
    else Option.value ~default:[] (Hashtbl.find_opt idx.faked prefix)
  in
  Spf.prefix_fib tree prefix ~announcers ~fakes

let write_row t idx tree tbl prefix announcers =
  match prefix_row t idx tree prefix announcers with
  | Some fib -> Hashtbl.replace tbl prefix fib
  | None -> Hashtbl.remove tbl prefix

(* Bring router [r]'s slot to [Current] (or, in a clone, [On_demand]):
   a stale-rows slot rewrites only its listed rows from the cached stage
   1; a dirty one runs stage 1 (the only Dijkstra), then every row, or
   none in a clone. *)
let refill t idx r =
  match t.slots.(r) with
  | Current _ | On_demand _ -> ()
  | Stale_rows (tree, tbl, prefixes) ->
    List.iter (fun p -> write_row t idx tree tbl p (Hashtbl.find idx.announced p)) prefixes;
    t.slots.(r) <- Current (tree, tbl)
  | Dirty ->
    t.spf_runs <- t.spf_runs + 1;
    Obs.Metrics.incr m_spf_runs;
    let tree = Spf.shortest_paths (Lsdb.base_graph t.lsdb) ~router:r in
    if t.on_demand then t.slots.(r) <- On_demand (tree, Hashtbl.create 8)
    else begin
      let tbl = Hashtbl.create (max 8 (2 * Hashtbl.length idx.announced)) in
      Hashtbl.iter (write_row t idx tree tbl) idx.announced;
      t.slots.(r) <- Current (tree, tbl)
    end

let drop_all t = Array.fill t.slots 0 (Array.length t.slots) Dirty

let count_full_invalidation t =
  t.full_invalidations <- t.full_invalidations + 1;
  Obs.Metrics.incr m_full_invalidations

let invalidate_all t =
  drop_all t;
  count_full_invalidation t;
  record_dirt t [ Full_dirt ];
  t.synced <- Lsdb.version t.lsdb

(* Fake install/retract at attachment [a] for [prefix], reaching it at
   [cost] from [a]: router [r]'s row for that prefix can change only if
   the candidate competes with r's cached distance, i.e.
   d(r, a) + cost <= cached distance(r, prefix). Equality matters:
   retracting an equal-cost fake changes the ECMP set, and an install at
   equal cost widens it. [d(r, a)] is read from r's cached stage 1: a
   fake-only batch leaves the physical graph untouched.

   Deltas are applied in log order: a row whose true distance is changed
   by delta i is flagged by delta i's own test (retraction affects r
   only when the candidate equals the distance — caught by [<=]), and a
   flagged row is never tested again, so every row still unflagged when
   delta j > i is examined has a cached distance that is still its true
   distance. That makes the sequential test sound for arbitrary
   install/retract interleavings, including supersessions (logged as
   retract + install). A flagged router keeps its stage 1 and all other
   rows; only the flagged rows are rewritten on refill. A clone drops
   the prefix's rows at every router: recomputing one row costs less
   than the test.

   Every newly flagged row is added to [log], also on a router that is
   already [Stale_rows] for other prefixes: a reader that looked the
   router up earlier holds its old answer for this prefix too. *)
let apply_fake_delta t log ~attachment ~cost ~prefix =
  let flags tree tbl =
    match Spf.distance tree attachment with
    | None -> false (* attachment unreachable: the fake can't matter *)
    | Some d_ra -> (
      match Hashtbl.find_opt tbl prefix with
      | None -> true (* was unreachable; an install could route it *)
      | Some (fib : Fib.t) -> d_ra + cost <= fib.distance)
  in
  let flagged = ref [] in
  Array.iteri
    (fun r slot ->
      match slot with
      | Dirty -> ()
      | Current (tree, tbl) ->
        if flags tree tbl then begin
          t.slots.(r) <- Stale_rows (tree, tbl, [ prefix ]);
          flagged := r :: !flagged
        end
      | Stale_rows (tree, tbl, prefixes) ->
        if (not (List.mem prefix prefixes)) && flags tree tbl then begin
          t.slots.(r) <- Stale_rows (tree, tbl, prefix :: prefixes);
          flagged := r :: !flagged
        end
      | On_demand (_, rows) -> Hashtbl.remove rows prefix)
    t.slots;
  if !flagged <> [] then log := Rows_dirt (prefix, !flagged) :: !log

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
   using it) changes, distances and DAGs included: stage 1 and every
   row stand.

   Only single-delta batches use this rule: two weight changes evaluated
   against the final graph can mask each other, so mixed or multi-delta
   batches fall back to full invalidation. *)
let apply_weight_delta t log ~u ~v ~old_weight ~new_weight =
  if old_weight <> new_weight then begin
    let rev = Graph.reverse (Lsdb.base_graph t.lsdb) in
    let from_u = Dijkstra.run rev ~source:u in
    let from_v = Dijkstra.run rev ~source:v in
    let bound = min old_weight new_weight in
    let dropped = ref [] in
    Array.iteri
      (fun r slot ->
        match slot with
        | Dirty -> ()
        | Current _ | Stale_rows _ | On_demand _ -> (
          match Dijkstra.distance from_u r with
          | None -> () (* r can't reach u, so it can't use the edge *)
          | Some d_ru ->
            let dirty =
              match Dijkstra.distance from_v r with
              | None -> true
              | Some d_rv -> d_ru + bound <= d_rv
            in
            if dirty then begin
              (match slot with
              | Current _ | Stale_rows _ -> dropped := r :: !dropped
              | Dirty | On_demand _ -> ());
              t.slots.(r) <- Dirty
            end))
      t.slots;
    if !dropped <> [] then log := Routers_dirt !dropped :: !log
  end

(* [false] when the batch has no precise rule and every slot must go;
   such a batch changes no slot. *)
let apply_deltas t log deltas =
  if List.for_all (function Lsdb.Fake_delta _ -> true | _ -> false) deltas then begin
    List.iter
      (function
        | Lsdb.Fake_delta { attachment; cost; prefix } ->
          apply_fake_delta t log ~attachment ~cost ~prefix
        | Lsdb.Weight_delta _ | Lsdb.Generic_delta -> assert false)
      deltas;
    true
  end
  else
    match deltas with
    | [ Lsdb.Weight_delta { u; v; old_weight; new_weight } ] ->
      apply_weight_delta t log ~u ~v ~old_weight ~new_weight;
      true
    | _ -> false

let is_dirty = function Dirty -> true | Current _ | Stale_rows _ | On_demand _ -> false
let needs_refill = function Stale_rows _ | Dirty -> true | Current _ | On_demand _ -> false

let precise t log =
  match Lsdb.deltas_since t.lsdb ~since:t.synced with
  | None -> false
  | Some deltas -> apply_deltas t log deltas

(* The fallback of a batch with no precise rule: every router that held
   a tree loses it. *)
let drop_all_logged t log =
  let dropped = ref [] in
  Array.iteri
    (fun r -> function
      | Current _ | Stale_rows _ -> dropped := r :: !dropped
      | Dirty | On_demand _ -> ())
    t.slots;
  drop_all t;
  if !dropped <> [] then log := Routers_dirt !dropped :: !log

let count_current slots =
  let k = ref 0 in
  Array.iter (function Current _ -> incr k | Stale_rows _ | Dirty | On_demand _ -> ()) slots;
  !k

let sync t =
  let current = Lsdb.version t.lsdb in
  if current <> t.synced then begin
    t.syncs <- t.syncs + 1;
    Obs.Metrics.incr m_syncs;
    let n = Graph.node_count (Lsdb.base_graph t.lsdb) in
    if Array.length t.slots <> n then begin
      t.slots <- Array.make n Dirty;
      count_full_invalidation t;
      record_dirt t [ Full_dirt ]
    end
    else if Array.for_all is_dirty t.slots then ()
    else if t.on_demand then begin
      (* A clone counts no kept, dirtied or dropped tables and emits no
         timeline event; its dirt log reports every sync as a full
         change. *)
      if not (precise t (ref [])) then drop_all t;
      record_dirt t [ Full_dirt ]
    end
    else begin
      (* The counters and the timeline see [Current] slots only: a slot
         already waiting for a refill is neither kept nor dirtied again.
         The dirt log also sees rows and trees such a slot loses. *)
      let before = count_current t.slots in
      let log = ref [] in
      if not (precise t log) then begin
        drop_all_logged t log;
        if before > 0 then count_full_invalidation t
      end;
      if !log <> [] then record_dirt t !log;
      if before > 0 then begin
        let after = count_current t.slots in
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
  else if cursor < t.dirty_gen - dirty_log_limit then None
  else
    let dirt = List.filter_map (fun (g, d) -> if g > cursor then Some d else None) t.dirty_log in
    if List.mem Full_dirt dirt then None else Some dirt

let check_router t router =
  if router < 0 || router >= Array.length t.slots then
    invalid_arg "Spf_engine: not a real router"

(* One [spf.recompute] span and [recompute_ms] sample around a refill. *)
let recompute attrs fill =
  if Obs.enabled () then begin
    let t0 = Obs.Clock.now () in
    Obs.Prof.with_span "spf.recompute" ~alloc_counter:m_alloc_words ~attrs fill;
    Obs.Metrics.observe m_recompute_ms ((Obs.Clock.now () -. t0) *. 1000.)
  end
  else fill ()

let ensure t router =
  if needs_refill t.slots.(router) then begin
    let idx = index t in
    recompute [ ("router", Int router); ("dirty", Int 1) ] (fun () -> refill t idx router)
  end

(* The router's row for [prefix]; its slot must be refilled. *)
let row t router prefix =
  match t.slots.(router) with
  | Current (_, tbl) -> Hashtbl.find_opt tbl prefix
  | On_demand (tree, rows) -> (
    match Hashtbl.find_opt rows prefix with
    | Some row -> row
    | None ->
      let idx = index t in
      let row =
        Option.bind (Hashtbl.find_opt idx.announced prefix) (prefix_row t idx tree prefix)
      in
      Hashtbl.replace rows prefix row;
      row)
  | Stale_rows _ | Dirty -> assert false

let fib t ~router prefix =
  sync t;
  check_router t router;
  ensure t router;
  row t router prefix

let distance t ~router prefix =
  Option.map (fun (f : Fib.t) -> f.distance) (fib t ~router prefix)

let compute_all t =
  sync t;
  let n = Array.length t.slots in
  let missing = ref [] in
  for r = n - 1 downto 0 do
    if needs_refill t.slots.(r) then missing := r :: !missing
  done;
  match !missing with
  | [] -> ()
  | [ r ] -> ensure t r
  | rs ->
    let idx = index t in
    recompute [ ("dirty", Int (List.length rs)) ] (fun () -> List.iter (refill t idx) rs)

let prefix_table t prefix =
  compute_all t;
  Array.init (Array.length t.slots) (fun r -> row t r prefix)

let clone parent lsdb =
  sync parent;
  let idx = index parent in
  let t =
    make lsdb ~on_demand:true
      (Array.map
         (function
           | Current (tree, _) | Stale_rows (tree, _, _) | On_demand (tree, _) ->
             On_demand (tree, Hashtbl.create 8)
           | Dirty -> Dirty)
         parent.slots)
  in
  t.index <-
    Some { at = Lsdb.version lsdb; announced = idx.announced; faked = Hashtbl.copy idx.faked };
  t
