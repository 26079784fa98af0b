module G = Netgraph.Graph

let m_rehashed = Obs.Metrics.counter "sim.rehashed_flows"

(* Scheduled twice, for a flow's start and its stop. [slot] is -1
   before the start, the flow's slot while it is active, and -2 after
   the stop. *)
type life = { flow : Flow.t; mutable slot : int }

let life flow = { flow; slot = -1 }

let started l = l.slot >= 0

(* Flows sharing (src, prefix, demand, hashed path) are fluid-identical:
   max-min fairness gives them the same rate, so they collapse into one
   weighted [Fairshare] group and each member's rate is the group's
   per-member level. [solo] pins a class to a single flow (AIMD keeps
   per-flow state; [~aggregation:false] forces it for A/B tests). *)
type class_key = {
  ck_src : G.node;
  ck_prefix : Igp.Lsa.prefix;
  ck_demand : float;
  ck_path : G.node list;
  ck_solo : int; (* -1 when aggregating, else the member's flow id *)
}

type flow_class = {
  key : class_key;
  c_links : Link.t list; (* distinct directed links of the path *)
  mutable weight : int; (* members; 0 only for the sentinels below *)
  (* Smallest member id, the class's place in [demand_matrix]; stale
     after that member leaves, until the next [demand_matrix] rescans
     the slots. *)
  mutable first : int;
  mutable first_stale : bool;
  mutable rate : float; (* per-member rate of the last completed step *)
  (* Set while [rewalk_dirty] picks the flows to re-place: the class's
     path crosses a row the pass found dirty for its prefix. *)
  mutable rehash : bool;
}

(* Every prefix is a valid key; this one only fills the sentinels. *)
let any = Igp.Prefix.make ~addr:0 ~len:0

let sentinel () =
  {
    key = { ck_src = -1; ck_prefix = any; ck_demand = 0.; ck_path = []; ck_solo = -1 };
    c_links = [];
    weight = 0;
    first = max_int;
    first_stale = false;
    rate = 0.;
    rehash = false;
  }

(* What a slot holds instead of a class: nothing (free, or a flow that
   stopped before its first placement), a flow that started this step,
   or a flow with no path. *)
let vacant = sentinel ()
let unplaced = sentinel ()
let unroutable = sentinel ()

let no_flow =
  { Flow.id = min_int; src = -1; prefix = any; demand = 0.; start_time = 0.; duration = 0. }

(* A governing prefix. A flow keeps the one it resolved to at its
   start, so its slot points here and a placement looks nothing up.
   [row.(r)] is router [r]'s answer in the pass [read_in.(r)]: a row is
   read through the pass's [read] ([Sim]'s [effective_fib]) the first
   time the pass asks for it, so a router the SPF engine must refill is
   refilled — with its [spf.recompute] span — on the same read as it
   would be uncached. The answer holds only within its pass: the next
   may follow an LSDB change, a transition's switch or a later
   instant. *)
type route = {
  prefix : Igp.Lsa.prefix;
  mutable row : Igp.Fib.t option array;
  mutable read_in : int array;
  mutable by_src : flow_class list array; (* aggregated classes, by source *)
  fib : G.node -> Igp.Fib.t option; (* [row] through the pass *)
}

let no_route = { prefix = any; row = [||]; read_in = [||]; by_src = [||]; fib = (fun _ -> None) }

type t = {
  net : Igp.Network.t;
  aggregate : bool;
  (* Its fold order is the order every per-link float sum meets the
     classes in; it follows from the keys' hashes and the order classes
     enter the table. *)
  classes : (class_key, flow_class) Hashtbl.t;
  (* The slots, indexed together; slots [0, used) have been handed out,
     the free ones are stacked in [free]. *)
  mutable flows : Flow.t array;
  mutable placed : flow_class array;
  mutable routes_of : route array;
  mutable free : int array;
  mutable n_free : int;
  mutable used : int;
  mutable live : int;
  mutable n_unroutable : int;
  (* Slots started since the last pass, in arrival order. *)
  mutable starts : int array;
  mutable n_starts : int;
  routes : (Igp.Lsa.prefix, route) Hashtbl.t; (* by governing prefix *)
  (* By destination prefix, what [Network.resolve] gave at LSDB version
     [resolved_at]. *)
  resolved : (Igp.Lsa.prefix, route) Hashtbl.t;
  mutable resolved_at : int;
  mutable pass : int;
  mutable read : G.node -> Igp.Lsa.prefix -> Igp.Fib.t option;
  mutable nodes : int;
  mutable path : int array; (* the walk's scratch *)
  (* Id -> slot, rebuilt by the first by-id query after a start or stop. *)
  by_id : (int, int) Hashtbl.t;
  mutable by_id_ok : bool;
}

let create ~aggregate net =
  {
    net;
    aggregate;
    classes = Hashtbl.create 64;
    flows = [||];
    placed = [||];
    routes_of = [||];
    free = [||];
    n_free = 0;
    used = 0;
    live = 0;
    n_unroutable = 0;
    starts = [||];
    n_starts = 0;
    routes = Hashtbl.create 16;
    resolved = Hashtbl.create 16;
    resolved_at = -1;
    pass = 0;
    read = (fun _ _ -> None);
    nodes = 0;
    path = [||];
    by_id = Hashtbl.create 16;
    by_id_ok = true;
  }

let live t = t.live

(* ---- routes ---- *)

let read t r router =
  if r.read_in.(router) = t.pass then r.row.(router)
  else begin
    let fib = t.read router r.prefix in
    r.row.(router) <- fib;
    r.read_in.(router) <- t.pass;
    fib
  end

let size_route t r =
  let grow a fill =
    Array.init t.nodes (fun i -> if i < Array.length a then a.(i) else fill)
  in
  r.row <- grow r.row None;
  r.read_in <- grow r.read_in (-1);
  r.by_src <- grow r.by_src []

let route_of t dest =
  let version = Igp.Lsdb.version (Igp.Network.lsdb t.net) in
  if version <> t.resolved_at then begin
    Hashtbl.reset t.resolved;
    t.resolved_at <- version
  end;
  match Hashtbl.find t.resolved dest with
  | r -> r
  | exception Not_found ->
    (* By longest-prefix match: a flow aimed inside an announced block
       is governed by that block's announcement (exact matches — every
       named prefix — resolve to themselves). *)
    let prefix = Option.value ~default:dest (Igp.Network.resolve t.net dest) in
    let r =
      match Hashtbl.find t.routes prefix with
      | r -> r
      | exception Not_found ->
        let rec r =
          { prefix; row = [||]; read_in = [||]; by_src = [||]; fib = (fun router -> read t r router) }
        in
        size_route t r;
        Hashtbl.replace t.routes prefix r;
        r
    in
    Hashtbl.replace t.resolved dest r;
    r

let new_pass t ~read =
  t.pass <- t.pass + 1;
  t.read <- read;
  let nodes = G.node_count (Igp.Network.graph t.net) in
  if nodes <> t.nodes then begin
    t.nodes <- nodes;
    t.path <- Array.make (nodes + 1) 0;
    Hashtbl.iter (fun _ r -> size_route t r) t.routes
  end

(* ---- slots ---- *)

let grow t =
  let n = max 64 (2 * Array.length t.flows) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.flows <- extend t.flows no_flow;
  t.placed <- extend t.placed vacant;
  t.routes_of <- extend t.routes_of no_route;
  t.free <- extend t.free 0;
  t.starts <- extend t.starts 0

let start t life =
  let r = route_of t life.flow.prefix in
  (* The flow carries its governing prefix, so classes, FIB snapshots
     and the controller all key on what the routers actually route. *)
  let flow =
    if Igp.Prefix.equal r.prefix life.flow.prefix then life.flow
    else { life.flow with prefix = r.prefix }
  in
  let s =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      if t.used = Array.length t.flows then grow t;
      t.used <- t.used + 1;
      t.used - 1
    end
  in
  t.flows.(s) <- flow;
  t.placed.(s) <- unplaced;
  t.routes_of.(s) <- r;
  t.starts.(t.n_starts) <- s;
  t.n_starts <- t.n_starts + 1;
  t.live <- t.live + 1;
  t.by_id_ok <- false;
  life.slot <- s;
  flow

(* Take the flow in slot [s] out of its class, or out of the unroutable
   count. *)
let unplace t s =
  let c = t.placed.(s) in
  if c == unroutable then t.n_unroutable <- t.n_unroutable - 1
  else if c.weight > 0 then begin
    c.weight <- c.weight - 1;
    if t.flows.(s).id = c.first then c.first_stale <- true;
    if c.weight = 0 then begin
      Hashtbl.remove t.classes c.key;
      if t.aggregate then begin
        let r = t.routes_of.(s) in
        r.by_src.(c.key.ck_src) <- List.filter (fun c' -> c' != c) r.by_src.(c.key.ck_src)
      end
    end
  end

let release t s =
  t.flows.(s) <- no_flow;
  t.placed.(s) <- vacant;
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let release_slots t =
  if t.live = 0 && t.n_starts = 0 then begin
    t.flows <- [||];
    t.placed <- [||];
    t.routes_of <- [||];
    t.free <- [||];
    t.starts <- [||];
    t.used <- 0;
    t.n_free <- 0;
    Hashtbl.reset t.by_id
  end

let stop t life =
  let s = life.slot in
  life.slot <- -2;
  let id = life.flow.id in
  t.live <- t.live - 1;
  t.by_id_ok <- false;
  if t.placed.(s) == unplaced then begin
    (* Still listed in [starts]: the next pass frees the slot, so no
       start takes it before then. *)
    t.flows.(s) <- no_flow;
    t.placed.(s) <- vacant
  end
  else begin
    unplace t s;
    release t s
  end;
  id

(* ---- placement ---- *)

let rec same_path path n i = function
  | [] -> i = n
  | v :: rest -> i < n && path.(i) = v && same_path path n (i + 1) rest

let rec find_class path n demand = function
  | [] -> vacant
  | c :: rest ->
    if c.key.ck_demand = demand && same_path path n 0 c.key.ck_path then c
    else find_class path n demand rest

let links_of_path path =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go ((u, v) :: acc) rest
    | _ -> acc
  in
  go [] path

(* Join the class of the walk's [n] routers in [t.path]: an aggregated
   flow whose walk reproduces a live class's path finds it among its
   route's classes from the same source, and builds no list. *)
let join t s n =
  let flow = t.flows.(s) and r = t.routes_of.(s) in
  let c =
    if t.aggregate then find_class t.path n flow.demand r.by_src.(flow.src) else vacant
  in
  let c =
    if c != vacant then c
    else begin
      let rec build i acc = if i < 0 then acc else build (i - 1) (t.path.(i) :: acc) in
      let path = build (n - 1) [] in
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
        {
          key;
          c_links = List.sort_uniq Link.compare (links_of_path path);
          weight = 0;
          first = flow.id;
          first_stale = false;
          rate = 0.;
          rehash = false;
        }
      in
      Hashtbl.replace t.classes key c;
      if t.aggregate then r.by_src.(flow.src) <- c :: r.by_src.(flow.src);
      c
    end
  in
  if flow.id < c.first then c.first <- flow.id;
  c.weight <- c.weight + 1;
  t.placed.(s) <- c

(* (Re)derive the hashed path of the flow in slot [s] and update its
   class membership; a flow whose walk reproduces its class's path keeps
   its class untouched, and that check builds no list. *)
let place t s =
  let flow = t.flows.(s) and r = t.routes_of.(s) and c = t.placed.(s) in
  let max_hops = t.nodes in
  let kept = c.weight > 0 && Hashing.follows ~fib:r.fib ~max_hops ~flow_id:flow.id c.key.ck_path in
  if not kept then
    match Hashing.walk ~fib:r.fib ~max_hops ~flow_id:flow.id ~src:flow.src t.path with
    | -1 ->
      if c != unroutable then begin
        unplace t s;
        t.placed.(s) <- unroutable;
        t.n_unroutable <- t.n_unroutable + 1
      end
    | n ->
      unplace t s;
      join t s n

let rewalk_all t =
  Obs.Metrics.add m_rehashed t.live;
  for s = 0 to t.used - 1 do
    if t.placed.(s) != vacant then place t s
  done

(* Re-walk only the flows whose cached answers may have changed: the
   members of a class whose path crosses a router that reran stage 1, or
   a router whose row for the class's prefix was flagged by a lie, plus
   every currently-unroutable flow, which may have regained a path.
   Every member of a class shares its prefix and path, so the class is
   judged once for all of them. Every other flow's routers answer its
   prefix exactly as before (see [Spf_engine.dirtied_since]), so its
   hashed walk would reproduce the cached path verbatim. A lie flags one
   prefix's rows, so the classes of other prefixes through the same
   routers keep their paths. The flows are placed in slot order. *)
let rewalk_dirty t dirt =
  if dirt <> [] || t.n_unroutable > 0 then begin
    (* By router: [Some []] when every row may change, [Some ps] when
       the rows of [ps] may, [None] when none may. *)
    let dirty = Array.make t.nodes None in
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
    if judged <> [] || t.n_unroutable > 0 then begin
      (* A placement changes only its own slot, so each slot is judged
         on the class it held when the pass began. *)
      let count = ref 0 in
      for s = 0 to t.used - 1 do
        let c = t.placed.(s) in
        if c.rehash || c == unroutable then begin
          incr count;
          place t s
        end
      done;
      List.iter (fun c -> c.rehash <- false) judged;
      Obs.Metrics.add m_rehashed !count
    end
  end

let place_starts t =
  let n = t.n_starts in
  for i = 0 to n - 1 do
    let s = t.starts.(i) in
    let c = t.placed.(s) in
    if c == unplaced then place t s
    else if c == vacant then release t s (* stopped before its first placement *)
  done;
  t.n_starts <- 0;
  n > 0

(* ---- queries ---- *)

let fold_live t f acc =
  let acc = ref acc in
  for s = 0 to t.used - 1 do
    if t.placed.(s) != vacant then acc := f s !acc
  done;
  !acc

let flows t =
  fold_live t (fun s acc -> t.flows.(s) :: acc) []
  |> List.sort (fun (a : Flow.t) b -> Int.compare a.id b.id)

let prefixes t = fold_live t (fun s acc -> t.flows.(s).prefix :: acc) [] |> List.sort_uniq compare

let iter_rates t f = fold_live t (fun s () -> f t.flows.(s).id t.placed.(s).rate) ()

let class_of t id =
  if not t.by_id_ok then begin
    Hashtbl.reset t.by_id;
    ignore (fold_live t (fun s () -> Hashtbl.replace t.by_id t.flows.(s).id s) ());
    t.by_id_ok <- true
  end;
  match Hashtbl.find_opt t.by_id id with
  | Some s when t.placed.(s).weight > 0 -> Some t.placed.(s)
  | Some _ | None -> None

let flow_rate t id = match class_of t id with Some c -> c.rate | None -> 0.

let flow_path t id = Option.map (fun c -> c.key.ck_path) (class_of t id)

let class_count t = Hashtbl.length t.classes

let unroutable_flows t =
  if t.n_unroutable = 0 then []
  else
    fold_live t (fun s acc -> if t.placed.(s) == unroutable then t.flows.(s).id :: acc else acc) []
    |> List.sort Int.compare

type demand = {
  src : G.node;
  prefix : Igp.Lsa.prefix;
  path : G.node list option;
  amount : float;
}

(* One pass over the live slots recomputes every stale [first]. *)
let refresh_firsts t =
  let stale =
    Hashtbl.fold
      (fun _ c n ->
        if c.first_stale then begin
          c.first <- max_int;
          n + 1
        end
        else n)
      t.classes 0
  in
  if stale > 0 then begin
    for s = 0 to t.used - 1 do
      let c = t.placed.(s) in
      if c.first_stale then c.first <- Int.min c.first t.flows.(s).id
    done;
    Hashtbl.iter (fun _ c -> c.first_stale <- false) t.classes
  end

(* One entry per class and one per unroutable flow, in ascending order
   of smallest member id: a consumer summing per key meets its keys in
   the order an id-sorted walk over the streams would (see sim.mli).
   Between steps every active flow is placed — in a class or
   unroutable — since every pass places each start. *)
let demand_matrix t =
  refresh_firsts t;
  let classed =
    Hashtbl.fold
      (fun _ c acc ->
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
  let unroutable s acc =
    if t.placed.(s) == unroutable then
      let f = t.flows.(s) in
      (f.id, { src = f.src; prefix = f.prefix; path = None; amount = f.demand }) :: acc
    else acc
  in
  (if t.n_unroutable = 0 then classed else fold_live t unroutable classed)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* ---- allocation ---- *)

let allocate_max_min t caps =
  let arr = Array.of_list (Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []) in
  let demands = Array.map (fun c -> c.key.ck_demand) arr in
  let links = Array.map (fun c -> c.c_links) arr in
  let weights = Array.map (fun c -> c.weight) arr in
  let rates = Fairshare.water_fill caps ~demands ~links ~weights in
  Array.iteri (fun i c -> c.rate <- rates.(i)) arr

let allocate_aimd t aimd ~dt caps =
  (* Classes are singletons here ([Sim.create] disables aggregation for
     AIMD), so each class maps 1:1 to a flow and its route. *)
  let routes =
    fold_live t
      (fun s acc ->
        let c = t.placed.(s) in
        if c.weight > 0 then ({ Fairshare.flow = t.flows.(s); links = c.c_links }, c) :: acc
        else acc)
      []
  in
  let offered = Aimd.update aimd ~dt ~capacities:caps (List.map fst routes) in
  let offered_tbl : (int, float) Hashtbl.t = Hashtbl.create (max 16 (2 * List.length offered)) in
  List.iter (fun (id, rate) -> Hashtbl.replace offered_tbl id rate) offered;
  (* Offered load per link at the AIMD rates; delivery is capped at the
     bottleneck share of each flow (excess is queue drop). *)
  let loads : (Link.t, float) Hashtbl.t = Hashtbl.create 64 in
  let offered_rate (route : Fairshare.route) =
    Option.value ~default:0. (Hashtbl.find_opt offered_tbl route.flow.Flow.id)
  in
  List.iter
    (fun ((route : Fairshare.route), _) ->
      let rate = offered_rate route in
      List.iter
        (fun link ->
          Hashtbl.replace loads link (rate +. Option.value ~default:0. (Hashtbl.find_opt loads link)))
        route.links)
    routes;
  List.iter
    (fun ((route : Fairshare.route), c) ->
      let factor =
        List.fold_left
          (fun acc link ->
            let load = Option.value ~default:0. (Hashtbl.find_opt loads link) in
            if load > 0. then min acc (Link.capacity caps link /. load) else acc)
          1. route.links
      in
      c.rate <- offered_rate route *. min 1. factor)
    routes

let link_loads t =
  let tbl : (Link.t, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ c ->
      let total = float_of_int c.weight *. c.rate in
      List.iter
        (fun link ->
          Hashtbl.replace tbl link (total +. Option.value ~default:0. (Hashtbl.find_opt tbl link)))
        c.c_links)
    t.classes;
  tbl
