module Graph = Netgraph.Graph

let m_delta_appends = Obs.Metrics.counter "lsdb.delta_appends"
let m_log_overflows = Obs.Metrics.counter "lsdb.log_overflows"

type delta =
  | Fake_delta of {
      attachment : Graph.node;
      cost : int;
      prefix : Lsa.prefix;
    }
  | Weight_delta of {
      u : Graph.node;
      v : Graph.node;
      old_weight : int;
      new_weight : int;
    }
  | Generic_delta

let log_cap = 1024

(* The real announcements: each prefix's as (origin, cost, stamp),
   oldest first. Stamps order announcements across prefixes; announcing
   a (prefix, origin) pair again gives it a fresh stamp. *)
type book = {
  by_prefix : (Lsa.prefix, (Graph.node * int * int) list) Hashtbl.t;
  mutable stamp : int; (* the next announcement's *)
  mutable live : int; (* announcements *)
  mutable listed : (Lsa.prefix * Graph.node * int) list option;
      (* Every announcement by stamp, built on demand. *)
}

type t = {
  base : Graph.t;
  mutable book : book;
  (* Set once a clone shares [book]: whichever side announces next
     copies it first. *)
  mutable book_shared : bool;
  mutable newest_origin : Graph.node option; (* the last announcement's origin *)
  mutable fake_list : Lsa.fake list; (* newest last *)
  expiries : (string, float) Hashtbl.t;
      (* fake_id -> absolute expiry time; absent = never expires. *)
  mutable version : int;
  mutable last_origin : Graph.node option;
  mutable resolver : Lsa.prefix Fib_trie.t option;
      (* LPM index over announced prefixes, built lazily and dropped by
         [announce_prefix] — the only writer of [book]; maps
         any destination prefix to the announced prefix governing it
         (longest covering announcement). *)
  mutable delta_log : (int * delta) list; (* newest first *)
  mutable log_entries : int;
  mutable log_floor : int;
      (* The log holds every delta with version > log_floor. *)
}

let make base book =
  {
    base;
    book;
    book_shared = false;
    newest_origin = None;
    fake_list = [];
    expiries = Hashtbl.create 16;
    version = 0;
    last_origin = None;
    resolver = None;
    delta_log = [];
    log_entries = 0;
    log_floor = 0;
  }

let create base =
  make base { by_prefix = Hashtbl.create 16; stamp = 0; live = 0; listed = None }

let base_graph t = t.base

(* What replaying [announce_prefix] over [src]'s announcements and then
   [install_fake] over its fakes would leave, built without the replay:
   the same (shared) book and fake list, one version per LSA. Constant
   in the announcements, linear in the fakes. *)
let clone src base =
  let rec last_attachment = function
    | [] -> src.newest_origin
    | [ (f : Lsa.fake) ] -> Some f.attachment
    | _ :: rest -> last_attachment rest
  in
  let version = src.book.live + List.length src.fake_list in
  src.book_shared <- true;
  {
    (make base src.book) with
    book_shared = true;
    newest_origin = src.newest_origin;
    fake_list = src.fake_list;
    version;
    last_origin = last_attachment src.fake_list;
    log_floor = version;
  }

(* Tag [deltas] with the current (already bumped) version. On overflow
   the whole log is dropped and the floor raised to the current version:
   consumers synced before the drop fall back to full invalidation. *)
let record t deltas =
  let count = List.length deltas in
  if t.log_entries + count > log_cap then begin
    Obs.Metrics.incr m_log_overflows;
    if Obs.enabled () then
      Obs.Timeline.record ~source:"lsdb" ~kind:"log_overflow"
        [ ("dropped", Int t.log_entries); ("version", Int t.version) ];
    t.delta_log <- [];
    t.log_entries <- 0;
    t.log_floor <- t.version
  end
  else begin
    List.iter (fun d -> t.delta_log <- (t.version, d) :: t.delta_log) deltas;
    t.log_entries <- t.log_entries + count;
    Obs.Metrics.add m_delta_appends count
  end

let deltas_since t ~since =
  if since < t.log_floor then None
  else begin
    (* Newest-first log; collect entries newer than [since], which
       reverses them into application order. *)
    let rec take acc = function
      | (v, d) :: rest when v > since -> take (d :: acc) rest
      | _ -> acc
    in
    Some (take [] t.delta_log)
  end

let bump t = t.version <- t.version + 1

let fake_delta (f : Lsa.fake) =
  Fake_delta
    { attachment = f.attachment; cost = Lsa.total_cost f; prefix = f.prefix }

let listed b =
  match b.listed with
  | Some l -> l
  | None ->
    let stamped =
      Hashtbl.fold
        (fun p l acc -> List.fold_left (fun acc (o, cost, s) -> (s, (p, o, cost)) :: acc) acc l)
        b.by_prefix []
    in
    let l = List.map snd (List.sort (fun (s, _) (s', _) -> Int.compare s s') stamped) in
    b.listed <- Some l;
    l

let announce_prefix t prefix ~origin ~cost =
  if cost < 0 then invalid_arg "Lsdb.announce_prefix: negative cost";
  ignore (Graph.name t.base origin);
  if t.book_shared then begin
    let b = t.book in
    t.book <- { b with by_prefix = Hashtbl.copy b.by_prefix };
    t.book_shared <- false
  end;
  let b = t.book in
  t.last_origin <- Some origin;
  t.newest_origin <- Some origin;
  let announcers = Option.value ~default:[] (Hashtbl.find_opt b.by_prefix prefix) in
  let others = List.filter (fun (o, _, _) -> o <> origin) announcers in
  if List.compare_lengths others announcers = 0 then b.live <- b.live + 1;
  Hashtbl.replace b.by_prefix prefix (others @ [ (origin, cost, b.stamp) ]);
  b.stamp <- b.stamp + 1;
  b.listed <- None;
  t.resolver <- None;
  bump t;
  record t [ Generic_delta ]

let prefix_known t prefix = Hashtbl.mem t.book.by_prefix prefix

let announcers t prefix =
  match Hashtbl.find_opt t.book.by_prefix prefix with
  | None -> []
  | Some l -> List.map (fun (o, _, _) -> o) l

let install_fake t (fake : Lsa.fake) =
  if fake.attachment_cost <= 0 then
    invalid_arg "Lsdb.install_fake: attachment cost must be positive";
  if fake.announced_cost < 0 then
    invalid_arg "Lsdb.install_fake: negative announced cost";
  if not (Graph.has_edge t.base fake.attachment fake.forwarding) then
    invalid_arg
      (Printf.sprintf "Lsdb.install_fake: %s's forwarding address is not a neighbor of its attachment"
         fake.fake_id);
  if not (prefix_known t fake.prefix) then
    invalid_arg
      (Printf.sprintf "Lsdb.install_fake: unknown prefix %s"
         (Prefix.to_string fake.prefix));
  let superseded =
    List.find_opt
      (fun (f : Lsa.fake) -> String.equal f.fake_id fake.fake_id)
      t.fake_list
  in
  t.fake_list <-
    List.filter (fun (f : Lsa.fake) -> not (String.equal f.fake_id fake.fake_id)) t.fake_list
    @ [ fake ];
  t.last_origin <- Some fake.attachment;
  bump t;
  (* Supersession is a retraction plus an installation: both deltas are
     logged so incremental consumers see the old fake disappear too. *)
  record t
    (match superseded with
    | None -> [ fake_delta fake ]
    | Some old -> [ fake_delta old; fake_delta fake ])

let retract_fake t ~fake_id =
  match
    List.find_opt (fun (f : Lsa.fake) -> String.equal f.fake_id fake_id) t.fake_list
  with
  | None -> raise Not_found
  | Some fake ->
    t.fake_list <-
      List.filter
        (fun (f : Lsa.fake) -> not (String.equal f.fake_id fake_id))
        t.fake_list;
    Hashtbl.remove t.expiries fake_id;
    t.last_origin <- Some fake.attachment;
    bump t;
    record t [ fake_delta fake ]

let fakes t = t.fake_list

let fake_count t = List.length t.fake_list

(* ---------- fake-LSA aging ---------- *)

let installed t fake_id =
  List.exists (fun (f : Lsa.fake) -> String.equal f.fake_id fake_id) t.fake_list

let set_fake_expiry t ~fake_id ~now ~ttl =
  if ttl <= 0. then invalid_arg "Lsdb.set_fake_expiry: ttl must be positive";
  if installed t fake_id then
    Hashtbl.replace t.expiries fake_id (now +. Float.min ttl Lsa.max_age)

let fake_expiry t ~fake_id = Hashtbl.find_opt t.expiries fake_id

let expire_fakes t ~now =
  let expired =
    List.filter
      (fun (f : Lsa.fake) ->
        match Hashtbl.find_opt t.expiries f.fake_id with
        | Some at -> at <= now +. 1e-9
        | None -> false)
      t.fake_list
  in
  List.iter (fun (f : Lsa.fake) -> retract_fake t ~fake_id:f.fake_id) expired;
  expired

let prefixes t = listed t.book

let resolver t =
  match t.resolver with
  | Some trie -> trie
  | None ->
    let trie = Fib_trie.create ~eq:Prefix.equal in
    List.iter (fun (p, _, _) -> Fib_trie.update trie p p) (prefixes t);
    t.resolver <- Some trie;
    trie

let resolve t prefix =
  Option.map fst (Fib_trie.lookup_within (resolver t) prefix)

let prefix_list t =
  List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) t.book.by_prefix [])

let announced_among t ps = List.sort_uniq compare (List.filter (prefix_known t) ps)

let version t = t.version

let last_origin t = t.last_origin

let touch ?origin t =
  (match origin with Some _ -> t.last_origin <- origin | None -> ());
  t.version <- t.version + 1;
  record t [ Generic_delta ]

let reoriginate t ~origin =
  (* A router (re)floods its own LSA with a higher sequence number:
     crash (MaxAge flush) and recovery both look like this to the rest
     of the domain. The adjacency changes themselves live in the graph;
     here we advance the version and log a generic delta. *)
  t.last_origin <- Some origin;
  bump t;
  record t [ Generic_delta ]

let weight_changed t u v ~old_weight ~new_weight =
  t.last_origin <- Some u;
  t.version <- t.version + 1;
  record t [ Weight_delta { u; v; old_weight; new_weight } ]
