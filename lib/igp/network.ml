module Graph = Netgraph.Graph

type t = {
  graph : Graph.t;
  lsdb : Lsdb.t;
  engine : Spf_engine.t;
      (* Replaces the old per-(version, router, prefix) FIB cache, whose
         eviction reset the whole table — current entries included —
         past 4096 entries. The engine keeps one table per router and
         drops only tables invalidated by LSDB deltas. *)
  mutable control : Flooding.cost;
  mutable flooding_loss : Flooding.loss option;
      (* Chaos knob: when set, every accounted flood pays lossy
         retransmission costs. [None] (the default) is lossless. *)
  mutable flooding_jitter : Flooding.jitter option;
      (* Chaos knob: per-adjacency delivery jitter (LSA delay/reorder). *)
}

let create graph =
  let lsdb = Lsdb.create graph in
  {
    graph;
    lsdb;
    engine = Spf_engine.create lsdb;
    control = Flooding.zero;
    flooding_loss = None;
    flooding_jitter = None;
  }

let clone t =
  let graph = Graph.copy t.graph in
  let lsdb = Lsdb.clone t.lsdb graph in
  {
    graph;
    lsdb;
    engine = Spf_engine.clone t.engine lsdb;
    control = Flooding.zero;
    flooding_loss = None;
    flooding_jitter = None;
  }

let graph t = t.graph

let lsdb t = t.lsdb

let announce_prefix t prefix ~origin ~cost =
  Lsdb.announce_prefix t.lsdb prefix ~origin ~cost

let account t ~origin =
  t.control <-
    Flooding.add t.control
      (Flooding.flood ?loss:t.flooding_loss ?jitter:t.flooding_jitter t.graph
         ~origin)

let set_flooding_loss t loss = t.flooding_loss <- loss

let set_flooding_jitter t jitter = t.flooding_jitter <- jitter

let inject_fake t fake =
  Lsdb.install_fake t.lsdb fake;
  account t ~origin:fake.Lsa.attachment

let retract_fake t ~fake_id =
  let fake =
    List.find (fun (f : Lsa.fake) -> String.equal f.fake_id fake_id)
      (Lsdb.fakes t.lsdb)
  in
  Lsdb.retract_fake t.lsdb ~fake_id;
  account t ~origin:fake.Lsa.attachment

let retract_all_fakes t =
  List.iter (fun (f : Lsa.fake) -> retract_fake t ~fake_id:f.fake_id)
    (Lsdb.fakes t.lsdb)

let retract_prefix_fakes t prefix =
  let fakes =
    List.filter
      (fun (f : Lsa.fake) -> Prefix.equal f.prefix prefix)
      (Lsdb.fakes t.lsdb)
  in
  List.iter (fun (f : Lsa.fake) -> retract_fake t ~fake_id:f.fake_id) fakes;
  fakes

let fakes t = Lsdb.fakes t.lsdb

let fib t ~router prefix = Spf_engine.fib t.engine ~router prefix

let fib_table t prefix = Spf_engine.prefix_table t.engine prefix

let fibs t prefix =
  let table = fib_table t prefix in
  List.filter_map
    (fun router -> Option.map (fun f -> (router, f)) table.(router))
    (Graph.nodes t.graph)

let distance t ~router prefix = Spf_engine.distance t.engine ~router prefix

let next_hops t ~router prefix =
  match fib t ~router prefix with None -> [] | Some f -> Fib.next_hops f

let resolve t prefix = Lsdb.resolve t.lsdb prefix

let warm t = Spf_engine.compute_all t.engine

let engine t = t.engine

let set_weight t u v ~weight =
  let old_weight = Graph.weight_exn t.graph u v in
  (* Drain pending deltas before the graph mutates, so each weight delta
     reaches the engine alone and is judged against the graph state it
     describes — that keeps the engine on its precise single-edge rule. *)
  Spf_engine.sync t.engine;
  Graph.set_weight t.graph u v ~weight;
  Lsdb.weight_changed t.lsdb u v ~old_weight ~new_weight:weight;
  account t ~origin:u

let control_cost t = t.control

let refresh_cost t ~period ~duration =
  if period <= 0. then invalid_arg "Network.refresh_cost: period";
  let cycles = int_of_float (duration /. period) in
  List.fold_left
    (fun acc (fake : Lsa.fake) ->
      let once = Flooding.flood t.graph ~origin:fake.attachment in
      Flooding.add acc
        { Flooding.messages = once.messages * cycles; rounds = once.rounds })
    Flooding.zero (Lsdb.fakes t.lsdb)


let routers t = Graph.nodes t.graph
