(** Whole-network routing state: the physical topology, its LSDB, and the
    FIBs of every router, recomputed (lazily, with caching) whenever the
    LSDB changes. Also accounts the control-plane cost of every fake-LSA
    operation, which the benchmarks compare against MPLS signaling. *)

type t

val create : Netgraph.Graph.t -> t
(** Routes are computed on the calling domain ({!Spf_engine}). *)

val clone : t -> t
(** A what-if copy, used to test a candidate augmentation before
    touching the live network. The clone owns a copy of the graph and of
    the LSDB (see {!Lsdb.clone}); fake expiries are not copied. Its
    routes start warm ({!Spf_engine.clone}): the parent's engine is
    synced, then its stage-1 trees and its prefix -> announcers index
    are shared read-only, and routers dirty in the parent stay dirty.
    The clone computes a prefix's row at a router only when a lookup
    ([fib], [fib_table], [distance], ...) first asks for it, so a query
    about one prefix costs one row per router and no Dijkstra. Cloning
    costs O(routers + fakes), nothing per announced prefix. Trees and
    the shared index are never written, so no later mutation of either
    network reaches the other. Control-cost counters and engine stats
    start at zero. *)

val graph : t -> Netgraph.Graph.t

val lsdb : t -> Lsdb.t

val announce_prefix :
  t -> Lsa.prefix -> origin:Netgraph.Graph.node -> cost:int -> unit

val inject_fake : t -> Lsa.fake -> unit
(** Install a fake LSA and account its flooding cost. *)

val retract_fake : t -> fake_id:string -> unit
(** Retract (purge) a fake LSA; purges flood like installations. Raises
    [Not_found] if no fake with this id is installed. *)

val retract_all_fakes : t -> unit

val retract_prefix_fakes : t -> Lsa.prefix -> Lsa.fake list
(** Retract every fake LSA for the prefix and return them, in LSDB
    (installation) order; [[]] when there was none. *)

val fakes : t -> Lsa.fake list

val fib : t -> router:Netgraph.Graph.node -> Lsa.prefix -> Fib.t option
(** Served by the [Spf_engine]: one cached Dijkstra per router covers
    every prefix, and caches survive LSDB changes that provably cannot
    affect the router. *)

val fib_table : t -> Lsa.prefix -> Fib.t option array
(** Per-router FIBs for one prefix, indexed by router id; computes all
    routers in one batch (in a clone, only this prefix's rows). Prefer this over calling [fib] in a
    loop when every router is needed. *)

val fibs : t -> Lsa.prefix -> (Netgraph.Graph.node * Fib.t) list
(** FIB of every router that can reach the prefix, by router id. *)

val resolve : t -> Lsa.prefix -> Lsa.prefix option
(** Longest announced prefix covering a destination (see
    {!Lsdb.resolve}); how flows aimed at arbitrary destinations find
    the announcement that routes them. *)

val distance : t -> router:Netgraph.Graph.node -> Lsa.prefix -> int option

val next_hops : t -> router:Netgraph.Graph.node -> Lsa.prefix -> Netgraph.Graph.node list

val warm : t -> unit
(** Precompute every router's FIB table (one batch); subsequent
    [fib] lookups are pure hash lookups until the LSDB changes. A clone
    computes only every router's stage 1: its rows stay on demand. *)

val engine : t -> Spf_engine.t
(** The underlying SPF engine (stats, explicit sync). *)

val set_weight : t -> Netgraph.Graph.node -> Netgraph.Graph.node -> weight:int -> unit
(** Change a (directed) link weight; triggers reconvergence (incremental
    — only routers whose shortest paths can use the edge recompute) and
    accounts the router-LSA reflood (both endpoints of the paper's
    "per-device reconfiguration"). *)

val control_cost : t -> Flooding.cost
(** Cumulative control-plane cost of all fake/weight operations since
    creation. *)

val set_flooding_loss : t -> Flooding.loss option -> unit
(** Make every subsequently accounted flood pay lossy retransmission
    costs (chaos experiments); [None] restores the lossless default.
    Clones start lossless. *)

val set_flooding_jitter : t -> Flooding.jitter option -> unit
(** Make every subsequently accounted flood pay per-adjacency delivery
    jitter — LSAs arrive late and out of order ({!Flooding.jitter}).
    Composes with [set_flooding_loss]; [None] (the default, and the
    clone state) disables. *)

val refresh_cost : t -> period:float -> duration:float -> Flooding.cost
(** Steady-state cost of keeping the currently installed fakes alive for
    [duration] seconds: OSPF re-originates every LSA each [period]
    (1800 s by default in real deployments), and each re-origination
    refloods. This is Fibbing's analogue of RSVP-TE's soft-state
    refreshes — two orders of magnitude rarer. *)

val routers : t -> Netgraph.Graph.node list
