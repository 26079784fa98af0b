(** Two-stage route computation, the way an OSPF router computes its
    routing table (RFC 2328 §16).

    Stage 1 ({!shortest_paths}) runs one Dijkstra from a router over the
    physical graph and derives, for every real node [v], the router's
    first hops on its shortest paths to [v]:
    [fh(v) = ⋃ over preds u of v of (u = router ? {v} : fh(u))], taken in
    settle order.

    Stage 2 ({!prefix_fib}) builds one prefix's FIB entry from stage 1.
    The prefix's candidates are its real announcers [o], at
    [d(router, o) + cost], and its fake LSAs, at
    [d(router, attachment) + attachment_cost + announced_cost] — a lie
    is an external route with a forwarding address. The cheapest
    candidates win: their first-hop sets are unioned; a winning
    announcer that is the router itself sets [local]; a winning fake
    attached at the router resolves to its forwarding address and adds
    one multiplicity (and its id) there, per fake.

    Prefixes and fakes are never transit, so stage 1 does not depend on
    them, and a lie changes only its own prefix's entries. *)

type tree
(** Stage 1 for one router: distances and first-hop sets. *)

val shortest_paths : Netgraph.Graph.t -> router:Netgraph.Graph.node -> tree

val distance : tree -> Netgraph.Graph.node -> int option
(** [None] when the node is unreachable from the tree's router. *)

val prefix_fib :
  tree ->
  Lsa.prefix ->
  announcers:(Netgraph.Graph.node * int) list ->
  fakes:Lsa.fake list ->
  Fib.t option
(** The router's FIB for a prefix with these real [(origin, cost)]
    announcements and these fakes; [None] when no candidate is
    reachable. *)
