(** Per-router shortest-path-first computation over the LSDB view.

    [compute_prefix] mirrors what one OSPF router does: Dijkstra on the
    augmented graph, collection of the equal-cost first hops towards the
    prefix's virtual sink, and resolution of fake first hops to the
    physical next hop given by the fake's forwarding-address mapping. *)

val compute_prefix :
  Lsdb.view -> router:Netgraph.Graph.node -> Lsa.prefix -> Fib.t option
(** [None] when the prefix is unknown or unreachable from the router. *)

val compute : Lsdb.view -> router:Netgraph.Graph.node -> Fib.t list
(** FIBs for every reachable prefix (sorted by prefix name). *)
