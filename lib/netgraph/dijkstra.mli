(** Single-source shortest paths with full equal-cost multipath support.

    [run] computes, for every node, the distance from the source and the
    complete set of shortest-path predecessors, i.e. the ECMP DAG that a
    link-state router derives from its SPF computation. *)

type result

val run : Graph.t -> source:Graph.node -> result

val distance : result -> Graph.node -> int option
(** [None] when the node is unreachable from the source. *)

val distance_exn : result -> Graph.node -> int
(** Raises [Not_found] when unreachable. *)

val reachable : result -> Graph.node -> bool

val predecessors : result -> Graph.node -> Graph.node list
(** All shortest-path predecessors of the node (empty for the source and
    for unreachable nodes). Together these encode every shortest path. *)

val iter_settled : result -> (Graph.node -> unit) -> unit
(** Reachable nodes in the order the run settled them, source first.
    Distances are non-decreasing along it and, weights being positive,
    every node comes after all of its predecessors. *)

val first_hops : Graph.t -> result -> target:Graph.node -> Graph.node list
(** Distinct first hops (neighbors of the source) over all shortest paths
    from the source to [target], in ascending node order. Empty when
    [target] is the source or unreachable. This is the ECMP next-hop set a
    router installs. *)
