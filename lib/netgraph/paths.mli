(** Explicit path manipulation on top of the shortest-path DAG. *)

type path = Graph.node list
(** A path as its node sequence, source first. Always non-empty. *)

val cost : Graph.t -> path -> int
(** Sum of edge weights along the path. Raises [Not_found] if a hop is not
    an edge of the graph; [0] for a single-node path. *)

val all_shortest : ?limit:int -> Graph.t -> source:Graph.node -> target:Graph.node -> path list
(** Enumerate all distinct shortest paths (at most [limit], default 1024),
    lexicographically by node sequence. Empty if the target is
    unreachable; [[source]] if target = source. *)

val k_shortest : Graph.t -> k:int -> source:Graph.node -> target:Graph.node -> path list
(** Yen's algorithm: the [k] loopless shortest paths in non-decreasing
    cost order (fewer if the graph has fewer distinct paths). Used by the
    MPLS baseline to pre-provision tunnels. *)

val to_string : Graph.t -> path -> string
