(** Maximum flow (Edmonds–Karp) on float capacities.

    Used by the TE library to upper-bound what any routing scheme can
    carry between a source and a destination, and in tests as an oracle
    against which multipath routing is checked. *)

type capacities = (Graph.node * Graph.node, float) Hashtbl.t
(** Capacity per directed edge; edges absent from the table have
    capacity 0. *)

val max_flow :
  Graph.t -> capacities -> source:Graph.node -> sink:Graph.node -> float
(** Value of the maximum flow. Requires non-negative capacities;
    0. when source = sink or the sink is unreachable. *)
