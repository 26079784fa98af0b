(** Maximum flow (Edmonds–Karp) on float capacities.

    The fibbing controller uses it to estimate how much capacity a
    candidate next hop leaves its traffic: one {!network} per router it
    visits, one {!max_flow} per candidate. Tests also use it as an oracle
    against which multipath routing is checked.

    A network is dense: it holds n × n capacity and flow grids over the
    graph's n nodes, so build one per graph of a few hundred nodes at
    most. *)

type capacities = (Graph.node * Graph.node, float) Hashtbl.t
(** Capacity per directed edge; edges absent from the table have
    capacity 0. A key bound twice has its newest binding's capacity
    ([Hashtbl.find]). *)

type network
(** A graph's residual network: its arcs and their capacities, read
    once. Not thread-safe: {!max_flow} reuses the network's flow grid. *)

val network : Graph.t -> capacities -> network
(** Reads the graph's edges and the capacities of its nodes' pairs now;
    later changes to either do not reach the network. Raises
    [Invalid_argument] if any capacity is negative. *)

val max_flow : network -> source:Graph.node -> sink:Graph.node -> float
(** Value of the maximum flow from [source] to [sink]; 0. when
    source = sink or the sink is unreachable. Each call starts from zero
    flow. Augmenting paths are found by BFS trying each node's
    successors, then its predecessors, in graph order. *)
