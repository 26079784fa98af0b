(** Forwarding-state safety analysis for one prefix.

    The one loop/blackhole check in the system, underlying install-time
    transient safety ([Fibbing.Transient]), the asynchronous
    reconvergence replay ({!Convergence.analyze}) and the continuous
    runtime watchdog ([Netsim.Watchdog]): is a per-prefix forwarding
    graph loop-free, and does every router that has a route actually
    reach an announcer by following next hops? It lives here — below
    every consumer — because [Netsim] cannot depend on the fibbing core
    (the dependency runs the other way). *)

type verdict =
  | Safe
  | Loop of Netgraph.Graph.node list
      (** Routers on a cycle or downstream of one, ascending. *)
  | Blackhole of Netgraph.Graph.node
      (** The lowest-numbered routed router with a next hop that has no
          route of its own. *)

val analyze : Fib.t option array -> verdict
(** Safety of an arbitrary forwarding state, given as one FIB per router
    indexed by router id (e.g. a mix of old and new FIBs mid-
    reconvergence). Loops are found first (Kahn's algorithm over the
    next-hop edges); only a loop-free state is checked for blackholes.
    Cost: O(V + E) over the forwarding graph. *)

val verdict : Network.t -> prefix:Lsa.prefix -> verdict
(** [analyze] of the network's {e current} forwarding for the prefix. *)

val describe : Netgraph.Graph.t -> prefix:Lsa.prefix -> verdict -> string
(** Human-readable problem text, naming routers via the graph:
    ["forwarding loop for P through {A, B}"] or
    ["blackhole for P at A: a next hop has no route"]. *)

val state_safe : Network.t -> prefix:Lsa.prefix -> (unit, string) result
(** [Ok ()] when [verdict] is [Safe], [Error (describe ...)]
    otherwise. *)
