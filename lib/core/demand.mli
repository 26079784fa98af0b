(** The controller's reaction inputs, derived from one
    {!Netsim.Sim.demand_matrix}.

    The paper's controller decides from link counters and per-destination
    demand, never from individual streams. A reaction therefore reads the
    simulator's aggregated matrix once and derives every table below from
    it: O(classes × path length) per table, whatever the stream count.

    Each table sums the matrix's entries in matrix order, so its
    [Hashtbl] keys are first seen in the order of the entries' smallest
    member flow ids — the order an id-sorted walk over the streams
    would see them (the contract documented on
    {!Netsim.Sim.demand_matrix}). [heaviest]'s tie-break relies on it. *)

type matrix = Netsim.Sim.demand list

val on_link : matrix -> Netsim.Link.t -> (Igp.Lsa.prefix, float) Hashtbl.t
(** Offered demand per prefix over the directed link. *)

val foreign_loads :
  matrix ->
  prefix:Igp.Lsa.prefix ->
  via:Netgraph.Graph.node ->
  (Netsim.Link.t, float) Hashtbl.t
(** Offered demand per directed link of every routed entry {e except} the
    prefix's traffic through [via]: the load [via]'s traffic competes
    with. *)

val through :
  matrix -> prefix:Igp.Lsa.prefix -> via:Netgraph.Graph.node -> float
(** Demand of the prefix's routed traffic through [via]. *)

val inflow :
  matrix ->
  prefix:Igp.Lsa.prefix ->
  via:Netgraph.Graph.node ->
  (Netgraph.Graph.node, float) Hashtbl.t
(** The prefix's demand entering [via], per upstream neighbor (the hop
    before [via]'s first occurrence on each path). *)

val by_src :
  matrix ->
  prefix:Igp.Lsa.prefix ->
  except:Netgraph.Graph.node ->
  (Netgraph.Graph.node * float) list
(** The prefix's demand per ingress, sorted by ingress, routed or not,
    leaving out ingress [except]. *)

val heaviest : ('k, float) Hashtbl.t -> ('k * float) option
(** The largest entry; among equal ones, the first in [Hashtbl.fold]
    order. [None] on an empty table. *)
