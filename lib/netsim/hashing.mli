(** Per-flow ECMP hashing.

    Routers hash a flow's identifier (in reality the 5-tuple) to pick one
    FIB entry; the choice is stable for a flow at a given router while the
    entry list is unchanged, so packets of one flow stay on one path. The
    hash is independent across routers (each router salts with its own
    id), matching real ECMP behaviour. Multiplicity-weighted entries are
    selected proportionally — the mechanism behind Fibbing's uneven
    splits. *)

val select :
  flow_id:int -> router:Netgraph.Graph.node -> Igp.Fib.t -> Netgraph.Graph.node option
(** The next hop this router forwards this flow to; [None] when the FIB
    is local or has no entries. The pick is the bucket of the flow's hash
    over the FIB's canonical {!Igp.Fib.weights}; on a canonical FIB (every
    SPF-built one) it reads the entries in place and allocates nothing. *)

val route_with :
  fib:(Netgraph.Graph.node -> Igp.Fib.t option) ->
  max_hops:int ->
  flow_id:int ->
  src:Netgraph.Graph.node ->
  Netgraph.Graph.node list option
(** Chain per-router hash decisions over an arbitrary (already
    prefix-specialized) FIB view — e.g. the mixed old/new view during a
    reconvergence. [None] on unreachability or when more than [max_hops]
    hops are taken (a forwarding loop). *)

val follows :
  fib:(Netgraph.Graph.node -> Igp.Fib.t option) ->
  max_hops:int ->
  flow_id:int ->
  Netgraph.Graph.node list ->
  bool
(** [follows ~fib ~max_hops ~flow_id path] is
    [route_with ~fib ~max_hops ~flow_id ~src:(List.hd path) = Some path],
    decided hop by hop without building a list: the check a re-hash makes
    on a flow's cached path before it routes the flow again. *)
