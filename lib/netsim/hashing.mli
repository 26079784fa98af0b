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

val walk :
  fib:(Netgraph.Graph.node -> Igp.Fib.t option) ->
  max_hops:int ->
  flow_id:int ->
  src:Netgraph.Graph.node ->
  int array ->
  int
(** [walk ~fib ~max_hops ~flow_id ~src path] chains per-router hash
    decisions over an arbitrary (already prefix-specialized) FIB view —
    e.g. the mixed old/new view during a reconvergence. It writes the
    routers of the flow's path into [path] from index 0 and returns
    their number, allocating nothing; it returns [-1] on
    unreachability or when more than [max_hops] hops are taken (a
    forwarding loop). [path] must hold [max_hops + 1] routers. *)

val follows :
  fib:(Netgraph.Graph.node -> Igp.Fib.t option) ->
  max_hops:int ->
  flow_id:int ->
  Netgraph.Graph.node list ->
  bool
(** [follows ~fib ~max_hops ~flow_id path] holds when {!walk} from
    [List.hd path] writes exactly [path], decided hop by hop: the check
    a re-hash makes on a flow's cached path before it routes the flow
    again. *)
