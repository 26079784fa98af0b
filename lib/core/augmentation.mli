(** Compilation of forwarding requirements into fake LSAs — the core of
    Fibbing.

    There is one compiler, [compile]. It runs a single per-router cost
    relaxation: every lied-to router starts at its highest safe fake
    cost, and the pairwise consistency rule
    [L(u) <= dist(u, v) + L(v) − 1] then lowers whoever a neighbour's
    lie would otherwise capture. Each router ends in one of two
    outcomes:

    - {b Extension} (the demo's technique): its cost stays at its
      current SPF distance, so the fakes join the existing equal-cost
      set. They add next hops (and multiplicities) and the real routes
      supply the first unit of every hop they already use. This is the
      start when the router's requirement only adds paths; it reproduces
      the paper's fB (cost 2 at B) and the two fA (cost 3 at A).

    - {b Override}: its cost ends strictly below its SPF distance, so
      fakes replace the real routes entirely and carry every
      multiplicity unit. This is the start (distance − 1) when a current
      next hop must be removed, and where the relaxation lowers a router.

    An exact-cost tie between a router's extension lie and the path
    towards another router's lie is allowed when every tied path enters
    the router's existing first hops (SPF deduplicates them), which keeps
    the demo plan at 3 fakes. A router at distance 1 can only be
    extended, since no positive-cost lie undercuts it.

    [compile] then verifies the candidate on a cloned network and repairs
    residual collateral damage by {i pinning} the affected routers (lying
    to them so they keep forwarding exactly as before) — the same
    grow-the-lie-set loop the Fibbing paper's augmentation uses. The
    result is verified or an [Error] is returned; nothing is ever
    silently wrong. *)

type plan = {
  prefix : Igp.Lsa.prefix;
  fakes : Igp.Lsa.fake list;
  expected : (Netgraph.Graph.node * (Netgraph.Graph.node * int) list) list;
      (** Per required (and pinned) router, the FIB weights the plan must
          produce — the verifier's contract. *)
  costs : (Netgraph.Graph.node * int) list;
      (** Fake total cost used at each lied-to router. *)
  pinned : Netgraph.Graph.node list;
      (** Routers added by collateral repair. *)
}

val fake_count : plan -> int

val compile :
  ?max_entries:int ->
  ?tag:string ->
  Igp.Network.t ->
  Requirements.t ->
  (plan, string) result
(** The cost relaxation above, with verification and at most 8 rounds
    of collateral repair. Fails when a required router cannot reach
    the prefix, already has fake routes for it, or has no positive fake
    cost. On [Ok plan], applying [plan] to the network is guaranteed to
    pass [Verify.check]. *)

val apply : Igp.Network.t -> plan -> unit
(** Inject every fake of the plan. *)
