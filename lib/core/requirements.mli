(** Forwarding requirements: what the operator (or the controller) wants
    the network to do for one destination prefix.

    A requirement assigns, to each router that must change, the set of
    next hops it should use and the fraction of traffic each next hop
    should receive. Routers not mentioned keep their IGP-computed
    behaviour. This is the abstraction the augmentation algorithms
    compile into fake LSAs. *)

type split = {
  next_hop : Netgraph.Graph.node;
  fraction : float;  (** In (0, 1]; fractions of one router sum to 1. *)
}

type router_requirement = {
  router : Netgraph.Graph.node;
  splits : split list;
}

type t = {
  prefix : Igp.Lsa.prefix;
  routers : router_requirement list;
}

val make :
  prefix:Igp.Lsa.prefix ->
  (Netgraph.Graph.node * (Netgraph.Graph.node * float) list) list ->
  t
(** Convenience constructor from [(router, [(next_hop, fraction); ...])]
    associations. *)

val validate : Igp.Network.t -> t -> (unit, string) result
(** Checks, against the network: every mentioned router exists and does
    not itself announce the prefix; every next hop is a physical neighbor
    of its router; no duplicate routers or next hops; fractions are
    positive and sum to 1 (within 1e-6); the prefix is announced. *)

val find : t -> Netgraph.Graph.node -> router_requirement option

val pp : names:(Netgraph.Graph.node -> string) -> Format.formatter -> t -> unit
