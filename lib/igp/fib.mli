(** Per-router, per-prefix forwarding entries as installed after SPF.

    An entry's [multiplicity] is the number of equal-cost routes resolving
    to that next hop: real ECMP paths contribute at most 1 per next hop
    (routers deduplicate identical next hops computed from the real
    topology), while every fake route contributes 1 even when several
    resolve to the same physical next hop — this is how Fibbing encodes
    uneven ratios on stock ECMP hardware. *)

type entry = {
  next_hop : Netgraph.Graph.node;
  multiplicity : int;
  via_fakes : string list;
      (** Identifiers of the fake LSAs contributing to this entry; [[]]
          for purely real entries. *)
}

type t = {
  router : Netgraph.Graph.node;
  prefix : Lsa.prefix;
  distance : int;  (** SPF cost from the router to the prefix. *)
  local : bool;  (** The router itself announces the prefix. *)
  entries : entry list;  (** Sorted by next hop. *)
}

val make :
  router:Netgraph.Graph.node ->
  prefix:Lsa.prefix ->
  distance:int ->
  local:bool ->
  entry list ->
  t
(** Checked constructor: raises [Invalid_argument] unless every entry
    has multiplicity >= 1 and entries are strictly sorted by next hop
    (canonical form). Zero- or negative-multiplicity entries used to be
    accepted silently and skewed {!fractions}. *)

val invariant : t -> (unit, string) result
(** The {!make} check, as a result — asserted by the watchdog's safety
    pass on live FIBs. *)

val next_hops : t -> Netgraph.Graph.node list
(** Distinct next hops, ascending. *)

val weights : t -> (Netgraph.Graph.node * int) list
(** Next hop with aggregated multiplicity, in canonical form: ascending
    by next hop, duplicate next-hop entries merged. *)

val fractions : t -> (Netgraph.Graph.node * float) list
(** Traffic fraction sent to each next hop under per-flow ECMP hashing
    (multiplicity / total). Empty when [local] or no entries. *)

val uses_fake : t -> bool

val equal_forwarding : t -> t -> bool
(** Same next hops with the same aggregated multiplicities (ignores which
    fakes produced them). Compares canonical {!weights}, so entry order
    and duplicate next-hop splits do not matter. *)

val pp : names:(Netgraph.Graph.node -> string) -> Format.formatter -> t -> unit
