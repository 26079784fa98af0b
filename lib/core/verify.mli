(** Network-wide verification of an augmentation's effect.

    Fibbing's correctness argument rests on lies being surgical: the
    routers named in the requirements must forward exactly as requested,
    and every other router must forward exactly as before. [check]
    recomputes every router's FIB and reports both kinds of violation;
    the augmentation compiler uses it as an oracle (and its [`Collateral]
    issues to decide which routers to pin). *)

type kind = [ `Requirement | `Collateral ]

type issue = {
  router : Netgraph.Graph.node;
  kind : kind;
  detail : string;
}

type report = { ok : bool; issues : issue list }

val check :
  Igp.Network.t ->
  prefix:Igp.Lsa.prefix ->
  expected:(Netgraph.Graph.node * (Netgraph.Graph.node * int) list) list ->
  baseline:(Netgraph.Graph.node * Igp.Fib.t) list ->
  report
(** [expected] gives, per required router, the exact aggregated
    (next hop, multiplicity) FIB weights the augmentation must produce.
    Every router absent from [expected] is compared against [baseline]
    with [Igp.Fib.equal_forwarding]. *)

val pp_report :
  names:(Netgraph.Graph.node -> string) -> Format.formatter -> report -> unit
