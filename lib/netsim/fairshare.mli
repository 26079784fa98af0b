(** Max-min fair fluid bandwidth allocation.

    Long-lived TCP flows sharing bottleneck links converge (to first
    order) to the max-min fair allocation; this module computes it by
    progressive filling: all flows' rates grow together, a flow freezes
    when it reaches its demand cap (video bitrate) or when one of its
    links saturates. This is the bandwidth model behind the Fig. 2
    throughput curves.

    The production kernel ([water_fill]) is array-indexed: links are interned to dense ints, flow↔link incidence
    is built once, per-link remaining capacity / unfrozen-weight
    counters are reconciled lazily, and candidate saturation levels live
    in a min-heap with version-stamped lazy deletion — so a round costs
    the degree of what froze, not a rescan of every (flow, link) pair.
    [allocate_reference] keeps the original list-based fill as the
    property-test oracle and benchmark baseline. *)

type route = {
  flow : Flow.t;
  links : Link.t list;  (** The directed links of the flow's path. *)
}

val water_fill :
  Link.capacities ->
  demands:float array ->
  links:Link.t list array ->
  weights:int array ->
  float array
(** Weighted max-min fair fill over flow groups: group [g] stands for
    [weights.(g)] identical flows of demand [demands.(g)] sharing links
    [links.(g)] (a link is charged [weight * rate]). Returns the
    per-member rate of each group, index-aligned with the inputs — equal
    to what [allocate_reference] gives each member of the group expanded
    into singletons (within numerical tolerance). A group with no links gets its full demand. Raises
    [Invalid_argument] on mismatched array lengths or a weight < 1. *)

val allocate_reference : Link.capacities -> route list -> (int * float) list
(** [(flow id, rate)] for every route, in input order, by the original
    O(flows * links)-per-round list fill. A flow with an empty link list
    (locally delivered) gets its full demand. Flow ids must be distinct;
    raises [Invalid_argument] otherwise. Kept as the QCheck oracle for
    [water_fill] and as the pre-kernel baseline timed by the TFLOW
    bench. *)

val link_throughput : route list -> (int * float) list -> (Link.t * float) list
(** Aggregate per-link throughput implied by an allocation, sorted by
    link. *)
