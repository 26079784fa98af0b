(** Fake-node count reduction.

    The SIGCOMM'15 Fibbing paper pairs its augmentation with a merger
    that shrinks the lie to the minimum number of fake LSAs. We implement
    the same contract with a greedy verifier-driven search: try dropping
    each fake in turn (cheapest wins kept last), keep the drop whenever
    the full-network verification still passes. The result is a plan with
    the same verified behaviour and no removable fake — a local minimum,
    which for DAG-shaped requirements is typically the true minimum.

    Typical wins: a required next hop that some cheaper lie already makes
    equal-cost, and pinned routers whose protection became redundant as
    other fakes were removed. *)

val minimize :
  Igp.Network.t ->
  Requirements.t ->
  Augmentation.plan ->
  Augmentation.plan
(** Returns a plan whose [fakes] list is a subset of the input's and
    which still passes [Verify.check] against the current network state
    (the input plan must itself verify; it is returned unchanged
    otherwise). Expected weights, costs and pinned routers are carried
    over. *)

