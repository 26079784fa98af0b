(** From fractional multi-commodity flows to Fibbing requirements.

    A per-prefix edge flow (e.g. computed by [Mcf]) induces, at every
    router with outgoing flow, a set of next hops and split fractions.
    After cancelling any residual flow cycles (the FPTAS can leave
    epsilon-sized ones), those fractions are exactly a [Fibbing.Requirements.t]
    that [Fibbing.Augmentation] can compile — this is the "Fibbing can
    implement the optimal solution" pipeline (experiment TOPT). *)

val to_requirements :
  Igp.Network.t ->
  prefix:Igp.Lsa.prefix ->
  ((Netgraph.Graph.node * Netgraph.Graph.node) * float) list ->
  Fibbing.Requirements.t
(** Requirements for the routers whose desired fractions differ from
    their current FIB by more than 1% (no point lying to a router that
    already behaves). Circular flow (which serves no demand) is cancelled
    first by repeatedly subtracting a cycle's bottleneck; each router's
    fractions are its outgoing flows normalized, those below 1e-6
    dropped and the rest renormalized. Routers that announce
    the prefix are skipped (their delivery is local). *)
