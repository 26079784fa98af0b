(** Topology builders used throughout the tests, examples and benchmarks.

    [demo] is the exact network of the paper's Fig. 1a; the others provide
    the parameterized families used by the scalability experiments
    (TSCALE, TOVH, TOPT in DESIGN.md). *)

type demo = {
  graph : Graph.t;
  a : Graph.node;
  b : Graph.node;
  r1 : Graph.node;
  r2 : Graph.node;
  r3 : Graph.node;
  r4 : Graph.node;
  c : Graph.node;
}

val demo : unit -> demo
(** The paper's Fig. 1a network: routers A, B, R1–R4, C with link weights
    A–B = 1, A–R1 = 2, B–R2 = 1, B–R3 = 1, R2–C = 1, R3–C = 2, R1–R4 = 1,
    R4–C = 2 (see DESIGN.md for the weight reconstruction). The blue
    destination prefix of the paper is attached at C by the IGP layer. *)

val ring : n:int -> Graph.t
(** n >= 3 nodes in a cycle, unit weights. *)

val grid : rows:int -> cols:int -> Graph.t
(** rows x cols mesh, unit weights; node names "Nr_c". *)

val random :
  Kit.Prng.t -> n:int -> extra_edges:int -> max_weight:int -> Graph.t
(** Connected random graph: a random spanning tree plus [extra_edges]
    uniformly random additional links, weights uniform in
    [\[1, max_weight\]]. Deterministic given the PRNG state. *)

val two_level :
  Kit.Prng.t -> core:int -> edge_per_core:int -> Graph.t
(** ISP-like two-level topology: a well-meshed core ring with chords, and
    [edge_per_core] stub "edge" routers attached to each core node —
    the kind of network the paper's ISP scenario targets. *)
