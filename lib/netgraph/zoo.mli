(** Real-world research topologies.

    Hand-encoded approximations of classic backbone networks, with
    weights in small integer latency classes (1 = metro, 2 = regional,
    3 = cross-country legs). Used by the extended benchmarks so the
    scaling and optimality experiments run on recognizable networks
    rather than only synthetic ones. *)

type entry = {
  name : string;
  graph : Graph.t;
  description : string;
}

val geant : unit -> entry
(** GEANT-like pan-European research network (22 nodes, 36 links),
    simplified from the public 2004 map. *)

val all : unit -> entry list
(** Abilene / Internet2 (11 PoPs, 14 links), the 1991 NSFNET T1 backbone
    (14 nodes, 21 links) and {!geant}, in that order. *)

val find : string -> entry option
(** Case-insensitive lookup by name. *)
