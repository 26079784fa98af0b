(** Directed links and their capacities. *)

type t = Netgraph.Graph.node * Netgraph.Graph.node
(** A directed link [(u, v)]. The symmetric reverse direction is a
    distinct link with its own capacity and load. *)

val compare : t -> t -> int

val name : Netgraph.Graph.t -> t -> string
(** Renders "A-R1". *)

type capacities

val capacities : default:float -> capacities
(** Capacity table; links not explicitly set have capacity [default]
    (bytes/s). [default] must be positive. *)

val set_link : capacities -> t -> float -> unit
(** Override both directions' capacity. Must be positive. *)

val capacity : capacities -> t -> float
