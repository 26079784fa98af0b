(** Fluid (fractional) traffic propagation.

    Where the event simulation ([Sim]) tracks individual hashed flows,
    [Loadmap] answers the aggregate question behind the paper's Fig. 1b
    and 1d: given per-ingress traffic volumes towards each prefix, and the
    routers' FIB splitting fractions, what load lands on every link? The
    traffic is treated as an infinitely divisible fluid split exactly
    according to FIB multiplicities at every hop. *)

type demand = {
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  amount : float;  (** Offered volume, arbitrary rate units. *)
}

exception Forwarding_loop of Igp.Lsa.prefix
(** Raised when the per-prefix forwarding graph contains a cycle through a
    loaded router (possible with inconsistent fake injections). *)

exception Unreachable of Igp.Lsa.prefix
(** Raised when a demand's ingress cannot reach its prefix. *)

type t

val propagate : Igp.Network.t -> demand list -> t
(** Push every demand through the current FIBs. *)

val loads : t -> (Link.t * float) list
(** All links with non-zero load, sorted by link. *)

val max_utilization : t -> Link.capacities -> (Link.t * float) option
(** The loaded link with the highest load/capacity ratio. *)

val pp : Netgraph.Graph.t -> Format.formatter -> t -> unit
(** Table of loaded links, descending load. *)
