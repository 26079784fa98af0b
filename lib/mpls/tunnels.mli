(** RSVP-TE tunnel state and overhead accounting.

    The paper (§2) contrasts Fibbing with "MPLS and RSVP-TE [which]
    introduce overhead on both the control and data planes, by
    establishing a potentially-high number of tunnels, encapsulating
    packets, and performing stateful uneven load-balancing". This module
    makes those overheads measurable:

    - control plane: Path/Resv messages at setup and soft-state refreshes
      (one Path + one Resv per hop per refresh period);
    - per-router state: every transit router keeps per-tunnel state;
    - data plane: every packet grows by the MPLS label stack, and the
      head end keeps per-tunnel flow-to-tunnel assignment state for
      unequal splitting. *)

type tunnel = {
  id : int;
  head : Netgraph.Graph.node;
  tail : Netgraph.Graph.node;
  path : Netgraph.Graph.node list;
  bandwidth : float;  (** Reserved, bytes/s. *)
}

type t

val create : Netgraph.Graph.t -> Netsim.Link.capacities -> t

val establish :
  t ->
  head:Netgraph.Graph.node ->
  tail:Netgraph.Graph.node ->
  bandwidth:float ->
  (tunnel, string) result
(** CSPF placement honouring existing reservations, reserving bandwidth,
    and accounting signaling (one Path + one Resv message per hop). *)

val signaling_messages : t -> int
(** Cumulative setup/teardown messages so far. *)

val refresh_messages : t -> period:float -> duration:float -> int
(** Soft-state refresh traffic for keeping the current tunnels up for
    [duration] seconds with the standard refresh [period] (30 s). *)

val total_state : t -> int

val encap_overhead_bytes :
  t -> packet_size:int -> label_bytes:int -> volume:float -> float
(** Extra bytes on the wire for [volume] bytes of payload carried through
    tunnels: one [label_bytes] MPLS shim per packet of [packet_size]. *)
