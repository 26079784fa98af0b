(** Link-state advertisements.

    We model the three LSA kinds that matter to Fibbing:
    - {b router LSAs}: a router's adjacencies and their costs, derived
      from the physical topology;
    - {b prefix LSAs}: a destination prefix announced by a real egress
      router at some external cost (OSPF type-5 with a real origin);
    - {b fake LSAs}: a forged stub node, attached to a real router at a
      chosen link cost, announcing one prefix at a chosen cost and
      carrying a forwarding-address mapping to a physical neighbor of the
      attachment router. This is the Fibbing "lie". *)

type prefix = Prefix.t
(** Destination prefixes are parsed CIDR values (see {!Prefix}); the
    paper's named prefixes ("blue") are synthetic host routes created
    through the {!Prefix.v} compatibility constructor. *)

type fake = {
  fake_id : string;  (** Unique identifier, e.g. ["fB"], ["fA#1"]. *)
  attachment : Netgraph.Graph.node;
      (** Real router the fake node hangs off. *)
  attachment_cost : int;  (** Cost of the (fake) link attachment->fake. *)
  prefix : prefix;  (** Prefix announced by the fake node. *)
  announced_cost : int;  (** Cost at which the fake announces the prefix. *)
  forwarding : Netgraph.Graph.node;
      (** Physical next hop of [attachment] that the fake route resolves
          to when installed in [attachment]'s FIB. Must be a neighbor of
          [attachment]. *)
}

type t =
  | Router of { origin : Netgraph.Graph.node; links : (Netgraph.Graph.node * int) list }
  | Prefix of { origin : Netgraph.Graph.node; prefix : prefix; cost : int }
  | Fake of fake

val total_cost : fake -> int
(** [attachment_cost + announced_cost]: the cost at which the attachment
    router reaches the prefix through this fake. *)

val max_age : float
(** OSPF's MaxAge (3600 s): the longest any LSA may live without being
    refreshed by its originator. [Lsdb] clamps fake-LSA lifetimes to it,
    so an orphaned lie always ages out — the safety net behind Fibbing's
    graceful-degradation argument (controller dies, lies expire, routers
    fall back to pure IGP shortest paths). *)

val pp : names:(Netgraph.Graph.node -> string) -> Format.formatter -> t -> unit
