(** The simulator's active flows, their hashed paths and their classes.

    {!Sim} owns the clock, the event queues, faults, hooks and
    histories; this module owns what a flow is between its start and its
    stop.

    - {b Slots.} An active flow lives in a slot: a few arrays indexed
      together, sized to peak concurrency rather than to the flows ever
      added. A flow takes a slot when its start drains and gives it back
      to a free list (a stack, so the next start reuses it) at its stop.
      {!Sim} drops the arrays ({!release_slots}) once no flow is active
      or scheduled.
      Its {!life}, the one record made when the flow is added, is
      scheduled for both events and carries the slot from one to the
      other, so the stop finds its slot without a lookup.
    - {b Routes.} A flow resolves its destination to the announced
      prefix governing it once, at its start, through a cache keyed by
      the LSDB version. Each governing prefix has one route record:
      the routing pass's row cache for it (an array over routers,
      stamped with the pass) and its live classes by source.
    - {b Classes.} Flows sharing (source, prefix, demand, hashed path)
      form one class, a weighted group of the water-fill. A walk that
      reproduces a live class's path joins it without building a list.
      A class records its member count and its smallest member id; when
      that member leaves, the id goes stale until the next
      {!demand_matrix}, which recomputes every stale one in one pass
      over the slots. *)

type t

type life
(** A flow from its addition to its stop. *)

val life : Flow.t -> life

val started : life -> bool
(** Whether the flow holds a slot: its next event is its stop. *)

val create : aggregate:bool -> Igp.Network.t -> t
(** [aggregate] collapses identical flows into one class; without it,
    every flow is a class of its own. *)

val start : t -> life -> Flow.t
(** Give the flow a slot, to be placed by the next {!place_starts}.
    Returns it as it runs: carrying its governing prefix. *)

val stop : t -> life -> int
(** Take the flow out of its class and free its slot; returns its id. A
    flow stopped before its first placement frees its slot at the next
    {!place_starts}. *)

(** {2 Routing passes}

    A pass reads each (router, prefix) row at most once, through
    [read]; it starts with {!new_pass}, re-walks what may have moved,
    then places the starts. *)

val new_pass : t -> read:(Netgraph.Graph.node -> Igp.Lsa.prefix -> Igp.Fib.t option) -> unit

val rewalk_all : t -> unit
(** Re-derive every active flow's path, in slot order. *)

val rewalk_dirty : t -> Igp.Spf_engine.dirt list -> unit
(** Re-derive the paths of the flows whose classes cross a row in the
    dirt, and of every unroutable flow, in slot order. *)

val release_slots : t -> unit
(** Drop the slot arrays, and the id index, when no flow holds a slot
    or awaits placement; otherwise do nothing. The next start grows
    them again from nothing. *)

val place_starts : t -> bool
(** Place the flows started since the last pass, in arrival order;
    [true] when there were any. *)

(** {2 Rates} *)

val allocate_max_min : t -> Link.capacities -> unit

val allocate_aimd : t -> Aimd.t -> dt:float -> Link.capacities -> unit

val link_loads : t -> (Link.t, float) Hashtbl.t
(** Per-link throughput at the last allocation. *)

(** {2 Queries} (see {!Sim}) *)

val live : t -> int

val flows : t -> Flow.t list
(** Sorted by id. *)

val iter_rates : t -> (int -> float -> unit) -> unit
(** Every active flow's id and rate, in slot order. *)

val prefixes : t -> Igp.Lsa.prefix list

val flow_rate : t -> int -> float

val flow_path : t -> int -> Netgraph.Graph.node list option

val unroutable_flows : t -> int list

val class_count : t -> int

type demand = {
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  path : Netgraph.Graph.node list option;
  amount : float;
}

val demand_matrix : t -> demand list
