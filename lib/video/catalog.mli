(** Content catalog with Zipf popularity and composite day-scale
    workloads.

    Flash crowds are popularity anomalies on top of ordinary demand:
    "a sudden surge of traffic due to content shared over social
    networks" (§1). This module generates that background: a catalog of
    videos with Zipf-distributed request popularity, a diurnal arrival
    rate, and superimposed surges pinned to one item — the workload used
    by the day-in-the-life example. *)

type item = {
  rank : int;  (** 1 = most popular. *)
  rate : float;  (** Stream bitrate, bytes/s. *)
  duration : float;  (** Video length, seconds. *)
}

val catalog : size:int -> rate:float -> duration:float -> item list
(** A uniform-encoding catalog of [size] items. *)

type surge = {
  at : float;  (** Start time, s. *)
  length : float;  (** Surge duration, s. *)
  boost : float;  (** Multiplier on the arrival rate during the surge. *)
  item_rank : int;  (** Every surge request hits this item. *)
}

val day :
  Kit.Prng.t ->
  src:Netgraph.Graph.node ->
  prefix:Igp.Lsa.prefix ->
  catalog:item list ->
  base_rate_per_s:float ->
  horizon:float ->
  surges:surge list ->
  first_id:int ->
  Netsim.Flow.t list
(** Poisson background arrivals at [base_rate_per_s] with Zipf(1) item
    choice over the catalog's ranks, plus the surges: during a surge the arrival process gains
    [boost] x [base_rate_per_s] extra arrivals, all requesting
    [item_rank]. Flow demands and durations come from the chosen item.
    Deterministic given the PRNG. *)
