(** Traffic flows.

    A flow is a long-lived transport session (a video stream in the
    paper's demo) entering the network at an ingress router and destined
    to an IGP prefix. [demand] caps its rate (the video bitrate); the
    fluid allocator may give it less under congestion. *)

type t = {
  id : int;  (** Unique; also the ECMP hash input. *)
  src : Netgraph.Graph.node;  (** Ingress router. *)
  prefix : Igp.Lsa.prefix;
  demand : float;  (** Rate cap, bytes/s. Positive. *)
  start_time : float;
  duration : float;  (** [infinity] for open-ended flows. *)
}

val make :
  id:int ->
  src:Netgraph.Graph.node ->
  prefix:Igp.Lsa.prefix ->
  demand:float ->
  ?start_time:float ->
  ?duration:float ->
  unit ->
  t
(** Defaults: [start_time = 0.], [duration = infinity]. Raises as
    {!validate} does. *)

val validate : t -> unit
(** Raises [Invalid_argument] on a non-positive or NaN demand or
    duration, and on a negative or NaN start time. [make] runs it, and
    so does [Sim.add_flow], since a record update bypasses [make]. *)

val end_time : t -> float
