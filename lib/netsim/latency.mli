(** Path latency estimation.

    The paper motivates Fibbing with interactive applications' "hard
    constraints on ... losses or delay". This module estimates per-flow
    one-way delay from the simulation state: per-link propagation
    (derived from the IGP weight, one weight unit ~ [ms_per_weight]) plus
    an M/M/1-style queueing term that explodes as utilization approaches
    1 — so decongesting a link visibly improves delay, not only
    throughput. *)

type config = {
  ms_per_weight : float;  (** Propagation ms per IGP weight unit (5.). *)
  service_ms : float;
      (** Mean packet service time at an idle link (0.12 ms ~ 1500 B at
          100 Mbps). *)
  max_queue_ms : float;
      (** Cap on the queueing term as utilization -> 1 (50 ms,
          modelling a finite buffer). *)
}

val mean_flow_delay_ms : ?config:config -> Sim.t -> float
(** Mean one-way delay over all routed active flows; [0.] when none. A
    flow's delay sums, over its path's links, propagation
    ([ms_per_weight] per IGP weight unit) and queueing at the link's
    present utilization. The default config is 5 ms per weight unit,
    0.12 ms service and a 50 ms queueing cap. *)
