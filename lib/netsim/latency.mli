(** Path latency estimation.

    The paper motivates Fibbing with interactive applications' "hard
    constraints on ... losses or delay". This module estimates per-flow
    one-way delay from the simulation state: per-link propagation
    (5 ms per IGP weight unit) plus an M/M/1-style queueing term that
    explodes as utilization approaches 1 — so decongesting a link
    visibly improves delay, not only throughput. *)

val mean_flow_delay_ms : Sim.t -> float
(** Mean one-way delay over all routed active flows; [0.] when none. A
    flow's delay sums, over its path's links, propagation (5 ms per IGP
    weight unit) and queueing at the link's present utilization: a
    0.12 ms mean service time (1500 B at 100 Mbps) over
    [1 - utilization], capped at 50 ms (a finite buffer). *)
