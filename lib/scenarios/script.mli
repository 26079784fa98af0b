(** A small scenario-description language.

    Experiments are line-oriented scripts — the textual equivalent of
    the paper's demo setup — executable from the CLI
    ([fibbingctl run script.fib]) or programmatically:

    {v
    # the paper's demo, scripted
    topology demo
    prefix blue at C
    capacity default 11534336
    capacity A-R1 2883584
    capacity B-R2 2883584
    capacity B-R3 2883584
    monitor poll 2 threshold 0.85 clear 0.6 alpha 0.8
    controller on
    track A-R1
    track B-R2
    track B-R3
    flows 1 from A to blue rate 131072 at 0
    flows 30 from A to blue rate 131072 at 15
    flows 31 from B to blue rate 131072 at 35
    run 55
    report series step 2.5
    report actions
    report qoe
    v}

    Other commands: [controller off | global], [model aimd] (TCP-like
    rate dynamics instead of instantaneous max-min fairness),
    [fail X-Y at T], [steer R to N1:F1,N2:F2 at T] (a manual lie,
    compiled and injected at time T), [report fibs], [report fakes],
    [report loads], [report latency], [report audit].

    Fault injection: [restore X-Y at T] (undo a [fail]),
    [crash R at T] / [recover R at T] (router crash and recovery),
    [controller crash at T] / [controller restart at T] (the restarted
    controller resyncs from surviving fake LSAs), [blackout D at T]
    (lose all monitor samples for D seconds) and
    [flooding loss P at T [duration D] [seed S]] (lossy LSA flooding
    with per-hop drop probability P).

    Sizes are bounded, so that no script can exhaust memory or run for
    days. Each limit is a named constant in [Script], checked at parse
    time; an error names the limit it exceeds:
    - [max_routers = 1000]: routers of a generated topology ([ring:N],
      [grid:R:C], [random:N:SEED], and [twolevel:CORES], which has three
      routers per core);
    - [max_time = 86400] (one simulated day): every time, [run]'s
      included;
    - [max_flows = 100000]: streams over all [flows] lines;
    - [min_series_step = 0.1]: the [report series] step, the resolution
      its time column prints.

    Lines are parsed eagerly (all errors carry their line number);
    execution is deterministic. *)

type command

val run_string : ?out:Format.formatter -> string -> (unit, string) result
(** Parse and run a whole script, writing [report] output to [out]
    (default the standard formatter). Unknown words, malformed numbers
    and numbers out of their command's range (non-finite values,
    negative times, non-positive rates, capacities, durations, poll
    periods and steps, a monitor [clear] above its [threshold] or an
    [alpha] outside (0, 1], a flooding [drop] outside \[0, 1), sizes
    above the limits, unknown topologies) are
    reported as ["line N: ..."] errors before anything runs; execution
    errors (unknown router names, events before the simulation's
    present, steers that fail to compile, ...) abort with a message. *)
