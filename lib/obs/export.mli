(** Standard exporters: Chrome trace-event JSON and OpenMetrics text.

    These render the in-memory telemetry into formats off-the-shelf
    tools understand — [chrome_trace_live] loads in Perfetto / chrome://
    tracing, [open_metrics] is scraped by Prometheus-compatible
    collectors. Both are pure renderers over data already collected;
    they never touch the switches or the rings' contents. *)

val chrome_trace_live : unit -> string
(** A complete trace-event JSON document over the live rings:
    [{"traceEvents":[...],"displayTimeUnit":"ms"}]. Spans become
    ["ph":"X"] complete events on the thread lane of the domain that
    ran them (so nesting renders per domain), timeline events become
    thread-scoped instants (["ph":"i"]); timestamps are the span/event
    clock converted to microseconds. Metadata events name the process
    and each domain lane. Events are sorted by timestamp then sequence
    number. *)

val open_metrics : unit -> string
(** The metrics registry as OpenMetrics text exposition: sorted
    families with [# TYPE] headers, counter samples suffixed [_total],
    histograms as cumulative [_bucket{le="..."}] samples (explicit
    bounds plus [+Inf]) with [_sum]/[_count], terminated by [# EOF].
    Metric names are sanitized (every character outside
    [[a-zA-Z0-9_:]] becomes [_]). *)
