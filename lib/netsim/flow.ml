type t = {
  id : int;
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  demand : float;
  start_time : float;
  duration : float;
}

let make ~id ~src ~prefix ~demand ?(start_time = 0.) ?(duration = infinity) () =
  (* Each check is written so that NaN fails it. *)
  if not (demand > 0.) then invalid_arg "Flow.make: demand must be positive";
  if not (start_time >= 0.) then
    invalid_arg "Flow.make: start time must be non-negative";
  if not (duration > 0.) then
    invalid_arg "Flow.make: duration must be positive";
  { id; src; prefix; demand; start_time; duration }

let end_time t = t.start_time +. t.duration
