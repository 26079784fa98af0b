type t = {
  id : int;
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  demand : float;
  start_time : float;
  duration : float;
}

let validate t =
  (* Each check is written so that NaN fails it. *)
  if not (t.demand > 0.) then invalid_arg "Flow: demand must be positive";
  if not (t.start_time >= 0.) then invalid_arg "Flow: start time must be non-negative";
  if not (t.duration > 0.) then invalid_arg "Flow: duration must be positive"

let make ~id ~src ~prefix ~demand ?(start_time = 0.) ?(duration = infinity) () =
  let t = { id; src; prefix; demand; start_time; duration } in
  validate t;
  t

let end_time t = t.start_time +. t.duration
