type alarm = { link : Link.t; utilization : float; raised : bool }

let m_polls = Obs.Metrics.counter "monitor.polls"
let m_alarms_raised = Obs.Metrics.counter "monitor.alarms_raised"
let m_alarms_cleared = Obs.Metrics.counter "monitor.alarms_cleared"

type t = {
  poll_interval : float;
  threshold : float;
  clear_threshold : float;
  alpha : float;
  capacities : Link.capacities;
  window_bytes : (Link.t, float) Hashtbl.t;
  smoothed : (Link.t, float) Hashtbl.t;
  alarmed : (Link.t, unit) Hashtbl.t;
  mutable last_poll : float;
  mutable mute_until : float;
      (* Fault injection: samples arriving before this time are lost. *)
  mutable sample_loss : (Kit.Prng.t * float) option;
      (* Fault injection: drop each per-link sample with probability p. *)
  mutable corruption : corruption option;
      (* Fault injection: scale surviving samples by a random factor. *)
}

and corruption = { c_prng : Kit.Prng.t; probability : float; gain : float }

(* A repeat poll inside this window is a no-op: the byte counters have
   not advanced, and dividing by a ~zero-length window would turn any
   residual bytes into an absurd utilization spike. *)
let min_window = 1e-6

let create ?(poll_interval = 2.0) ?(threshold = 0.9) ?(clear_threshold = 0.7)
    ?(alpha = 0.5) capacities =
  if poll_interval <= 0. then invalid_arg "Monitor.create: poll interval";
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Monitor.create: alpha must be in (0, 1]";
  if clear_threshold > threshold then
    invalid_arg "Monitor.create: clear_threshold must be <= threshold";
  {
    poll_interval;
    threshold;
    clear_threshold;
    alpha;
    capacities;
    window_bytes = Hashtbl.create 32;
    smoothed = Hashtbl.create 32;
    alarmed = Hashtbl.create 8;
    last_poll = 0.;
    mute_until = neg_infinity;
    sample_loss = None;
    corruption = None;
  }

let mute t ~until = t.mute_until <- max t.mute_until until

let set_sample_loss t loss =
  (match loss with
  | Some (_, p) when p < 0. || p >= 1. ->
    invalid_arg "Monitor.set_sample_loss: probability must be in [0, 1)"
  | Some _ | None -> ());
  t.sample_loss <- loss

let corruption ?(probability = 0.3) ?(gain = 2.0) ~seed () =
  if probability < 0. || probability >= 1. then
    invalid_arg "Monitor.corruption: probability must be in [0, 1)";
  if gain <= 0. then invalid_arg "Monitor.corruption: gain must be positive";
  { c_prng = Kit.Prng.create ~seed; probability; gain }

let set_corruption t c = t.corruption <- c

let observe t ~time ~dt rates =
  if time > t.mute_until then
    List.iter
      (fun (link, rate) ->
        let lost =
          match t.sample_loss with
          | Some (prng, p) -> Kit.Prng.float prng 1.0 < p
          | None -> false
        in
        if not lost then begin
          (* Corruption hits each surviving sample independently: the
             byte counter reads a uniform factor in [0, gain) of the
             truth — > 1 fabricates phantom congestion, < 1 is the
             stale/undercounting reading of a wedged SNMP agent. *)
          let rate =
            match t.corruption with
            | Some c when Kit.Prng.float c.c_prng 1.0 < c.probability ->
              rate *. Kit.Prng.float c.c_prng c.gain
            | Some _ | None -> rate
          in
          let bytes =
            Option.value ~default:0. (Hashtbl.find_opt t.window_bytes link)
          in
          Hashtbl.replace t.window_bytes link (bytes +. (rate *. dt))
        end)
      rates

let poll_due t ~time = time -. t.last_poll >= t.poll_interval -. 1e-9

let forget t link =
  Hashtbl.remove t.window_bytes link;
  Hashtbl.remove t.smoothed link;
  Hashtbl.remove t.alarmed link

let prune t ~alive =
  let dead table =
    Hashtbl.fold (fun link _ acc -> if alive link then acc else link :: acc) table []
  in
  List.iter (forget t) (dead t.smoothed);
  List.iter (forget t) (dead t.window_bytes);
  List.iter (forget t) (dead t.alarmed)

let poll t ~time =
  if time -. t.last_poll < min_window then []
  else begin
  let window = max 1e-9 (time -. t.last_poll) in
  t.last_poll <- time;
  (* Update the EWMA for every link ever observed; links silent this
     window decay towards 0. *)
  let update link =
    let bytes = Option.value ~default:0. (Hashtbl.find_opt t.window_bytes link) in
    let raw = bytes /. window /. Link.capacity t.capacities link in
    let prev = Option.value ~default:raw (Hashtbl.find_opt t.smoothed link) in
    Hashtbl.replace t.smoothed link (Kit.Stats.ewma ~alpha:t.alpha prev raw)
  in
  Hashtbl.iter (fun link _ -> update link) t.window_bytes;
  Hashtbl.iter
    (fun link _ ->
      if not (Hashtbl.mem t.window_bytes link) then update link)
    t.smoothed;
  Hashtbl.reset t.window_bytes;
  Obs.Metrics.incr m_polls;
  let alarms = ref [] in
  Hashtbl.iter
    (fun link utilization ->
      let was_alarmed = Hashtbl.mem t.alarmed link in
      if (not was_alarmed) && utilization > t.threshold then begin
        Hashtbl.replace t.alarmed link ();
        Obs.Metrics.incr m_alarms_raised;
        alarms := { link; utilization; raised = true } :: !alarms
      end
      else if was_alarmed && utilization < t.clear_threshold then begin
        Hashtbl.remove t.alarmed link;
        Obs.Metrics.incr m_alarms_cleared;
        alarms := { link; utilization; raised = false } :: !alarms
      end)
    t.smoothed;
  List.sort (fun a b -> Link.compare a.link b.link) !alarms
  end

let fold_utilizations t ~init f = Hashtbl.fold f t.smoothed init

let threshold t = t.threshold

let clear_threshold t = t.clear_threshold
