type config = {
  bitrate : float;
  startup_buffer : float;
  resume_buffer : float;
}

let default_config = { bitrate = 131072.; startup_buffer = 2.; resume_buffer = 2. }

type result = {
  startup_delay : float;
  stall_count : int;
  stall_time : float;
  played : float;
  smooth : bool;
}

type trace = { duration : float; samples : (float * float) list }

type phase = Starting | Playing | Stalled

let replay ?(config = default_config) ~dt { duration; samples } =
  if config.bitrate <= 0. then invalid_arg "Client.replay: bitrate";
  if dt <= 0. then invalid_arg "Client.replay: dt";
  let buffer = ref 0. (* seconds of content buffered *) in
  let played = ref 0. in
  let phase = ref Starting in
  let startup_delay = ref 0. in
  let stall_count = ref 0 in
  let stall_time = ref 0. in
  let elapsed = ref 0. in
  let finished () = !played >= duration -. 1e-9 in
  List.iter
    (fun (_, rate) ->
      if not (finished ()) then begin
        (* Download first: the server never sends more than the video. *)
        let content_left = duration -. !played -. !buffer in
        let downloaded = min (rate *. dt /. config.bitrate) content_left in
        buffer := !buffer +. max 0. downloaded;
        let fully_buffered = duration -. !played -. !buffer <= 1e-9 in
        (match !phase with
        | Starting ->
          if !buffer >= config.startup_buffer || fully_buffered then begin
            phase := Playing;
            startup_delay := !elapsed
          end
          else startup_delay := !elapsed +. dt
        | Playing ->
          let play = min dt !buffer in
          played := !played +. play;
          buffer := !buffer -. play;
          if play < dt -. 1e-9 && not (finished ()) then begin
            phase := Stalled;
            incr stall_count;
            stall_time := !stall_time +. (dt -. play)
          end
        | Stalled ->
          if !buffer >= config.resume_buffer then begin
            phase := Playing;
            let play = min dt !buffer in
            played := !played +. play;
            buffer := !buffer -. play
          end
          else stall_time := !stall_time +. dt);
        elapsed := !elapsed +. dt
      end)
    samples;
  let smooth =
    !stall_count = 0
    && !phase <> Starting
    && !startup_delay <= 2. *. config.startup_buffer
  in
  {
    startup_delay = !startup_delay;
    stall_count = !stall_count;
    stall_time = !stall_time;
    played = !played;
    smooth;
  }

let trace sim (flow : Netsim.Flow.t) =
  {
    duration = min flow.duration (Netsim.Sim.time sim -. flow.start_time);
    samples = Kit.Timeseries.samples (Netsim.Sim.flow_series sim flow.id);
  }
