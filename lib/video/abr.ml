type config = {
  ladder : float array;
  startup_buffer : float;
  resume_buffer : float;
  safety : float;
  switch_up_buffer : float;
  estimate_alpha : float;
}

let default_config =
  {
    ladder = [| 44800.; 131072.; 393216. |] (* 350 kbps, 1 Mbps, 3 Mbps *);
    startup_buffer = 2.;
    resume_buffer = 2.;
    safety = 0.85;
    switch_up_buffer = 8.;
    estimate_alpha = 0.3;
  }

type result = {
  startup_delay : float;
  stall_count : int;
  stall_time : float;
  played : float;
  mean_bitrate : float;
  switches : int;
  time_at_top : float;
}

type phase = Starting | Playing | Stalled

let validate config =
  if Array.length config.ladder = 0 then invalid_arg "Abr.replay: empty ladder";
  let sorted = Array.copy config.ladder in
  Array.sort compare sorted;
  if sorted <> config.ladder then invalid_arg "Abr.replay: ladder must ascend";
  Array.iter (fun r -> if r <= 0. then invalid_arg "Abr.replay: bitrate <= 0")
    config.ladder

(* Highest rung affordable under the safety-discounted estimate, subject
   to the buffer gate for upward switches. *)
let select config ~current ~estimate ~buffer =
  let affordable = config.safety *. estimate in
  let best = ref 0 in
  Array.iteri
    (fun i rate -> if rate <= affordable then best := i)
    config.ladder;
  if !best > current && buffer < config.switch_up_buffer then current
  else !best

let replay ?(config = default_config) ~dt { Client.duration; samples } =
  validate config;
  if dt <= 0. then invalid_arg "Abr.replay: dt";
  let buffer = ref 0. in
  let played = ref 0. in
  let weighted_bitrate = ref 0. in
  let time_at_top = ref 0. in
  let switches = ref 0 in
  let phase = ref Starting in
  let startup_delay = ref 0. in
  let stall_count = ref 0 in
  let stall_time = ref 0. in
  let elapsed = ref 0. in
  let rung = ref 0 in
  let estimate = ref config.ladder.(0) in
  let top = Array.length config.ladder - 1 in
  let finished () = !played >= duration -. 1e-9 in
  List.iter
    (fun (_, rate) ->
      if not (finished ()) then begin
        estimate :=
          Kit.Stats.ewma ~alpha:config.estimate_alpha !estimate rate;
        let choice =
          select config ~current:!rung ~estimate:!estimate ~buffer:!buffer
        in
        if choice <> !rung && !phase <> Starting then incr switches;
        rung := choice;
        let bitrate = config.ladder.(!rung) in
        (* Download: the rate buys rate/bitrate seconds of content. *)
        let content_left = duration -. !played -. !buffer in
        let downloaded = min (rate *. dt /. bitrate) (max 0. content_left) in
        buffer := !buffer +. downloaded;
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
          weighted_bitrate := !weighted_bitrate +. (play *. bitrate);
          if !rung = top then time_at_top := !time_at_top +. play;
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
            weighted_bitrate := !weighted_bitrate +. (play *. bitrate);
            if !rung = top then time_at_top := !time_at_top +. play;
            buffer := !buffer -. play
          end
          else stall_time := !stall_time +. dt);
        elapsed := !elapsed +. dt
      end)
    samples;
  {
    startup_delay = !startup_delay;
    stall_count = !stall_count;
    stall_time = !stall_time;
    played = !played;
    mean_bitrate = (if !played > 0. then !weighted_bitrate /. !played else 0.);
    switches = !switches;
    time_at_top = !time_at_top;
  }
