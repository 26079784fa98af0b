type result = {
  startup_delay : float;
  stall_count : int;
  stall_time : float;
  played : float;
  smooth : bool;
  mean_bitrate : float;
  switches : int;
  time_at_top : float;
}

type trace = { duration : float; samples : (float * float) list }

let trace sim (flow : Netsim.Flow.t) =
  {
    duration = min flow.duration (Netsim.Sim.time sim -. flow.start_time);
    samples = Kit.Timeseries.samples (Netsim.Sim.flow_series sim flow.id);
  }

(* Seconds of content buffered before playback starts and before it
   resumes after a stall. *)
let startup_buffer = 2.
let resume_buffer = 2.

(* The adaptive player's ladder (350 kbps, 1 Mbps, 3 Mbps); the share of
   the throughput estimate a rung may use; the buffer needed to switch
   up; the EWMA weight of a new throughput sample. *)
let abr_rungs = [| 44800.; 131072.; 393216. |]
let abr_ladder = Array.to_list abr_rungs
let safety = 0.85
let switch_up_buffer = 8.
let estimate_alpha = 0.3

type phase = Starting | Playing | Stalled

(* Highest rung affordable under the safety-discounted estimate, subject
   to the buffer gate for upward switches. *)
let select rungs ~current ~estimate ~buffer =
  let affordable = safety *. estimate in
  let best = ref 0 in
  Array.iteri (fun i rate -> if rate <= affordable then best := i) rungs;
  if !best > current && buffer < switch_up_buffer then current else !best

(* The buffer model, playing each sample's download at the rung chosen
   for it. A one-rung ladder is a fixed-rate player. *)
let play rungs ~dt { duration; samples } =
  if dt <= 0. then invalid_arg "Client.replay: dt";
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
  let estimate = ref rungs.(0) in
  let top = Array.length rungs - 1 in
  let finished () = !played >= duration -. 1e-9 in
  List.iter
    (fun (_, rate) ->
      if not (finished ()) then begin
        estimate := Kit.Stats.ewma ~alpha:estimate_alpha !estimate rate;
        let choice =
          select rungs ~current:!rung ~estimate:!estimate ~buffer:!buffer
        in
        if choice <> !rung && !phase <> Starting then incr switches;
        rung := choice;
        let bitrate = rungs.(!rung) in
        (* Play up to [dt] seconds of what is buffered; how much. *)
        let drain () =
          let play = min dt !buffer in
          played := !played +. play;
          weighted_bitrate := !weighted_bitrate +. (play *. bitrate);
          if !rung = top then time_at_top := !time_at_top +. play;
          buffer := !buffer -. play;
          play
        in
        (* Download: the rate buys rate/bitrate seconds of content, and
           the server never sends more than the video. *)
        let content_left = duration -. !played -. !buffer in
        let downloaded = min (rate *. dt /. bitrate) (max 0. content_left) in
        buffer := !buffer +. downloaded;
        let fully_buffered = duration -. !played -. !buffer <= 1e-9 in
        (match !phase with
        | Starting ->
          if !buffer >= startup_buffer || fully_buffered then begin
            phase := Playing;
            startup_delay := !elapsed
          end
          else startup_delay := !elapsed +. dt
        | Playing ->
          let play = drain () in
          if play < dt -. 1e-9 && not (finished ()) then begin
            phase := Stalled;
            incr stall_count;
            stall_time := !stall_time +. (dt -. play)
          end
        | Stalled ->
          if !buffer >= resume_buffer then begin
            phase := Playing;
            ignore (drain ())
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
    smooth =
      !stall_count = 0 && !phase <> Starting
      && !startup_delay <= 2. *. startup_buffer;
    mean_bitrate = (if !played > 0. then !weighted_bitrate /. !played else 0.);
    switches = !switches;
    time_at_top = !time_at_top;
  }

(* The demo's videos: a fixed 1 Mbps. *)
let fixed_rung = [| 131072. |]

let replay ~dt trace = play fixed_rung ~dt trace

let replay_abr ~dt trace = play abr_rungs ~dt trace
