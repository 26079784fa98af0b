(** Playback-buffer models of video clients.

    The demo's observable is that "video playbacks are smooth when the
    Fibbing controller is in use and stutter when disabled". We replay
    the throughput a flow received during the simulation through a
    standard buffer model: downloaded bytes fill the buffer, playback
    drains it at the video bitrate once 2 seconds of content are
    available, and an empty buffer stalls playback until 2 seconds have
    re-accumulated.

    Two players share the model. The demo's streams play at a fixed
    1 Mbps (131072 bytes/s). Production players adapt their bitrate to
    the measured throughput: the adaptive player estimates throughput
    with an EWMA (weight 0.3 on each new sample), picks the highest
    {!abr_ladder} rung under 0.85 x estimate, and only switches up with
    at least 8 s buffered. It quantifies a second benefit of Fibbing in
    the demo scenario: without load balancing, clients do not just
    stall — they also get pushed down the ladder. *)

type result = {
  startup_delay : float;  (** Wall time until playback began. *)
  stall_count : int;  (** Playback interruptions after startup. *)
  stall_time : float;  (** Total seconds spent stalled (after startup). *)
  played : float;  (** Seconds of content played. *)
  smooth : bool;  (** Started within 4 s and never stalled. *)
  mean_bitrate : float;  (** Play-time-weighted mean bitrate, bytes/s. *)
  switches : int;  (** Bitrate changes after startup. *)
  time_at_top : float;  (** Seconds played at the highest rung. *)
}

type trace = {
  duration : float;  (** Seconds of video to play. *)
  samples : (float * float) list;
      (** Step-wise throughput, (time, bytes/s); each sample holds for
          [dt] seconds. *)
}

val trace : Netsim.Sim.t -> Netsim.Flow.t -> trace
(** A simulated flow's recorded throughput ([Netsim.Sim.flow_series]);
    the video duration is the flow's duration, capped at the simulated
    horizon. *)

val replay : dt:float -> trace -> result
(** Play the trace's video through the buffer model at the fixed rate.
    The replay stops when the content is fully played or the samples run
    out. Raises [Invalid_argument] when [dt <= 0]. *)

val abr_ladder : float list
(** The adaptive player's bitrates, ascending, in bytes/s: 350 kbps,
    1 Mbps and 3 Mbps. *)

val replay_abr : dt:float -> trace -> result
(** Like {!replay}, through the adaptive player. *)
