(** Playback-buffer model of a video client.

    The demo's observable is that "video playbacks are smooth when the
    Fibbing controller is in use and stutter when disabled". We replay
    the throughput a flow received during the simulation through a
    standard buffer model: downloaded bytes fill the buffer, playback
    drains it at the video bitrate once [startup_buffer] seconds of
    content are available, and an empty buffer stalls playback until
    [resume_buffer] seconds have re-accumulated. *)

type config = {
  bitrate : float;  (** Video encoding rate, bytes/s. *)
  startup_buffer : float;  (** Seconds of content before playback starts. *)
  resume_buffer : float;  (** Seconds of content to resume after a stall. *)
}

type result = {
  startup_delay : float;  (** Wall time until playback began. *)
  stall_count : int;  (** Playback interruptions after startup. *)
  stall_time : float;  (** Total seconds spent stalled (after startup). *)
  played : float;  (** Seconds of content played. *)
  smooth : bool;  (** Started within 2x startup_buffer and never stalled. *)
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

val replay : ?config:config -> dt:float -> trace -> result
(** Play the trace's video through the buffer model (default config: a
    1 Mbps video, 131072 bytes/s, 2 s startup, 2 s resume). The replay
    stops when the content is fully played or the samples run out. *)
