(** Adaptive-bitrate (ABR) client.

    The demo streams fixed-rate videos; production players adapt their
    bitrate to the measured throughput. This client runs a standard
    hybrid rate/buffer heuristic over a simulated flow's throughput
    history: it estimates throughput with an EWMA, picks the highest
    ladder rung under [safety] x estimate, and only switches up when the
    buffer is comfortable. It quantifies a second benefit of Fibbing in
    the demo scenario: without load balancing, clients do not just
    stall — they also get pushed down the ladder. *)

type config = {
  ladder : float array;
      (** Available bitrates, ascending, bytes/s. Must be non-empty. *)
  startup_buffer : float;  (** Seconds of content before playback starts. *)
  resume_buffer : float;  (** Seconds to resume after a stall. *)
  safety : float;  (** Fraction of estimated throughput to spend (0.85). *)
  switch_up_buffer : float;
      (** Minimum buffered seconds before switching up (8 s). *)
  estimate_alpha : float;  (** EWMA weight of new throughput samples. *)
}

val default_config : config
(** Ladder 350 kbps / 1 Mbps / 3 Mbps (in bytes/s), 2 s startup and
    resume, safety 0.85, switch-up at 8 s buffered, alpha 0.3. *)

type result = {
  startup_delay : float;
  stall_count : int;
  stall_time : float;
  played : float;  (** Seconds of content played. *)
  mean_bitrate : float;  (** Play-time-weighted mean bitrate, bytes/s. *)
  switches : int;  (** Bitrate changes after startup. *)
  time_at_top : float;  (** Seconds played at the highest rung. *)
}

val replay : ?config:config -> dt:float -> Client.trace -> result
(** Like [Client.replay], through the adaptive player. *)
