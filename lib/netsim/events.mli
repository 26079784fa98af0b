(** Time-ordered event queue for the discrete-event simulator.

    Scheduled events wait in a buffer. The next {!drain} sorts them once
    (a stable radix sort on the times' bit patterns) into a sorted run,
    and hands out due events by advancing a cursor over the runs.

    Contract:
    - events drain in time order, and equal times drain in scheduling
      order ([0.] and [-0.] are equal times);
    - events the function schedules during a drain wait for the next
      drain, even when they are due;
    - a drain never re-sorts or re-merges the whole backlog because a
      few events arrived: each drain sorts only the events scheduled
      since the last one, into a run of their own, which is merged only
      into a run holding at most twice as many pending events;
    - no event stays reachable from the queue once a drain has handed it
      out. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** O(1) amortized, with no sift. Times may be scheduled in any order;
    negative and NaN times are rejected with [Invalid_argument]. *)

val is_empty : 'a t -> bool
(** Whether no event is pending. O(1). *)

val drain : 'a t -> time:float -> ('a -> unit) -> unit
(** Remove every event with timestamp [<= time], in the order above,
    calling the function on each after it left the queue. Allocates
    only when it sorts the events scheduled since the last drain and
    when it finishes a run; a drain of an already sorted run allocates
    nothing. *)
