(** A set of ints that only grows, stored unboxed.

    Open addressing with linear probing over one [int array] kept at
    most half full, so a member costs two to four words and the GC
    never scans a boxed binding for it. Every int is a valid member, [min_int]
    included. There is no removal: the simulator uses it for the ids
    that may never be added again. *)

type t

val create : unit -> t

val add : t -> int -> unit

val mem : t -> int -> bool
