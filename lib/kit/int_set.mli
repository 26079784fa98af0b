(** A set of ints that only grows, stored unboxed.

    Members are grouped in blocks of 32 consecutive ints: a block is a
    key ([x asr 5]) and a 32-bit mask of its members, kept in two
    [int array]s under open addressing with linear probing, at most
    half full. A block costs four to eight words, whatever it holds, so
    a run of consecutive ids (what every flow-id generator hands out)
    costs about 0.1 to 0.25 word per id, while ids spaced 32 or more
    apart cost four to eight words each. The GC never scans a boxed
    binding for a member. Every int is a valid member, [min_int] and
    [max_int] included. There is no removal: the simulator uses it for
    the ids that may never be added again. *)

type t

val create : unit -> t

val add : t -> int -> unit

val mem : t -> int -> bool
