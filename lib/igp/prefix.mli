(** Parsed, validated destination prefixes.

    Replaces the seed's exact-match [string] prefixes with a real CIDR
    type: an IPv4 network address plus a mask length, packed into one
    immediate integer ([addr lsl 6 lor len]) so equality, ordering,
    hashing and table keys are allocation-free.

    Two construction paths exist:
    - {!of_string} parses and {e validates} canonical CIDR notation
      (["10.0.0.0/8"], ["192.168.1.7"] as a host route) and rejects
      malformed input with a precise reason — octet out of range,
      mask out of range, host bits set below the mask, trailing
      garbage;
    - the compatibility constructor {!v} additionally accepts the
      paper-style {e named} prefixes the existing topologies use
      (["blue"], ["cdn"], ["p07"]): a name is mapped deterministically
      (FNV-1a) to a synthetic host route in the reserved class-E block
      240.0.0.0/4 and remembered in a registry so {!to_string} prints
      the name back. Names never nest, so all seed behaviour is
      preserved bit-for-bit.

    The accessors {!addr}/{!len} are what {!Fib_trie} builds its
    compressed binary trie on. *)

type t = private int

val make : addr:int -> len:int -> t
(** [make ~addr ~len] packs a network address (32-bit, host bits below
    [len] must be zero) and a mask length in [0..32]. Raises
    [Invalid_argument] on violation. *)

val of_string : string -> (t, string) result
(** Strict parse: ["A.B.C.D/L"], ["A.B.C.D"] (host route), or a named
    prefix ([A-Za-z_][A-Za-z0-9_-]*, at most 255 bytes). The error
    names the offending token and the reason. *)

val v : string -> t
(** Compatibility constructor: {!of_string}, raising [Invalid_argument]
    with its error message. The one-word spelling used by scenarios,
    benches and tests. *)

val to_string : t -> string
(** The registered name for named prefixes, dotted-quad CIDR
    ("A.B.C.D/L") otherwise. Round-trips through {!of_string}. *)

val addr : t -> int
(** Network address as an unsigned 32-bit value. *)

val len : t -> int

val equal : t -> t -> bool

val first_addr : t -> int
(** Lowest address covered ([= addr t]). *)

val last_addr : t -> int
(** Highest address covered. *)

val synthesize : Kit.Prng.t -> n:int -> t list
(** Deterministic synthetic routing table: [n] distinct CIDR prefixes
    with production-like shape — a backbone of short prefixes plus
    Zipf-weighted nested subnets (popular aggregates spawn many
    more-specifics, as in real FIB dumps), lengths between /8 and /32.
    Used by [bench fib] and the trie property tests. *)
