(** Fork/join worker pool over OCaml 5 domains.

    The library's one parallel section is the chaos seed sweep
    ([Scenarios.Chaos.sweep]), one scenario per domain; everything else
    runs on the calling domain.

    A pool is a concurrency budget, not a set of live threads: every
    [map] call spawns up to [domains - 1] helper domains, has the
    calling domain participate too, and joins all helpers before
    returning. Work items are claimed from a shared atomic cursor in
    chunks (one fetch-and-add per ~[n / (domains * 8)] items), so uneven
    per-item cost balances automatically while small batches pay almost
    no atomic contention.

    The body [f] runs concurrently with itself on different indices. It
    must only touch shared state that is safe under that: read-only
    structures built before the call, writes to disjoint slots of a
    pre-allocated array, or [Atomic]/domain-safe cells (the {!Obs}
    registry qualifies). *)

type t

val create : ?domains:int -> unit -> t
(** [create ()] sizes the pool to {!default_domain_count}. [domains]
    overrides it; values below 1 are clamped to 1 (purely
    sequential). *)

val default_domain_count : unit -> int
(** The width [create] uses when [?domains] is absent: the
    {!set_default_domains} override if set, else the FIBBING_DOMAINS
    environment variable, else [Domain.recommended_domain_count ()].
    Raises [Invalid_argument] naming the variable and its value when
    FIBBING_DOMAINS is set to anything but a positive integer. *)

val set_default_domains : int option -> unit
(** Process-wide default width override, for every pool subsequently
    created without an explicit [?domains]. [Some d] clamps
    [d] to at least 1; [None] restores the environment/runtime
    default. Existing pools are unaffected. *)

val map : t -> n:int -> (int -> 'a) -> 'a array
(** [map t ~n f] runs [f i] for every [i] in [0, n), fanned across the
    pool's domains, and returns the results in index order. Returns once
    every index has been claimed and all helper domains have been
    joined.

    On exception: if any call to [f] raises, the first captured
    exception is re-raised on the caller after all helpers are joined,
    and no partially-filled result escapes. Other participants stop at
    their next chunk boundary, so an arbitrary subset of the remaining
    indices may or may not have run [f]. *)
