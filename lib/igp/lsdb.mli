(** Link-state database shared by all routers.

    A single LSDB instance models the (converged) flooded state of the
    IGP domain: router LSAs are derived from the physical topology graph;
    prefix and fake LSAs are installed explicitly. Each change bumps a
    version.

    The LSDB only stores LSAs; routes are computed from them by {!Spf}
    in two stages (SPF over the physical graph, then per-prefix
    candidates: real announcers and fakes).

    Beyond the version counter, the LSDB keeps a bounded log of the
    structural deltas behind recent version bumps. Incremental consumers
    ([Spf_engine]) use it to dirty only the routers a change can affect;
    when the log cannot answer (overflow, or a change with no precise
    description) they fall back to recomputing everything, so the log is
    purely an optimisation channel. *)

type t

type delta =
  | Fake_delta of {
      attachment : Netgraph.Graph.node;
      cost : int;
          (** {!Lsa.total_cost}: the cost at which the attachment reaches
              the prefix through the fake. *)
      prefix : Lsa.prefix;
    }  (** A fake LSA appeared or disappeared (same dirty test either way). *)
  | Weight_delta of {
      u : Netgraph.Graph.node;
      v : Netgraph.Graph.node;
      old_weight : int;
      new_weight : int;
    }  (** One physical edge changed weight (both directions untouched —
           a delta describes one directed edge [u -> v]). *)
  | Generic_delta
      (** Anything else (prefix announcement, external graph surgery);
          consumers must assume every route changed. *)

val create : Netgraph.Graph.t -> t
(** The LSDB reads the physical graph lazily: weight changes made to the
    graph afterwards are picked up after a call to [touch]. *)

val base_graph : t -> Netgraph.Graph.t

val clone : t -> Netgraph.Graph.t -> t
(** [clone t g] is an LSDB over [g] (a copy of [t]'s base graph) with
    what replaying [t]'s announcements through {!announce_prefix} and
    then its fakes through {!install_fake} would leave: the same
    announcements and fakes in the same order, one version per LSA, no
    fake expiries. The clone shares [t]'s announcements by reference
    until either side announces again (that side copies them first,
    once, in O(announcements)) and [t]'s immutable fake list; the cost
    is constant in the announcements and linear in the fakes. Its delta
    log starts empty at that version. *)

val announce_prefix : t -> Lsa.prefix -> origin:Netgraph.Graph.node -> cost:int -> unit
(** Install (or supersede) the real announcement of a prefix. A prefix may
    be announced by several origins (anycast); each (origin, prefix) pair
    is one LSA, and re-announcing a pair moves it to the end of
    {!prefixes}. O(k) in the prefix's k announcers, whatever the number
    of announcements. *)

val install_fake : t -> Lsa.fake -> unit
(** Inject a fake LSA; supersedes any previous fake with the same
    [fake_id]. Raises [Invalid_argument] if the forwarding address is not
    a physical neighbor of the attachment router, if the announced prefix
    is unknown, or if costs are not positive. *)

val retract_fake : t -> fake_id:string -> unit
(** Raises [Not_found] if no such fake is installed. *)

val fakes : t -> Lsa.fake list
(** Currently installed fakes, in installation order. *)

val fake_count : t -> int

val installed : t -> string -> bool
(** Whether a fake with this [fake_id] is currently installed. *)

(** {2 Fake-LSA aging}

    Real Fibbing degrades gracefully because fake LSAs age out: a live
    controller refreshes its lies periodically; if it dies, the lies hit
    MaxAge and the routers purge them, falling back to the pure-IGP
    shortest paths. We model age as an absolute expiry time per fake,
    set/refreshed by the controller and enforced by whoever advances
    simulated time ([Netsim.Sim] calls [expire_fakes] every step). A
    fake with no expiry set never ages (manual steers); TTLs are clamped
    to {!Lsa.max_age}. *)

val set_fake_expiry : t -> fake_id:string -> now:float -> ttl:float -> unit
(** Stamp (or refresh) one fake's expiry to [now + min ttl Lsa.max_age]
    — the periodic keep-alive a live controller sends for each lie it
    owns. No-op if the fake is not installed. Raises [Invalid_argument] on a
    non-positive [ttl]. *)

val fake_expiry : t -> fake_id:string -> float option
(** Absolute expiry time, [None] if the fake never expires. *)

val expire_fakes : t -> now:float -> Lsa.fake list
(** Retract every fake whose expiry has passed and return them (oldest
    installation first). Each retraction bumps the version like an
    explicit [retract_fake]. *)

val prefixes : t -> (Lsa.prefix * Netgraph.Graph.node * int) list
(** Real prefix announcements [(prefix, origin, cost)], oldest first.
    The first call after an announcement sorts them, in O(P log P) for
    P announcements; the others return that list. *)

val announcers : t -> Lsa.prefix -> Netgraph.Graph.node list
(** The origins announcing the prefix, in {!prefixes} order; [[]] for
    an unknown prefix. O(k) for k announcers, whatever the number of
    announcements. *)

val prefix_list : t -> Lsa.prefix list
(** Distinct announced prefixes, ascending by [compare]. *)

val announced_among : t -> Lsa.prefix list -> Lsa.prefix list
(** The distinct announced prefixes among the given ones, in
    {!prefix_list} order: [List.filter (fun p -> List.mem p ps)
    (prefix_list t)], in O(k log k) for k given prefixes rather than
    O(P log P) for P announcements. *)

val resolve : t -> Lsa.prefix -> Lsa.prefix option
(** Longest announced prefix covering the given destination (the
    announcement that governs its routes): exact announcements resolve
    to themselves; a more-specific destination (a /32 inside an
    announced /16, say) resolves to its covering announcement; [None]
    when no announcement covers it. Backed by an LPM index that is
    rebuilt only after an announcement changes — fake churn leaves it
    alone. *)

val version : t -> int
(** Bumped on every change; cheap to poll. *)

val last_origin : t -> Netgraph.Graph.node option
(** The router that originated the most recent change (the attachment
    of an installed/retracted fake, the origin of a prefix announcement,
    or the node passed to [touch]); used by reconvergence models to
    anchor the flooding schedule. *)

val touch : ?origin:Netgraph.Graph.node -> t -> unit
(** Signal that the physical graph was mutated externally (e.g. a link
    removal at [origin]). Logged as
    [Generic_delta]. *)

val reoriginate : t -> origin:Netgraph.Graph.node -> unit
(** Flush-and-reflood the router LSA of [origin]: bumps the version (logged as [Generic_delta]). Used when a
    router crashes (its LSA is purged domain-wide) and again when it
    recovers (it floods a fresh LSA for its restored adjacencies). *)

val weight_changed :
  t ->
  Netgraph.Graph.node ->
  Netgraph.Graph.node ->
  old_weight:int ->
  new_weight:int ->
  unit
(** Signal that the weight of one directed physical edge was changed (the
    graph must already carry the new weight). Like [touch] this bumps the
    version, but it logs a precise [Weight_delta] so incremental
    consumers can keep unaffected routers. Symmetric weight changes are
    two calls, one per direction. *)

val deltas_since : t -> since:int -> delta list option
(** All deltas applied after version [since], oldest first; [None] when
    the log no longer reaches back that far (caller must assume
    everything changed). [Some []] iff [since] is the current version. *)
