(** Batched, incremental SPF/FIB engine.

    Routes are computed in two stages ({!Spf}): per router, one Dijkstra
    over the physical graph (stage 1), then every prefix's row from its
    announcers and fakes (stage 2). The engine caches, per router, the
    stage-1 result beside one full per-prefix FIB table, and reads stage
    2's inputs from two indexes per LSDB version: prefix -> announcers,
    rebuilt whole by an announcement and never written after, and
    prefix -> fakes, patched by each fake delta. Tables stay valid
    across LSDB version bumps whenever the logged deltas provably cannot
    change them:

    - a fake install/retract at attachment [a] reaching prefix [p] at
      cost [c] flags router [r] only when [d(r, a) + c <= r]'s cached
      distance to [p], with [d(r, a)] read from [r]'s cached stage 1; a
      flagged router later rewrites only [p]'s row, with no Dijkstra;
    - a single weight change on edge [(u, v)] dirties [r] only when
      [d(r, u) + min(w_old, w_new) <= d(r, v)] on the post-change graph
      (two reverse Dijkstras), which holds exactly when the edge lies on
      one of [r]'s old or new shortest-path DAGs; a dirty router reruns
      stage 1;
    - anything else (announcements, link removals, several weight changes
      in one batch, log overflow) invalidates every table.

    All rules are sound over-approximations: a kept table is bitwise
    what a from-scratch computation would produce. Flagged and dirty
    routers count alike as dirtied ({!stats}); the dirty log
    ({!dirtied_since}) tells them apart, per row. They
    are refilled lazily on lookup, or in bulk by [compute_all], on the
    calling domain.

    A what-if engine ({!clone}) starts warm and stays row-lazy. It
    shares the parent's stage-1 trees and announcer index read-only
    (neither is ever written, and lies change neither), keeps no whole
    tables, and computes
    a prefix's row at a router only when a lookup first asks for it. A
    fake delta drops that prefix's rows at every router; a single weight
    change dirties routers by the rule above; anything else drops every
    tree. A dirty router reruns stage 1 only. So a clone that reads one
    prefix's table after a lie writes one row per router and runs no
    Dijkstra.

    The engine is not thread-safe: calls into one engine must come from
    a single domain. *)

type t

type stats = {
  spf_runs : int;
      (** Stage-1 Dijkstras (one per refill of a dirty router; refills
          that only rewrite rows flagged by lies run none). *)
  syncs : int;  (** Version bumps absorbed. *)
  full_invalidations : int;  (** Syncs that dropped every table. *)
  routers_dirtied : int;
      (** Tables flagged or dropped across all syncs. *)
  routers_kept : int;  (** Tables kept whole across all syncs. *)
  rows_written : int;
      (** Prefix rows computed (stage 2): whole-table refills, rewrites
          of flagged rows and a clone's per-prefix rows alike. *)
}

val create : Lsdb.t -> t
(** A fresh engine has no cached tables. *)

val clone : t -> Lsdb.t -> t
(** [clone parent lsdb] is a row-lazy engine over [lsdb], which must
    hold what the parent's LSDB holds, over a copy of its graph
    ({!Lsdb.clone}). It syncs [parent] first, then shares every tree the
    parent holds and its prefix -> announcers index, and copies its
    prefix -> fakes index; routers dirty in the parent stay dirty. So a
    clone costs O(routers + fakes), nothing per announced prefix (the
    parent builds its index once per announcement, not once per
    clone). Nothing the clone does writes to [parent], and later
    changes to [parent] do not reach it. Its counters start at zero; it
    counts no kept, dirtied or dropped tables, emits no [spf sync]
    timeline event, and {!dirtied_since} answers [None] across any of
    its syncs. *)

val sync : t -> unit
(** Absorb any pending LSDB changes now, dirtying affected routers.
    Every lookup syncs implicitly; call this explicitly before mutating
    the base graph in place so pending deltas are evaluated against the
    graph they described. *)

val fib : t -> router:Netgraph.Graph.node -> Lsa.prefix -> Fib.t option
(** The router's FIB for one prefix; refills (and caches) the router's
    whole table on a miss, or in a clone only this row. [None] if the prefix is unknown or
    unreachable. Raises [Invalid_argument] for non-real routers. *)

val distance : t -> router:Netgraph.Graph.node -> Lsa.prefix -> int option

val compute_all : t -> unit
(** Bring every router's table up to date, refilling missing routers in
    ascending order; in a clone, every router's stage 1 only. *)

val prefix_table : t -> Lsa.prefix -> Fib.t option array
(** Per-router FIBs for one prefix, indexed by router id ([compute_all]
    is implied; a clone computes only this prefix's rows). The returned
    array is fresh; mutating it is harmless. *)

val invalidate_all : t -> unit
(** Drop every cached table (e.g. to measure cold-start cost). *)

type dirt =
  | Full_dirt  (** Anything may have changed, router identity included. *)
  | Routers_dirt of Netgraph.Graph.node list
      (** These routers rerun stage 1: any of their rows may change. *)
  | Rows_dirt of Lsa.prefix * Netgraph.Graph.node list
      (** Only this prefix's row may change at these routers. *)

val dirty_cursor : t -> int
(** Opaque position in the engine's invalidation log, taken after
    absorbing pending LSDB changes. Pass it to [dirtied_since] later to
    learn which rows may have changed in between. *)

val dirtied_since : t -> cursor:int -> dirt list option
(** [dirtied_since t ~cursor] syncs, then returns the dirt of every sync
    (or explicit invalidation) after [cursor] was taken: [Routers_dirt]
    and [Rows_dirt] entries, never [Full_dirt], in no particular order
    and possibly repeating a router. [None] when a full invalidation
    occurred or the bounded log no longer reaches back to the cursor
    (callers must then assume everything changed). A clone answers
    [None] across any of its syncs.

    Soundness for route caches: a [fib] lookup answered at cursor time
    brought its router's table up to date, and every later change to a
    row of an up-to-date router is logged: a fake delta logs
    [Rows_dirt] for each row it flags, a weight change or a batch with
    no precise rule logs [Routers_dirt] for each router it drops. So a
    (router, prefix) pair that no returned entry covers answers exactly
    as it did at cursor time.

    A row flagged on a router that already waits for other rows
    ([Stale_rows]) is logged too, though the router's table is already
    out of date. A reader may have looked the router up before the
    earlier lie and still hold its answer for this prefix; and the
    same stale router can meet two lies in two separate syncs, as when
    a what-if clone syncs its parent between two lies of one controller
    reaction. The router-level counters ({!stats}) and the [spf sync]
    timeline event still count a router once, when it stops being up
    to date. *)

val stats : t -> stats
(** Cumulative counters since [create]. *)
