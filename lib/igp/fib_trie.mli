(** Path-compressed binary trie over {!Prefix.t} with incremental
    FAQS-style aggregation.

    The trie stores one route value per prefix (the {e flat} table) and
    maintains, on every mutation, the {e aggregated} table as a flag on
    each route: a route is [installed] iff its value differs — under the
    aggregation equality the trie was created with — from the value of
    its nearest route-bearing ancestor. Looking up an address over
    installed routes only ({!lookup_aggregated}) is forwarding-
    equivalent to looking it up over all routes ({!lookup}): along the
    ancestor chain of any flat match, every skipped route is equal to
    the one above it, so the nearest installed ancestor carries the same
    value. Routes whose value differs from the ancestor act as
    aggregation barriers and stay installed.

    Updates are incremental in the FAQS sense: an insert, replace or
    delete walks one root-to-node path and then refreshes installed
    flags only for the {e direct} route children of the changed node
    (descending through routeless branch nodes), stopping early whenever
    the effective inherited value is unchanged. No mutation ever
    rebuilds the trie. The cumulative {!visited} counter exposes the
    number of nodes touched, so benches can assert update cost is
    independent of table size. *)

type 'a t

val create : eq:('a -> 'a -> bool) -> 'a t
(** [eq] is the aggregation equality: two route values that compare
    equal forward identically and may be merged. It must be an
    equivalence relation. *)

val update : 'a t -> Prefix.t -> 'a -> unit
(** Insert the route, or replace the existing value for that prefix. *)

val remove : 'a t -> Prefix.t -> unit
(** Delete the route if present; no-op otherwise. *)

val lookup : 'a t -> int -> (Prefix.t * 'a) option
(** Longest-prefix match of a 32-bit address over the flat table. *)

val lookup_aggregated : 'a t -> int -> (Prefix.t * 'a) option
(** Longest-prefix match over installed routes only. Forwarding-
    equivalent to {!lookup} (the returned prefix may be shorter). *)

val lookup_within : 'a t -> Prefix.t -> (Prefix.t * 'a) option
(** [lookup_within t p] is the longest route whose prefix covers all of
    [p] (equal-or-shorter ancestor) — the route governing a whole
    destination block, used to resolve flow prefixes against announced
    prefixes. *)

val visited : 'a t -> int
(** Cumulative count of nodes touched by updates/removes since
    creation — deterministic work measure for the bench gate. *)

type stats = {
  routes : int;
  installed : int;  (** Routes surviving aggregation; [installed <= routes]. *)
  nodes : int;
  ratio : float;  (** [routes /. installed]; 1.0 when empty. *)
  approx_bytes : int;
      (** Estimated heap footprint of the trie structure itself
          (nodes, links, option cells), excluding route payloads. *)
}

val stats : 'a t -> stats
