(** Approximation of fractional splitting ratios by small integer
    multiplicities.

    ECMP hashes flows uniformly over FIB entries, so the only splitting
    ratios a router can realize are [m_i / (m_1 + ... + m_k)] for integer
    entry multiplicities [m_i >= 1]. Fibbing installs [m_i] equal-cost fake
    routes towards next hop [i]; the FIB width bounds the total
    [sum m_i]. This module finds the best bounded-total approximation. *)

val approximate : max_total:int -> float array -> int array
(** [approximate ~max_total fractions] returns multiplicities [m] with
    [1 <= m.(i)], [sum m <= max_total], minimizing the maximum absolute
    error [|m.(i)/total -. fractions.(i)|].

    [fractions] must be non-empty, have non-negative entries summing to
    (approximately) 1, and satisfy [Array.length fractions <= max_total].
    Raises [Invalid_argument] otherwise. *)

val max_error : float array -> int array -> float
(** [max_error fractions m] is the maximum absolute difference between the
    desired fractions and the realized ones [m.(i) / sum m]. Raises
    [Invalid_argument] if [m] is empty or sums to 0. *)
