let total = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> total xs /. float_of_int (List.length xs)

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    let sorted = List.sort compare xs in
    let n = List.length sorted in
    let rank =
      int_of_float (ceil (p /. 100. *. float_of_int n)) - 1
    in
    let rank = max 0 (min (n - 1) rank) in
    List.nth sorted rank

let ewma ~alpha previous sample =
  assert (alpha >= 0. && alpha <= 1.);
  (alpha *. sample) +. ((1. -. alpha) *. previous)
