let realized m =
  let k = Array.length m in
  if k = 0 then invalid_arg "Ratio.realized: empty";
  let total = Array.fold_left ( + ) 0 m in
  if total = 0 then invalid_arg "Ratio.realized: zero total";
  Array.map (fun mi -> float_of_int mi /. float_of_int total) m

let max_error fractions m =
  let r = realized m in
  let err = ref 0. in
  Array.iteri (fun i f -> err := max !err (abs_float (f -. r.(i)))) fractions;
  !err

(* Largest-remainder apportionment of [total] entries to the desired
   fractions, with every next hop getting at least one entry. *)
let apportion fractions total =
  let k = Array.length fractions in
  let m = Array.map (fun f -> max 1 (int_of_float (f *. float_of_int total))) fractions in
  let current = ref (Array.fold_left ( + ) 0 m) in
  (* Distribute missing entries to the largest remainders. *)
  while !current < total do
    let best = ref 0 and best_gap = ref neg_infinity in
    for i = 0 to k - 1 do
      let gap = (fractions.(i) *. float_of_int total) -. float_of_int m.(i) in
      if gap > !best_gap then begin
        best := i;
        best_gap := gap
      end
    done;
    m.(!best) <- m.(!best) + 1;
    incr current
  done;
  (* Remove surplus entries (caused by the >=1 floor) from the most
     over-served next hops that can spare one. *)
  while !current > total do
    let best = ref (-1) and best_gap = ref infinity in
    for i = 0 to k - 1 do
      if m.(i) > 1 then begin
        let gap = (fractions.(i) *. float_of_int total) -. float_of_int m.(i) in
        if gap < !best_gap then begin
          best := i;
          best_gap := gap
        end
      end
    done;
    if !best < 0 then current := total (* all at the floor; accept overshoot *)
    else begin
      m.(!best) <- m.(!best) - 1;
      decr current
    end
  done;
  m

let approximate ~max_total fractions =
  let k = Array.length fractions in
  if k = 0 then invalid_arg "Ratio.approximate: empty fractions";
  if k > max_total then invalid_arg "Ratio.approximate: more next hops than max_total";
  Array.iter
    (fun f -> if f < 0. then invalid_arg "Ratio.approximate: negative fraction")
    fractions;
  let sum = Array.fold_left ( +. ) 0. fractions in
  if abs_float (sum -. 1.) > 1e-6 then
    invalid_arg "Ratio.approximate: fractions must sum to 1";
  let best = ref (apportion fractions k) in
  let best_err = ref (max_error fractions !best) in
  for total = k + 1 to max_total do
    let candidate = apportion fractions total in
    let err = max_error fractions candidate in
    if err < !best_err -. 1e-12 then begin
      best := candidate;
      best_err := err
    end
  done;
  !best
