type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(* splitmix64: fast, high-quality, trivially seedable. Reference:
   Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
   OOPSLA 2014. *)
let bits64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  assert (bound > 0.);
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float mantissa /. 9007199254740992. (* 2^53 *) in
  unit *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  assert (mean > 0.);
  let u = 1. -. float t 1. in
  -.mean *. log u

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
