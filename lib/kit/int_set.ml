(* A member [x] is bit [x land 31] of the block keyed [x asr 5]. No
   block key reaches [min_int], so it marks a free slot. *)
let empty = min_int

type t = {
  mutable keys : int array;
  mutable bits : int array; (* [bits.(i)] is block [keys.(i)]'s members *)
  mutable count : int; (* occupied slots *)
}

let create () = { keys = Array.make 16 empty; bits = Array.make 16 0; count = 0 }

(* Multiplicative hashing, folded so the low bits depend on the high. *)
let[@inline] home keys k =
  let h = k * 0x3C6EF372FE94F82B in
  (h lxor (h lsr 29)) land (Array.length keys - 1)

let rec probe keys k i =
  let v = keys.(i) in
  if v = k || v = empty then i else probe keys k ((i + 1) land (Array.length keys - 1))

(* The slot holding block [k], or the free slot where it would go. *)
let slot_of keys k = probe keys k (home keys k)

let mem t x =
  let k = x asr 5 in
  let i = slot_of t.keys k in
  t.keys.(i) = k && t.bits.(i) land (1 lsl (x land 31)) <> 0

let grow t =
  let keys = Array.make (2 * Array.length t.keys) empty in
  let bits = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot_of keys k in
        keys.(i) <- k;
        bits.(i) <- t.bits.(j)
      end)
    t.keys;
  t.keys <- keys;
  t.bits <- bits

let add t x =
  let k = x asr 5 in
  let i = slot_of t.keys k in
  if t.keys.(i) = k then t.bits.(i) <- t.bits.(i) lor (1 lsl (x land 31))
  else begin
    t.keys.(i) <- k;
    t.bits.(i) <- 1 lsl (x land 31);
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t
  end
