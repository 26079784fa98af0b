(* [empty] marks a free slot, so [min_int] itself is a flag of its own. *)
let empty = min_int

type t = { mutable slots : int array; mutable count : int; mutable has_empty : bool }

let create () = { slots = Array.make 16 empty; count = 0; has_empty = false }

(* Multiplicative hashing, folded so the low bits depend on the high. *)
let[@inline] home slots x =
  let h = x * 0x3C6EF372FE94F82B in
  (h lxor (h lsr 29)) land (Array.length slots - 1)

let rec probe slots x i =
  let v = slots.(i) in
  if v = x || v = empty then i else probe slots x ((i + 1) land (Array.length slots - 1))

(* The slot holding [x], or the free slot where it would go. *)
let slot_of slots x = probe slots x (home slots x)

let mem t x = if x = empty then t.has_empty else t.slots.(slot_of t.slots x) = x

let grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) empty in
  Array.iter (fun x -> if x <> empty then slots.(slot_of slots x) <- x) old;
  t.slots <- slots

let add t x =
  if x = empty then t.has_empty <- true
  else begin
    let i = slot_of t.slots x in
    if t.slots.(i) <> x then begin
      t.slots.(i) <- x;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.slots then grow t
    end
  end
