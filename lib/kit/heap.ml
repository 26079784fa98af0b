type 'a t = {
  mutable priorities : float array;
  mutable values : 'a array;
  mutable length : int;
}

(* What the slots past the end hold: never a pushed value, so a popped
   value is not kept reachable by a slot the heap no longer uses. It is
   an immediate, so [values] is never a flat float array and every read
   and write of it stays the generic, tag-checked one whatever ['a] is;
   it is never read back as an ['a]. *)
let vacant () : 'a = Obj.magic 0

let create () = { priorities = [||]; values = [||]; length = 0 }

let grow t =
  let capacity = Array.length t.priorities in
  if t.length = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let priorities' = Array.make capacity' 0. in
    let values' = Array.make capacity' (vacant ()) in
    Array.blit t.priorities 0 priorities' 0 t.length;
    Array.blit t.values 0 values' 0 t.length;
    t.priorities <- priorities';
    t.values <- values'
  end

(* Both sifts move a hole instead of swapping: the moving entry is held
   aside and written once, at its final slot. [sift_up] moves a new
   entry up from slot [i]; [sift_down] moves the entry just past the end
   (the last one, after a pop shortened the heap) down from the root.
   The comparisons are the swap-based ones (the moving entry against a
   parent, or the smaller child against it, strictly), so the pop order,
   ties included, is the same. *)
let sift_up t i priority value =
  let i = ref i in
  while !i > 0 && priority < t.priorities.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    t.priorities.(!i) <- t.priorities.(parent);
    t.values.(!i) <- t.values.(parent);
    i := parent
  done;
  t.priorities.(!i) <- priority;
  t.values.(!i) <- value

let sift_down t =
  let priority = t.priorities.(t.length) and value = t.values.(t.length) in
  let i = ref 0 and moving = ref true in
  while !moving do
    let left = (2 * !i) + 1 in
    let right = left + 1 in
    let smallest = ref !i and least = ref priority in
    if left < t.length && t.priorities.(left) < !least then begin
      smallest := left;
      least := t.priorities.(left)
    end;
    if right < t.length && t.priorities.(right) < !least then smallest := right;
    if !smallest = !i then moving := false
    else begin
      t.priorities.(!i) <- t.priorities.(!smallest);
      t.values.(!i) <- t.values.(!smallest);
      i := !smallest
    end
  done;
  t.priorities.(!i) <- priority;
  t.values.(!i) <- value

let push t ~priority value =
  grow t;
  t.length <- t.length + 1;
  sift_up t (t.length - 1) priority value

let pop t =
  if t.length = 0 then None
  else begin
    let priority = t.priorities.(0) and value = t.values.(0) in
    t.length <- t.length - 1;
    if t.length > 0 then sift_down t;
    t.values.(t.length) <- vacant ();
    Some (priority, value)
  end

let peek t = if t.length = 0 then None else Some (t.priorities.(0), t.values.(0))

(* Monomorphic int-priority / int-payload variant. Same lazy-deletion
   contract as the polymorphic heap, but priorities and values live in
   unboxed int arrays: no float boxing, no polymorphic compare. This is
   the heap Dijkstra runs on. *)
module Int = struct
  type t = {
    mutable priorities : int array;
    mutable values : int array;
    mutable length : int;
  }

  let create ?(capacity = 0) () =
    let capacity = max 0 capacity in
    {
      priorities = Array.make capacity 0;
      values = Array.make capacity 0;
      length = 0;
    }


  let grow t =
    let capacity = Array.length t.priorities in
    if t.length = capacity then begin
      let capacity' = max 16 (2 * capacity) in
      let priorities' = Array.make capacity' 0 in
      let values' = Array.make capacity' 0 in
      Array.blit t.priorities 0 priorities' 0 t.length;
      Array.blit t.values 0 values' 0 t.length;
      t.priorities <- priorities';
      t.values <- values'
    end

  (* The same hole-moving sifts as above. *)
  let sift_up t i priority value =
    let i = ref i in
    while !i > 0 && priority < t.priorities.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      t.priorities.(!i) <- t.priorities.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    done;
    t.priorities.(!i) <- priority;
    t.values.(!i) <- value

  let sift_down t =
    let priority = t.priorities.(t.length) and value = t.values.(t.length) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let left = (2 * !i) + 1 in
      let right = left + 1 in
      let smallest = ref !i and least = ref priority in
      if left < t.length && t.priorities.(left) < !least then begin
        smallest := left;
        least := t.priorities.(left)
      end;
      if right < t.length && t.priorities.(right) < !least then smallest := right;
      if !smallest = !i then moving := false
      else begin
        t.priorities.(!i) <- t.priorities.(!smallest);
        t.values.(!i) <- t.values.(!smallest);
        i := !smallest
      end
    done;
    t.priorities.(!i) <- priority;
    t.values.(!i) <- value

  let push t ~priority value =
    grow t;
    t.length <- t.length + 1;
    sift_up t (t.length - 1) priority value

  let pop t =
    if t.length = 0 then None
    else begin
      let priority = t.priorities.(0) and value = t.values.(0) in
      t.length <- t.length - 1;
      if t.length > 0 then sift_down t;
      Some (priority, value)
    end
end
