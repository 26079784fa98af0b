type 'a t = {
  mutable priorities : float array;
  mutable values : 'a array;
  mutable length : int;
}

let create () = { priorities = [||]; values = [||]; length = 0 }

let grow t value =
  let capacity = Array.length t.priorities in
  if t.length = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let priorities' = Array.make capacity' 0. in
    let values' = Array.make capacity' value in
    Array.blit t.priorities 0 priorities' 0 t.length;
    Array.blit t.values 0 values' 0 t.length;
    t.priorities <- priorities';
    t.values <- values'
  end

let swap t i j =
  let p = t.priorities.(i) in
  t.priorities.(i) <- t.priorities.(j);
  t.priorities.(j) <- p;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.priorities.(i) < t.priorities.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.length && t.priorities.(left) < t.priorities.(!smallest) then
    smallest := left;
  if right < t.length && t.priorities.(right) < t.priorities.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority value =
  grow t value;
  t.priorities.(t.length) <- priority;
  t.values.(t.length) <- value;
  t.length <- t.length + 1;
  sift_up t (t.length - 1)

let pop t =
  if t.length = 0 then None
  else begin
    let priority = t.priorities.(0) and value = t.values.(0) in
    t.length <- t.length - 1;
    if t.length > 0 then begin
      t.priorities.(0) <- t.priorities.(t.length);
      t.values.(0) <- t.values.(t.length);
      sift_down t 0
    end;
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

  let swap t i j =
    let p = t.priorities.(i) in
    t.priorities.(i) <- t.priorities.(j);
    t.priorities.(j) <- p;
    let v = t.values.(i) in
    t.values.(i) <- t.values.(j);
    t.values.(j) <- v

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.priorities.(i) < t.priorities.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < t.length && t.priorities.(left) < t.priorities.(!smallest) then
      smallest := left;
    if right < t.length && t.priorities.(right) < t.priorities.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t ~priority value =
    grow t;
    t.priorities.(t.length) <- priority;
    t.values.(t.length) <- value;
    t.length <- t.length + 1;
    sift_up t (t.length - 1)

  let pop t =
    if t.length = 0 then None
    else begin
      let priority = t.priorities.(0) and value = t.values.(0) in
      t.length <- t.length - 1;
      if t.length > 0 then begin
        t.priorities.(0) <- t.priorities.(t.length);
        t.values.(0) <- t.values.(t.length);
        sift_down t 0
      end;
      Some (priority, value)
    end
end
