(* Pending events live in sorted runs, each consumed from a cursor, plus
   the events scheduled since the last drain. A drain first sorts those
   (stable, so scheduling order breaks ties) into a new run, then hands
   out the earliest head among the runs until none is due. *)

(* Events [head, len) of a run are pending, in drain order. Every other
   slot of [values] holds the run's last event, so no slot keeps a
   handed-out event reachable: the last one leaves with the run itself. *)
type 'a run = {
  times : float array;
  values : 'a array;
  mutable head : int;
  len : int;
}

type 'a t = {
  (* Scheduled since the last drain, in scheduling order. Slots past
     [fresh_len] hold an event that is also in [0, fresh_len). *)
  mutable fresh_times : float array;
  mutable fresh : 'a array;
  mutable fresh_len : int;
  (* The non-empty runs, newest first. Every event of a run was
     scheduled after every event of the runs below it, so a tie between
     two runs goes to the lower one. *)
  mutable runs : 'a run list;
}

let create () = { fresh_times = [||]; fresh = [||]; fresh_len = 0; runs = [] }

let schedule t ~time event =
  if time < 0. then invalid_arg "Events.schedule: negative time";
  if Float.is_nan time then invalid_arg "Events.schedule: NaN time";
  let n = t.fresh_len in
  if n = Array.length t.fresh then begin
    let capacity = max 16 (2 * n) in
    let times = Array.make capacity 0. and values = Array.make capacity event in
    Array.blit t.fresh_times 0 times 0 n;
    Array.blit t.fresh 0 values 0 n;
    t.fresh_times <- times;
    t.fresh <- values
  end;
  t.fresh_times.(n) <- time;
  t.fresh.(n) <- event;
  t.fresh_len <- n + 1

(* ---- sorting the fresh events ---- *)

(* A non-negative float's bit pattern orders as the float does. Its
   sign bit is 0, and [Int64.to_int] keeps the other 63 bits; that drops
   the sign of [-0.], which so keys as [0.], the time it equals. The
   digits below are taken with [lsr], so they read the key as unsigned. *)
let[@inline] key time = Int64.to_int (Int64.bits_of_float time)

(* Stable LSD radix sort of the keys of [times.(0 .. n-1)], one byte per
   pass; a pass whose byte every key shares is skipped. Returns the
   order: the indices by ascending time. The passes move ints only, so
   they pay no write barrier; the events move once, after. *)
let radix_order times n =
  let keys = Array.make n 0 and counts = Array.make (8 * 256) 0 in
  for i = 0 to n - 1 do
    let k = key times.(i) in
    keys.(i) <- k;
    for d = 0 to 7 do
      let b = (d * 256) + ((k lsr (8 * d)) land 255) in
      counts.(b) <- counts.(b) + 1
    done
  done;
  let keys = ref keys and order = ref (Array.init n Fun.id) in
  let keys' = ref (Array.make n 0) and order' = ref (Array.make n 0) in
  for d = 0 to 7 do
    let base = d * 256 and shift = 8 * d in
    if counts.(base + ((!keys.(0) lsr shift) land 255)) < n then begin
      let offset = ref 0 in
      for b = base to base + 255 do
        let c = counts.(b) in
        counts.(b) <- !offset;
        offset := !offset + c
      done;
      let k = !keys and o = !order and k' = !keys' and o' = !order' in
      for i = 0 to n - 1 do
        let key = k.(i) in
        let b = base + ((key lsr shift) land 255) in
        let j = counts.(b) in
        counts.(b) <- j + 1;
        k'.(j) <- key;
        o'.(j) <- o.(i)
      done;
      keys := k';
      order := o';
      keys' := k;
      order' := o
    end
  done;
  !order

(* ---- runs ---- *)

let remaining r = r.len - r.head

(* One run of both runs' pending events; [older] first on equal times. *)
let merge older newer =
  let n = remaining older + remaining newer in
  let times = Array.make n 0. and values = Array.make n newer.values.(newer.len - 1) in
  let i = ref older.head and j = ref newer.head in
  for k = 0 to n - 1 do
    if !j = newer.len || (!i < older.len && older.times.(!i) <= newer.times.(!j)) then begin
      times.(k) <- older.times.(!i);
      values.(k) <- older.values.(!i);
      incr i
    end
    else begin
      times.(k) <- newer.times.(!j);
      values.(k) <- newer.values.(!j);
      incr j
    end
  done;
  { times; values; head = 0; len = n }

(* Merge the newest run into the one below while that one holds at most
   twice its pending events, as a binary counter carries: runs of
   similar size merge and the runs stay few, while a few late events
   stay a small run of their own instead of re-merging a large backlog. *)
let rec settle = function
  | newer :: older :: rest when remaining older <= 2 * remaining newer ->
    settle (merge older newer :: rest)
  | runs -> runs

(* The fresh events become the newest run; the fresh buffer starts
   over empty, so it keeps no reference to them. *)
let absorb t =
  let n = t.fresh_len in
  let order = radix_order t.fresh_times n in
  let times = Array.make n 0. and values = Array.make n t.fresh.(0) in
  for k = 0 to n - 1 do
    let i = order.(k) in
    times.(k) <- t.fresh_times.(i);
    values.(k) <- t.fresh.(i)
  done;
  t.fresh_times <- [||];
  t.fresh <- [||];
  t.fresh_len <- 0;
  t.runs <- settle ({ times; values; head = 0; len = n } :: t.runs)

(* The run whose head drains next: the earliest, the oldest on ties. *)
let rec earliest best = function
  | [] -> best
  | r :: rest ->
    earliest (if r.times.(r.head) <= best.times.(best.head) then r else best) rest

let is_empty t = t.fresh_len = 0 && t.runs = []

let drain t ~time f =
  if t.fresh_len > 0 then absorb t;
  let due = ref true in
  while !due do
    match t.runs with
    | [] -> due := false
    | newest :: older ->
      let r = earliest newest older in
      let i = r.head in
      if r.times.(i) <= time then begin
        let event = r.values.(i) in
        r.values.(i) <- r.values.(r.len - 1);
        r.head <- i + 1;
        if r.head = r.len then t.runs <- List.filter (fun r' -> r' != r) t.runs;
        f event
      end
      else due := false
  done
