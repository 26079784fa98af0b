(* Domain safety: counters and gauges are single atomic cells, updated
   lock-free from any domain. Histograms update several fields that
   must stay mutually consistent (bucket counts vs count/sum/min/max),
   so each histogram carries its own mutex; summaries snapshot under
   that lock and compute percentiles outside it. The registry hashtable
   is guarded by one mutex around find-or-create/dump/reset — handles
   are looked up once at module init, so the lock is off every hot
   path. *)

type counter = { c_name : string; n : int Atomic.t }

type gauge = { g_name : string; v : float Atomic.t }

type histogram = {
  h_name : string;
  h_mu : Mutex.t;
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length bounds + 1, last = overflow *)
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_mu = Mutex.create ()

let locked mu f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let kind_error name = invalid_arg (Printf.sprintf "Metrics: %s registered as another kind" name)

let counter name =
  locked registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some _ -> kind_error name
      | None ->
        let c = { c_name = name; n = Atomic.make 0 } in
        Hashtbl.replace registry name (C c);
        c)

let gauge name =
  locked registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G g) -> g
      | Some _ -> kind_error name
      | None ->
        let g = { g_name = name; v = Atomic.make 0. } in
        Hashtbl.replace registry name (G g);
        g)

(* Log-spaced at ratio 1.25 over [1e-3, 1e4]: 10% worst-case relative
   error on percentile estimates, fine enough for millisecond timings. *)
let default_buckets =
  let rec go acc x = if x > 1e4 then List.rev acc else go (x :: acc) (x *. 1.25) in
  Array.of_list (go [] 1e-3)

let histogram ?(buckets = default_buckets) name =
  locked registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (H h) -> h
      | Some _ -> kind_error name
      | None ->
        if Array.length buckets = 0 then invalid_arg "Metrics.histogram: no buckets";
        Array.iteri
          (fun i b ->
            if i > 0 && buckets.(i - 1) >= b then
              invalid_arg "Metrics.histogram: buckets must be strictly increasing")
          buckets;
        let h =
          {
            h_name = name;
            h_mu = Mutex.create ();
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            count = 0;
            sum = 0.;
            minv = infinity;
            maxv = neg_infinity;
          }
        in
        Hashtbl.replace registry name (H h);
        h)

let incr c = if Atomic.get State.enabled then ignore (Atomic.fetch_and_add c.n 1)

let add c k = if Atomic.get State.enabled then ignore (Atomic.fetch_and_add c.n k)

let set g v = if Atomic.get State.enabled then Atomic.set g.v v

(* Index of the bucket holding [v]: smallest [i] with [v <= bounds.(i)],
   or the overflow bucket. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  if Atomic.get State.enabled then
    locked h.h_mu (fun () ->
        let i = bucket_index h.bounds v in
        h.counts.(i) <- h.counts.(i) + 1;
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        if v < h.minv then h.minv <- v;
        if v > h.maxv then h.maxv <- v)

(* A coherent copy of a histogram's mutable state, taken under its
   lock; percentile arithmetic then runs lock-free on the copy. *)
type hist_snap = {
  s_bounds : float array;
  s_counts : int array;
  s_count : int;
  s_sum : float;
  s_minv : float;
  s_maxv : float;
}

let snap h =
  locked h.h_mu (fun () ->
      {
        s_bounds = h.bounds;
        s_counts = Array.copy h.counts;
        s_count = h.count;
        s_sum = h.sum;
        s_minv = h.minv;
        s_maxv = h.maxv;
      })

let snap_quantile s q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile: q outside [0, 1]";
  if s.s_count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.s_count))) in
    let n = Array.length s.s_bounds in
    let i = ref 0 and cum = ref s.s_counts.(0) in
    while !cum < rank do
      i := !i + 1;
      cum := !cum + s.s_counts.(!i)
    done;
    let i = !i in
    let lo = if i = 0 then 0. else s.s_bounds.(i - 1) in
    let hi = if i < n then s.s_bounds.(i) else s.s_maxv in
    let before = !cum - s.s_counts.(i) in
    let frac = float_of_int (rank - before) /. float_of_int s.s_counts.(i) in
    let estimate = lo +. (frac *. (hi -. lo)) in
    Float.min s.s_maxv (Float.max s.s_minv estimate)
  end

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summary_of_snap s =
  {
    count = s.s_count;
    sum = s.s_sum;
    min = (if s.s_count = 0 then 0. else s.s_minv);
    max = (if s.s_count = 0 then 0. else s.s_maxv);
    p50 = snap_quantile s 0.5;
    p95 = snap_quantile s 0.95;
    p99 = snap_quantile s 0.99;
  }

(* Cumulative (upper-bound, count) pairs in OpenMetrics style: each
   entry counts observations <= the bound, the final entry is
   (infinity, total). Derived from the per-bucket counts under the
   histogram's lock. *)
let cumulative_buckets h =
  let s = snap h in
  let n = Array.length s.s_bounds in
  let acc = ref 0 in
  let out = ref [] in
  for i = 0 to n - 1 do
    acc := !acc + s.s_counts.(i);
    out := (s.s_bounds.(i), !acc) :: !out
  done;
  List.rev ((infinity, !acc + s.s_counts.(n)) :: !out)

let dump_buckets () =
  let metrics =
    locked registry_mu (fun () ->
        Hashtbl.fold
          (fun name metric acc ->
            match metric with H h -> (name, h) :: acc | C _ | G _ -> acc)
          registry [])
  in
  List.map (fun (name, h) -> (name, cumulative_buckets h)) metrics
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

let dump () =
  let metrics =
    locked registry_mu (fun () ->
        Hashtbl.fold (fun name metric acc -> (name, metric) :: acc) registry [])
  in
  List.map
    (fun (name, metric) ->
      let snap =
        match metric with
        | C c -> Counter (Atomic.get c.n)
        | G g -> Gauge (Atomic.get g.v)
        | H h -> Histogram (summary_of_snap (snap h))
      in
      (name, snap))
    metrics
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json_lines () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, snap) ->
      let body =
        match snap with
        | Counter n -> Printf.sprintf "\"type\":\"counter\",\"value\":%d" n
        | Gauge v -> Printf.sprintf "\"type\":\"gauge\",\"value\":%.6g" v
        | Histogram s ->
          Printf.sprintf
            "\"type\":\"histogram\",\"count\":%d,\"sum\":%.6g,\"min\":%.6g,\"max\":%.6g,\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g"
            s.count s.sum s.min s.max s.p50 s.p95 s.p99
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",%s}\n" (Attr.escape name) body))
    (dump ());
  Buffer.contents buf

let pp_table fmt () =
  Format.fprintf fmt "%-36s %-10s %s@." "metric" "kind" "value";
  List.iter
    (fun (name, snap) ->
      match snap with
      | Counter n -> Format.fprintf fmt "%-36s %-10s %d@." name "counter" n
      | Gauge v -> Format.fprintf fmt "%-36s %-10s %.6g@." name "gauge" v
      | Histogram s ->
        Format.fprintf fmt
          "%-36s %-10s count=%d sum=%.6g min=%.6g max=%.6g p50=%.6g p95=%.6g p99=%.6g@."
          name "histogram" s.count s.sum s.min s.max s.p50 s.p95 s.p99)
    (dump ())

let reset () =
  let metrics =
    locked registry_mu (fun () ->
        Hashtbl.fold (fun _ metric acc -> metric :: acc) registry [])
  in
  List.iter
    (fun metric ->
      match metric with
      | C c -> Atomic.set c.n 0
      | G g -> Atomic.set g.v 0.
      | H h ->
        locked h.h_mu (fun () ->
            Array.fill h.counts 0 (Array.length h.counts) 0;
            h.count <- 0;
            h.sum <- 0.;
            h.minv <- infinity;
            h.maxv <- neg_infinity))
    metrics
