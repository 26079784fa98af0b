(* Point reads of a [Kit.Timeseries.t] for assertions, from its samples. *)

(* The most recent sample at or before [time]; [0.] before the first. *)
let value_at ts time =
  List.fold_left
    (fun acc (t, v) -> if t <= time then v else acc)
    0. (Kit.Timeseries.samples ts)

let peak ts = List.fold_left (fun acc (_, v) -> max acc v) 0. (Kit.Timeseries.samples ts)

(* Mean of the samples with [from <= time < until]; [0.] if none. *)
let window_mean ts ~from ~until =
  Kit.Stats.mean
    (List.filter_map
       (fun (t, v) -> if t >= from && t < until then Some v else None)
       (Kit.Timeseries.samples ts))
