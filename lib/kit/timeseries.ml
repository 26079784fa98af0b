type t = {
  name : string;
  mutable rev_samples : (float * float) list;
  mutable last_time : float;
}

let create ~name = { name; rev_samples = []; last_time = neg_infinity }

let add t ~time value =
  if time < t.last_time then invalid_arg "Timeseries.add: non-monotonic time";
  t.rev_samples <- (time, value) :: t.rev_samples;
  t.last_time <- time

let samples t = List.rev t.rev_samples

let value_at t time =
  (* rev_samples is newest-first: the first sample at or before [time]. *)
  let rec find = function
    | [] -> 0.
    | (sample_time, value) :: rest ->
      if sample_time <= time then value else find rest
  in
  find t.rev_samples

let to_csv ?(step = 1.0) series =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "time";
  List.iter
    (fun t ->
      Buffer.add_char buffer ',';
      Buffer.add_string buffer t.name)
    series;
  Buffer.add_char buffer '\n';
  let horizon = List.fold_left (fun acc t -> max acc t.last_time) 0. series in
  let steps = int_of_float (horizon /. step) in
  for i = 0 to steps do
    let time = float_of_int i *. step in
    Buffer.add_string buffer (Printf.sprintf "%g" time);
    List.iter
      (fun t ->
        Buffer.add_string buffer (Printf.sprintf ",%g" (value_at t time)))
      series;
    Buffer.add_char buffer '\n'
  done;
  Buffer.contents buffer

let pp_rows ?(step = 1.0) fmt series =
  let horizon =
    List.fold_left (fun acc t -> max acc t.last_time) 0. series
  in
  Format.fprintf fmt "%10s" "time[s]";
  List.iter (fun t -> Format.fprintf fmt " %14s" t.name) series;
  Format.pp_print_newline fmt ();
  let steps = int_of_float (horizon /. step) in
  for i = 0 to steps do
    let time = float_of_int i *. step in
    Format.fprintf fmt "%10.1f" time;
    List.iter (fun t -> Format.fprintf fmt " %14.0f" (value_at t time)) series;
    Format.pp_print_newline fmt ()
  done
