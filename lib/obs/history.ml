type row = { tag : string; track : string; values : (string * float) list }

let row_to_json r =
  Kit.Json.to_string
    (Kit.Json.Obj
       (("tag", Kit.Json.Str r.tag)
       :: ("track", Kit.Json.Str r.track)
       :: List.map (fun (k, v) -> (k, Kit.Json.Num v)) r.values))

let row_of_json j =
  match j with
  | Kit.Json.Obj kvs ->
    let tag = ref None and track = ref None and values = ref [] in
    let bad = ref None in
    List.iter
      (fun (k, v) ->
        match (k, v) with
        | "tag", Kit.Json.Str s -> tag := Some s
        | "track", Kit.Json.Str s -> track := Some s
        | _, Kit.Json.Num n -> values := (k, n) :: !values
        | _ -> bad := Some k)
      kvs;
    (match (!bad, !tag, !track) with
    | Some k, _, _ -> Error (Printf.sprintf "history row: bad value for %S" k)
    | None, Some tag, Some track ->
      Ok { tag; track; values = List.rev !values }
    | None, _, _ -> Error "history row: missing tag or track")
  | _ -> Error "history row: not an object"

let append ~file rows =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (row_to_json r);
          output_char oc '\n')
        rows)

let load ~file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Kit.Json.parse_lines contents with
    | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
    | Ok docs ->
      List.map
        (fun doc ->
          match row_of_json doc with
          | Ok r -> r
          | Error msg -> failwith (Printf.sprintf "%s: %s" file msg))
        docs
  end

(* A counter may grow to [baseline * (1 + rel) + abs]; [abs] is slack
   for near-zero baselines. *)
type band = { counter : string; rel : float; abs : float }

(* Deterministic counters get tight bands; GC counts and timings get
   wide ones. Wall time on shared runners moves 2x between identical
   runs, so the table timings only trip on a gross regression. *)
let bands =
  let counter c = { counter = c; rel = 0.02; abs = 64. } in
  let timing c = { counter = c; rel = 2.0; abs = 5.0 } in
  [
    counter "alloc_words";
    { counter = "minor_collections"; rel = 0.25; abs = 2. };
    { counter = "major_collections"; rel = 1.0; abs = 2. };
    counter "installed";
    counter "approx_bytes";
    counter "rows_written";
    counter "rehashed";
    { counter = "words_per_event"; rel = 0.02; abs = 0.1 };
    { counter = "words_per_flow"; rel = 0.02; abs = 0.1 };
    { counter = "visited_per_update"; rel = 0.02; abs = 1. };
    { counter = "wall_ms"; rel = 0.5; abs = 1.0 };
    timing "build_ms";
    timing "warm_ms";
    timing "lie_cycle_ms";
  ]

type verdict = {
  v_track : string;
  v_workload : string;
  v_counter : string;
  current : float;
  baseline : float;
  limit : float;
  ok : bool;
}

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "History.median: empty"
  | sorted ->
    let n = List.length sorted in
    let nth k = List.nth sorted k in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.

(* The keys that size a row's workload. Two rows are comparable when
   these agree exactly (they are ints-in-floats, so exact equality is the
   right notion); every other key is a measurement. *)
let workload_keys =
  [ "prefixes"; "routers"; "links"; "flows"; "groups"; "cycles"; "domains";
    "seeds"; "chaos_seeds"; "live_gc" ]

let workload r =
  List.filter (fun (k, _) -> List.mem k workload_keys) r.values
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v)
  |> String.concat " "

(* Rows of one (track, workload) before the newest join its baseline. *)
let window = 5

let gate rows =
  let groups =
    List.fold_left
      (fun acc r ->
        let key = (r.track, workload r) in
        if List.mem key acc then acc else key :: acc)
      [] rows
    |> List.rev
  in
  List.concat_map
    (fun (track, work) ->
      let of_group =
        List.filter (fun r -> r.track = track && workload r = work) rows
      in
      match List.rev of_group with
      | [] -> []
      | newest :: older_rev ->
        let baseline_rows = List.filteri (fun i _ -> i < window) older_rev in
        if baseline_rows = [] then []
        else
          List.filter_map
            (fun b ->
              match List.assoc_opt b.counter newest.values with
              | None -> None
              | Some current ->
                let past =
                  List.filter_map
                    (fun r -> List.assoc_opt b.counter r.values)
                    baseline_rows
                in
                if past = [] then None
                else begin
                  let baseline = median past in
                  let limit = (baseline *. (1. +. b.rel)) +. b.abs in
                  Some
                    {
                      v_track = track;
                      v_workload = work;
                      v_counter = b.counter;
                      current;
                      baseline;
                      limit;
                      ok = current <= limit;
                    }
                end)
            bands)
    groups

let gate_ok verdicts = List.for_all (fun v -> v.ok) verdicts

let pp_verdicts fmt verdicts =
  Format.fprintf fmt "%-12s %-24s %-20s %14s %14s %14s  %s@." "track"
    "workload" "counter" "current" "baseline" "limit" "verdict";
  List.iter
    (fun v ->
      Format.fprintf fmt "%-12s %-24s %-20s %14.6g %14.6g %14.6g  %s@."
        v.v_track v.v_workload v.v_counter v.current v.baseline v.limit
        (if v.ok then "ok" else "REGRESSION"))
    verdicts
