(* Inputs for parsers of untrusted text: random bytes, and valid
   encodings from [seeds] with one byte replaced, inserted or deleted. *)
let input seeds =
  let open QCheck.Gen in
  let mutate s =
    let n = String.length s in
    let* i = int_bound n in
    let* c = char in
    oneofl
      [
        (if i < n then String.mapi (fun j x -> if j = i then c else x) s else s);
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        (if i < n then String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1) else s);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof [ string_size ~gen:char (0 -- 40); oneofl seeds >>= mutate ])

(* [run] returns [Ok] or [Error] and raises nothing. *)
let total ~name ~count ~run seeds =
  QCheck.Test.make ~name ~count (input seeds) (fun s ->
      match run s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* [parse] returns [Ok] or [Error] and raises nothing, and what it
   accepts survives [print] and a second [parse] unchanged. *)
let total_and_round_trips ~name ~parse ~print seeds =
  QCheck.Test.make ~name ~count:2000 (input seeds) (fun s ->
      match parse s with
      | Error _ -> true
      | Ok v -> parse (print v) = Ok v
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))
