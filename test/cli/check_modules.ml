(* Guard against library modules that only tests use.

     check_modules LIB_DIR DIR...

   Every [.ml] under LIB_DIR defines a module (its capitalized file
   name). The module counts as used when its name appears as an
   identifier, outside comments and string literals, in some [.ml] or
   [.mli] under LIB_DIR or one of the DIRs other than its own two files.
   Tests are not among the DIRs: code that only they reach is dead
   weight in the library. Exit 1, naming every unused module, otherwise
   exit 0. The check is by name, so a constructor or an unrelated module
   of the same name also counts as a use: it can miss a dead module but
   never flags a live one. *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '.' || entry = "_build" then []
         else if Sys.is_directory path then sources path
         else if
           Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Capitalized identifiers in [s], skipping (nested) comments, string
   literals and character literals. *)
let capitalized_idents s =
  let n = String.length s in
  let found = Hashtbl.create 64 in
  let rec skip_string i =
    if i >= n then n
    else
      match s.[i] with
      | '\\' -> skip_string (i + 2)
      | '"' -> i + 1
      | _ -> skip_string (i + 1)
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if s.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  let rec scan i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> scan (skip_comment 1 (i + 2))
      | '"' -> scan (skip_string (i + 1))
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
        scan
          (match String.index_from_opt s (min n (i + 3)) '\'' with
          | Some j -> j + 1
          | None -> n)
      | '\'' when i + 2 < n && s.[i + 2] = '\'' -> scan (i + 3)
      | c when is_ident c ->
        let j = ref i in
        while !j < n && is_ident s.[!j] do
          incr j
        done;
        if c >= 'A' && c <= 'Z' then
          Hashtbl.replace found (String.sub s i (!j - i)) ();
        scan !j
      | _ -> scan (i + 1)
  in
  scan 0;
  found

let () =
  match Array.to_list Sys.argv with
  | _ :: lib :: dirs ->
    let files = List.concat_map sources (lib :: dirs) in
    let idents = List.map (fun f -> (f, capitalized_idents (read_file f))) files in
    let unused =
      List.filter
        (fun ml ->
          let stem = Filename.remove_extension ml in
          let name = String.capitalize_ascii (Filename.basename stem) in
          let own f = Filename.remove_extension f = stem in
          not
            (List.exists
               (fun (f, found) -> (not (own f)) && Hashtbl.mem found name)
               idents))
        (List.filter (fun f -> Filename.check_suffix f ".ml") (sources lib))
    in
    if unused <> [] then begin
      prerr_endline
        ("modules used by no file outside their own (only tests reach them): "
        ^ String.concat ", " unused);
      exit 1
    end
  | _ ->
    prerr_endline "usage: check_modules LIB_DIR DIR...";
    exit 2
