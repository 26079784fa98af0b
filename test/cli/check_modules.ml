(* Guard against library code that only tests use.

     check_modules ALLOW_FILE LIB_DIR DIR...

   Modules. Every [.ml] under LIB_DIR defines a module (its capitalized
   file name). The module counts as used when its name appears as an
   identifier, outside comments and string literals, in some [.ml] or
   [.mli] under LIB_DIR or one of the DIRs other than its own two files.

   Values. Every [val] of an [.mli] under LIB_DIR, at top level or in a
   named sub-signature ([module X : sig ... end]), counts as used when
   some file outside its own module calls it:
   - qualified, as [M.v], where [M] is the module, a module that
     re-exports it ([module N = ...M] or [include ...M] anywhere in the
     scanned files), or, for a value of sub-signature [X], as [X.v];
   - bare [v] in a file that opens one of those names ([open M],
     [let open M in], [M.( ... )], [include M]);
   - any value of a module passed whole as an argument ([F (M)],
     [(module M)]).
   Values used only inside their own module belong out of the [.mli];
   values used nowhere belong out of the library.

   Optional arguments. Every [?l:] of such a [val] (at bracket depth 0
   of its type, so not one of a callback's) counts as passed when some
   [.ml] outside its own module names the module, or a name that
   denotes it, and contains [~l] or [?l]. An option no caller sets is a
   constant in disguise.

   Tests are not among the DIRs: code that only they reach is dead
   weight in the library. ALLOW_FILE lists values that stay exported
   without a caller, one [Module.value # reason] per line, and options
   that stay without a setter, one [Module.value ?l # reason] per line
   ([#] lines are comments); an entry without a reason, or one that
   names no uncalled value or unpassed option, is an error. Exit 1
   naming every unused module, uncalled value, unpassed option and
   stale allow-list entry, otherwise exit 0; exit 2 on a malformed
   allow-list.

   The check is by name, so it can miss dead code (an unrelated module
   of the same name also counts as a re-export, a local [v] in a file
   that opens [M] counts as a call, any [~l] in a file naming [M]
   counts as passing [l]) but never flags a live value or option. *)

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

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* A token is an identifier or keyword, or one punctuation character;
   each carries its line. *)
type token = { text : string; line : int }

(* The tokens of [s], skipping (nested) comments, string literals,
   quoted strings and character literals. *)
let tokenize s =
  let n = String.length s in
  let line = ref 1 in
  let out = ref [] in
  let advance i j =
    for k = i to min n j - 1 do
      if s.[k] = '\n' then incr line
    done;
    j
  in
  let rec string_end i =
    if i >= n then n
    else
      match s.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  (* [{id|...|id}] starting at [i] (on the brace), if it is one. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do
      incr j
    done;
    if !j < n && s.[!j] = '|' then
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then Some n
        else if String.sub s k m = close then Some (k + m)
        else find (k + 1)
      in
      find (!j + 1)
    else None
  in
  let rec comment_end depth i =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      comment_end (depth + 1) (i + 2)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if s.[i] = '"' then comment_end depth (string_end (i + 1))
    else comment_end depth (i + 1)
  in
  let rec scan i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' ->
        scan (advance i (comment_end 1 (i + 2)))
      | '"' -> scan (advance i (string_end (i + 1)))
      | '{' when quoted_end i <> None ->
        scan (advance i (Option.get (quoted_end i)))
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
        scan
          (match String.index_from_opt s (min n (i + 3)) '\'' with
          | Some j -> j + 1
          | None -> n)
      | '\'' when i + 2 < n && s.[i + 2] = '\'' && s.[i + 1] <> '\n' ->
        scan (i + 3)
      | c when is_ident c ->
        let j = ref i in
        while !j < n && is_ident s.[!j] do
          incr j
        done;
        out := { text = String.sub s i (!j - i); line = !line } :: !out;
        scan !j
      | ' ' | '\t' | '\r' -> scan (i + 1)
      | '\n' ->
        incr line;
        scan (i + 1)
      | c ->
        out := { text = String.make 1 c; line = !line } :: !out;
        scan (i + 1)
  in
  scan 0;
  Array.of_list (List.rev !out)

let stem f = Filename.remove_extension f

let module_name f = String.capitalize_ascii (Filename.basename (stem f))

(* A value an [.mli] exports: its module, the innermost named
   sub-signature it sits in (if any), its name, where it is, and its
   optional arguments with their lines. *)
type value = { file : string; line : int; modname : string; sub : string option;
               name : string; options : (string * int) list }

let label v =
  String.concat "." ([ v.modname ] @ Option.to_list v.sub @ [ v.name ])

(* The [?l:] labels of the [val] whose name is token [i]: those at
   bracket depth 0, up to the next signature item. *)
let options toks i =
  let n = Array.length toks in
  let text j = if j < n then toks.(j).text else "" in
  let rec go j depth acc =
    if j >= n then List.rev acc
    else
      match text j with
      | "val" | "external" | "type" | "exception" | "module" | "include"
      | "open" | "class" | "end"
        when depth = 0 ->
        List.rev acc
      | "(" | "[" | "{" -> go (j + 1) (depth + 1) acc
      | ")" | "]" | "}" -> go (j + 1) (depth - 1) acc
      | "?" when depth = 0 && text (j + 2) = ":" ->
        go (j + 3) depth ((text (j + 1), toks.(j + 1).line) :: acc)
      | _ -> go (j + 1) depth acc
  in
  go (i + 1) 0 []

(* The [val]s of one [.mli]. [sig] opens a frame, named when it follows
   [module X :]; [end] closes one. Values inside an unnamed frame
   ([module type S = sig], a functor parameter) are requirements, not
   exports. *)
let values file toks =
  let modname = module_name file in
  let n = Array.length toks in
  let tok i = if i >= 0 && i < n then toks.(i).text else "" in
  let frames = ref [] in
  let found = ref [] in
  for i = 0 to n - 1 do
    match tok i with
    | "sig" ->
      let name =
        if tok (i - 1) = ":" && tok (i - 3) = "module" && is_upper (tok (i - 2))
        then Some (tok (i - 2))
        else None
      in
      frames := name :: !frames
    | "end" -> ( match !frames with _ :: rest -> frames := rest | [] -> ())
    | "val" | "external" when List.for_all Option.is_some !frames ->
      let sub = match !frames with sub :: _ -> sub | [] -> None in
      found :=
        { file; line = toks.(i).line; modname; sub; name = tok (i + 1);
          options = options toks (i + 1) }
        :: !found
    | _ -> ()
  done;
  List.rev !found

(* The last component of the module path starting at token [i], and
   whether the path ends there (is not followed by [.] or an
   application). *)
let path_end toks i =
  let n = Array.length toks in
  let rec go i =
    if i + 2 < n && toks.(i + 1).text = "." && is_upper toks.(i + 2).text then go (i + 2)
    else i
  in
  if i < n && is_upper toks.(i).text then
    let j = go i in
    Some (toks.(j).text, j + 1 >= n || (toks.(j + 1).text <> "." && toks.(j + 1).text <> "("))
  else None

(* Module-level facts about one scanned file: [aliases] are
   (alias, target) pairs it declares ([module X = P], [include P] making
   the file's own module an alias of P's last component); [opened] are
   the names it opens; [whole] the names it passes as a module;
   [labelled] the names that follow a [~] or [?]. *)
type facts = {
  path : string;
  toks : token array;
  idents : (string, unit) Hashtbl.t;
  qualified : (string * string, unit) Hashtbl.t;
  labelled : (string, unit) Hashtbl.t;
  opened : string list;
  whole : string list;
  aliases : (string * string) list;
}

let facts path =
  let toks = tokenize (read_file path) in
  let n = Array.length toks in
  let text i = if i >= 0 && i < n then toks.(i).text else "" in
  let idents = Hashtbl.create 256 in
  let qualified = Hashtbl.create 64 in
  let labelled = Hashtbl.create 64 in
  let opened = ref [] and whole = ref [] and aliases = ref [] in
  for i = 0 to n - 1 do
    let t = text i in
    if t <> "" && is_ident t.[0] then Hashtbl.replace idents t ();
    if (t = "~" || t = "?") && text (i + 1) <> "" && is_ident (text (i + 1)).[0]
    then Hashtbl.replace labelled (text (i + 1)) ();
    if is_upper t && text (i + 1) = "." then begin
      let next = text (i + 2) in
      if next = "(" then opened := t :: !opened
      else if next <> "" && is_ident next.[0] && not (is_upper next) then
        Hashtbl.replace qualified (t, next) ()
    end;
    if is_upper t && text (i - 1) = "(" && text (i + 1) = ")" then
      whole := t :: !whole;
    if t = "(" && text (i + 1) = "module" then
      Option.iter (fun (m, _) -> whole := m :: !whole) (path_end toks (i + 2));
    (match t with
    | "open" | "include" -> (
      let j = if text (i + 1) = "!" then i + 2 else i + 1 in
      match path_end toks j with
      | Some (m, _) ->
        opened := m :: !opened;
        if t = "include" then aliases := (module_name path, m) :: !aliases
      | None -> ())
    | "module" when is_upper (text (i + 1)) && text (i + 2) = "=" -> (
      match path_end toks (i + 3) with
      | Some (m, true) -> aliases := (text (i + 1), m) :: !aliases
      | _ -> ())
    | _ -> ())
  done;
  { path; toks; idents; qualified; labelled; opened = !opened; whole = !whole;
    aliases = !aliases }

(* Every name that denotes module [m]: itself and, transitively, each
   alias of a name that denotes it. *)
let names_of aliases m =
  let rec grow acc =
    let more =
      List.filter_map
        (fun (a, target) ->
          if List.mem target acc && not (List.mem a acc) then Some a else None)
        aliases
    in
    if more = [] then acc else grow (List.sort_uniq compare (more @ acc))
  in
  grow [ m ]

let own v f = stem f = stem v.file

let called aliases files v =
  let names = names_of aliases (Option.value v.sub ~default:v.modname) in
  List.exists
    (fun fx ->
      (not (own v fx.path))
      && List.exists
           (fun m ->
             Hashtbl.mem fx.qualified (m, v.name)
             || List.mem m fx.whole
             || (List.mem m fx.opened && Hashtbl.mem fx.idents v.name))
           names)
    files

let passed aliases files v option =
  let names = names_of aliases (Option.value v.sub ~default:v.modname) in
  List.exists
    (fun fx ->
      (not (own v fx.path))
      && Filename.check_suffix fx.path ".ml"
      && Hashtbl.mem fx.labelled option
      && List.exists (Hashtbl.mem fx.idents) names)
    files

(* The allow-list: [(label, line)] for every [Module.value # reason] or
   [Module.value ?l # reason] line. *)
let read_allow file =
  String.split_on_char '\n' (read_file file)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (i, l) ->
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l '#' with
           | Some k when String.trim (String.sub l (k + 1) (String.length l - k - 1)) <> "" ->
             Some (String.trim (String.sub l 0 k), i)
           | _ ->
             Printf.eprintf "%s:%d: allow-list entry without a '# reason'\n" file i;
             exit 2)

let () =
  match Array.to_list Sys.argv with
  | _ :: allow_file :: lib :: dirs ->
    let allow = read_allow allow_file in
    let files = List.map facts (List.concat_map sources (lib :: dirs)) in
    let lib_files = sources lib in
    let unused =
      List.filter
        (fun ml ->
          let own f = stem f = stem ml in
          not
            (List.exists
               (fun fx -> (not (own fx.path)) && Hashtbl.mem fx.idents (module_name ml))
               files))
        (List.filter (fun f -> Filename.check_suffix f ".ml") lib_files)
    in
    let aliases = List.concat_map (fun fx -> fx.aliases) files in
    (* (file, line, label, complaint) for every uncalled value and every
       unpassed option of a called one. *)
    let uncalled =
      List.filter (fun f -> Filename.check_suffix f ".mli") lib_files
      |> List.concat_map (fun mli ->
             values mli (List.find (fun fx -> fx.path = mli) files).toks)
      |> List.concat_map (fun v ->
             if not (called aliases files v) then
               [ (v.file, v.line, label v, "has no caller outside its own module") ]
             else
               List.filter (fun (o, _) -> not (passed aliases files v o)) v.options
               |> List.map (fun (o, line) ->
                      ( v.file, line, label v ^ " ?" ^ o,
                        "is passed by no caller outside its own module" )))
    in
    let dead =
      List.filter (fun (_, _, l, _) -> not (List.mem_assoc l allow)) uncalled
    in
    let stale =
      List.filter
        (fun (l, _) -> not (List.exists (fun (_, _, l', _) -> l' = l) uncalled))
        allow
    in
    if unused <> [] then
      prerr_endline
        ("modules used by no file outside their own (only tests reach them): "
        ^ String.concat ", " unused);
    List.iter
      (fun (file, line, l, complaint) ->
        Printf.eprintf "%s:%d: %s %s\n" file line l complaint)
      dead;
    List.iter
      (fun (l, i) ->
        Printf.eprintf "%s:%d: allow-list entry %s names no uncalled value\n"
          allow_file i l)
      stale;
    if unused <> [] || dead <> [] || stale <> [] then exit 1
  | _ ->
    prerr_endline "usage: check_modules ALLOW_FILE LIB_DIR DIR...";
    exit 2
