type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of int * string

(* Recursive-descent over the raw string; [pos] is the only state. *)
type state = { src : string; mutable pos : int }

let error st msg = raise (Error (st.pos, msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> error st (Printf.sprintf "expected %c" c)

let hex_digit st = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> error st "bad \\u escape"

(* Encode one Unicode scalar as UTF-8; surrogate pairs in the input
   are combined by the caller. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
      v := (!v lsl 4) lor hex_digit st c;
      advance st
    | None -> error st "bad \\u escape"
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'u' ->
        advance st;
        let u = parse_hex4 st in
        let u =
          if u >= 0xD800 && u <= 0xDBFF then begin
            (* High surrogate: require the low half. *)
            expect st '\\';
            expect st 'u';
            let lo = parse_hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then error st "unpaired surrogate";
            0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else u
        in
        add_utf8 buf u
      | _ -> error st "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c when num_char c -> true | _ -> false do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ -> error st (Printf.sprintf "number out of range %S" s)
  | None -> error st (Printf.sprintf "bad number %S" s)

let parse_literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> error st (Printf.sprintf "unexpected %C" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let k = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ((k, v) :: acc)
      | Some '}' ->
        advance st;
        List.rev ((k, v) :: acc)
      | _ -> error st "expected , or }"
    in
    Obj (members [])
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements (v :: acc)
      | Some ']' ->
        advance st;
        List.rev (v :: acc)
      | _ -> error st "expected , or ]"
    in
    List (elements [])
  end

let parse s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then error st "trailing input";
    v
  with
  | v -> Ok v
  | exception Error (pos, msg) ->
    Result.Error (Printf.sprintf "JSON parse error at byte %d: %s" pos msg)

let parse_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go acc (i + 1) rest
      else begin
        match parse line with
        | Ok v -> go (v :: acc) (i + 1) rest
        | Result.Error msg -> Result.Error (Printf.sprintf "line %d: %s" i msg)
      end
  in
  go [] 1 lines

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.17g" v)
  else escape_string buf (Printf.sprintf "%h" v)

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> add_num buf v
    | Str s -> escape_string buf s
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        vs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf
