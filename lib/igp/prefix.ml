(* A prefix is one immediate int: the 32-bit network address shifted
   left 6, or-ed with the mask length (0..32). The packing keeps the
   value unboxed, gives canonical structural equality (there is exactly
   one representation per prefix, since [make] rejects set host bits)
   and lets Hashtbl's polymorphic hash treat prefixes as plain ints. *)

type t = int

let mask32 = 0xFFFFFFFF

let net_mask len = if len = 0 then 0 else mask32 lxor (mask32 lsr len)

let make ~addr ~len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Prefix.make: mask length %d not in 0..32" len);
  if addr land lnot mask32 <> 0 then
    invalid_arg (Printf.sprintf "Prefix.make: address %#x exceeds 32 bits" addr);
  if addr land lnot (net_mask len) <> 0 then
    invalid_arg
      (Printf.sprintf "Prefix.make: host bits set below /%d in %#x" len addr);
  (addr lsl 6) lor len

let addr t = t lsr 6

let len t = t land 0x3F

let equal (a : t) (b : t) = a = b

let first_addr t = addr t

let last_addr t = addr t lor (mask32 lsr len t land mask32)

(* ---- Named prefixes --------------------------------------------------
   The seed topologies announce prefixes by name ("blue", "cdn", "p07").
   Each name maps deterministically to a synthetic host route inside the
   reserved class-E block 240.0.0.0/4 — FNV-1a over the name picks the
   low 28 bits, linear probing resolves the (astronomically unlikely)
   collisions. The registry is global and mutex-guarded: named prefixes
   must resolve identically across domains, runs and wire round-trips,
   or timelines stop being byte-identical. *)

let registry_lock = Mutex.create ()

let name_of_packed : (int, string) Hashtbl.t = Hashtbl.create 64

let packed_of_name : (string, int) Hashtbl.t = Hashtbl.create 64

let fnv1a_32 s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land mask32)
    s;
  !h

let named name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt packed_of_name name with
      | Some p -> p
      | None ->
        let rec probe a =
          let candidate = make ~addr:(0xF0000000 lor (a land 0x0FFFFFFF)) ~len:32 in
          match Hashtbl.find_opt name_of_packed candidate with
          | None ->
            Hashtbl.replace name_of_packed candidate name;
            Hashtbl.replace packed_of_name name candidate;
            candidate
          | Some other when String.equal other name -> candidate
          | Some _ -> probe (a + 1)
        in
        probe (fnv1a_32 name))

let is_name s =
  String.length s > 0
  && String.length s <= 255
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false)
  &&
  let ok = ref true in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> ()
      | _ -> ok := false)
    s;
  !ok

(* ---- Parsing --------------------------------------------------------- *)

let parse_octet s ~pos ~stop =
  (* [pos..stop) must be 1-3 digits, value 0..255, no leading-zero octets
     longer than one digit (rejects "010.0.0.0" as ambiguous). *)
  let n = stop - pos in
  if n = 0 then Error "empty octet"
  else if n > 3 then Error (Printf.sprintf "octet %S too long" (String.sub s pos n))
  else begin
    let v = ref 0 and ok = ref true in
    for i = pos to stop - 1 do
      match s.[i] with
      | '0' .. '9' as c -> v := (!v * 10) + (Char.code c - Char.code '0')
      | _ -> ok := false
    done;
    if not !ok then
      Error (Printf.sprintf "octet %S is not a number" (String.sub s pos n))
    else if n > 1 && s.[pos] = '0' then
      Error (Printf.sprintf "octet %S has a leading zero" (String.sub s pos n))
    else if !v > 255 then
      Error (Printf.sprintf "octet %S out of range 0..255" (String.sub s pos n))
    else Ok !v
  end

let parse_dotted_quad s ~stop =
  (* Parses "A.B.C.D" in s.[0..stop). *)
  let rec split pos dots acc =
    if dots = 3 then
      match parse_octet s ~pos ~stop with
      | Error e -> Error e
      | Ok v -> Ok ((acc lsl 8) lor v)
    else
      match String.index_from_opt s pos '.' with
      | None -> Error "expected four dot-separated octets"
      | Some dot when dot >= stop -> Error "expected four dot-separated octets"
      | Some dot -> (
        match parse_octet s ~pos ~stop:dot with
        | Error e -> Error e
        | Ok v -> split (dot + 1) (dots + 1) ((acc lsl 8) lor v))
  in
  split 0 0 0

let parse_len s ~pos =
  let stop = String.length s in
  let n = stop - pos in
  if n = 0 then Error "empty mask length after '/'"
  else if n > 2 then
    Error (Printf.sprintf "mask length %S out of range 0..32" (String.sub s pos n))
  else begin
    let v = ref 0 and ok = ref true in
    for i = pos to stop - 1 do
      match s.[i] with
      | '0' .. '9' as c -> v := (!v * 10) + (Char.code c - Char.code '0')
      | _ -> ok := false
    done;
    if not !ok then
      Error (Printf.sprintf "mask length %S is not a number" (String.sub s pos n))
    else if !v > 32 then
      Error (Printf.sprintf "mask length %S out of range 0..32" (String.sub s pos n))
    else Ok !v
  end

let of_string s =
  let fail reason = Error (Printf.sprintf "bad prefix %S: %s" s reason) in
  if String.length s = 0 then fail "empty"
  else if is_name s then Ok (named s)
  else if not (String.contains s '.') then
    fail "not a CIDR prefix or a name ([A-Za-z_][A-Za-z0-9_-]*)"
  else
    let addr_stop, plen =
      match String.index_opt s '/' with
      | None -> (String.length s, Ok 32)
      | Some slash -> (slash, parse_len s ~pos:(slash + 1))
    in
    match plen with
    | Error e -> fail e
    | Ok l -> (
      match parse_dotted_quad s ~stop:addr_stop with
      | Error e -> fail e
      | Ok a ->
        if a land lnot (net_mask l) <> 0 then
          fail (Printf.sprintf "host bits set below /%d" l)
        else Ok (make ~addr:a ~len:l))

let v s = match of_string s with Ok t -> t | Error e -> invalid_arg e

let to_string t =
  match Mutex.protect registry_lock (fun () -> Hashtbl.find_opt name_of_packed t)
  with
  | Some name -> name
  | None ->
    let a = addr t in
    let quad =
      Printf.sprintf "%d.%d.%d.%d" (a lsr 24) ((a lsr 16) land 0xFF)
        ((a lsr 8) land 0xFF) (a land 0xFF)
    in
    if len t = 32 then quad else Printf.sprintf "%s/%d" quad (len t)

(* ---- Synthetic table generator --------------------------------------
   Production FIB dumps are heavy-tailed: a few popular aggregates own
   most of the more-specifics. We model that with a Zipf choice over
   existing prefixes — each new entry either opens a fresh short root
   (/8../24) or subdivides a Zipf-rank-picked existing prefix by 1..8
   extra mask bits. Dedup keeps exactly [n] distinct prefixes. *)

let synthesize rng ~n =
  if n < 0 then invalid_arg "Prefix.synthesize: n < 0";
  let seen = Hashtbl.create (2 * n) in
  let parents = ref [||] in
  let count = ref 0 in
  let add p =
    if Hashtbl.mem seen p then false
    else begin
      Hashtbl.replace seen p ();
      if !count = Array.length !parents then begin
        let grown = Array.make (max 16 (2 * !count)) p in
        Array.blit !parents 0 grown 0 !count;
        parents := grown
      end;
      !parents.(!count) <- p;
      incr count;
      true
    end
  in
  let fresh_root () =
    let l = 8 + Kit.Prng.int rng 17 (* /8../24 *) in
    let top = Kit.Prng.int rng 0xE0 (* stay below 224.0.0.0 *) in
    let rest = Int64.to_int (Kit.Prng.bits64 rng) land 0xFFFFFF in
    make ~addr:((top lsl 24) lor rest land net_mask l) ~len:l
  in
  (* Zipf rank over current parents: rank ~ floor(k / u) biases hard
     toward early (popular) prefixes without a harmonic table. *)
  let zipf_pick () =
    let k = !count in
    let u = Kit.Prng.float rng 1.0 in
    let rank = int_of_float (float_of_int k *. (u ** 2.5)) in
    !parents.(min rank (k - 1))
  in
  let child_of p =
    let l = len p in
    if l >= 32 then None
    else begin
      let extra = 1 + Kit.Prng.int rng (min 8 (32 - l)) in
      let l' = l + extra in
      let low = Kit.Prng.bits64 rng |> Int64.to_int in
      let a = addr p lor (low land net_mask l' land lnot (net_mask l) land mask32) in
      Some (make ~addr:(a land net_mask l') ~len:l')
    end
  in
  let rec fill attempts =
    if !count >= n || attempts > 64 * (n + 1) then ()
    else begin
      let placed =
        if !count = 0 || Kit.Prng.float rng 1.0 < 0.15 then add (fresh_root ())
        else
          match child_of (zipf_pick ()) with
          | None -> add (fresh_root ())
          | Some c -> add c
      in
      ignore placed;
      fill (attempts + 1)
    end
  in
  fill 0;
  (* Top up with fresh roots if the nested walk saturated early. *)
  let rec top_up attempts =
    if !count >= n || attempts > 64 * (n + 1) then ()
    else begin
      ignore (add (fresh_root ()));
      top_up (attempts + 1)
    end
  in
  top_up 0;
  List.init !count (fun i -> !parents.(i))
