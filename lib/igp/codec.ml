type packet = { lsa : Lsa.t; sequence : int }

let header_length = 16

(* Header layout (offsets):
     0  u16  age                (excluded from the checksum)
     2  u8   version = 2
     3  u8   type: 1 router, 5 external, 9 fake (opaque)
     4  u32  origin router id (the attachment for fakes)
     8  u32  sequence number
     12 u16  total length
     14 u16  Fletcher-16 over bytes [2, length) with this field zeroed
   Strings are u8 length + raw bytes; metrics are u16 (router links) or
   u24 (announced costs), ids u32. *)

let fletcher16 buf ~pos ~len =
  let sum1 = ref 0 and sum2 = ref 0 in
  for i = pos to pos + len - 1 do
    sum1 := (!sum1 + Char.code (Bytes.get buf i)) mod 255;
    sum2 := (!sum2 + !sum1) mod 255
  done;
  (!sum2 lsl 8) lor !sum1

let check_range name value bits =
  if value < 0 || (bits < 63 && value >= 1 lsl bits) then
    invalid_arg (Printf.sprintf "Codec.encode: %s out of %d-bit range" name bits)

let check_name name value =
  if String.length value > 255 then
    invalid_arg (Printf.sprintf "Codec.encode: %s longer than 255 bytes" name)

let string_length s = 1 + String.length s

(* Prefixes travel as their canonical text form (name or CIDR); the
   decoder re-validates through [Prefix.of_string]. *)
let prefix_string = Prefix.to_string

let body_length = function
  | Lsa.Router { links; _ } -> 2 + (6 * List.length links)
  | Lsa.Prefix { prefix; _ } -> string_length (prefix_string prefix) + 3 + 4
  | Lsa.Fake f ->
    string_length f.fake_id + 2 + string_length (prefix_string f.prefix) + 3 + 4

let wire_length packet = header_length + body_length packet.lsa

let put_u8 buf pos v =
  Bytes.set_uint8 buf pos v;
  pos + 1

let put_u16 buf pos v =
  Bytes.set_uint16_be buf pos v;
  pos + 2

let put_u24 buf pos v =
  let pos = put_u8 buf pos ((v lsr 16) land 0xff) in
  put_u16 buf pos (v land 0xffff)

let put_u32 buf pos v =
  Bytes.set_int32_be buf pos (Int32.of_int v);
  pos + 4

let put_string buf pos s =
  let pos = put_u8 buf pos (String.length s) in
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let type_code = function
  | Lsa.Router _ -> 1
  | Lsa.Prefix _ -> 5
  | Lsa.Fake _ -> 9

let origin_of = function
  | Lsa.Router { origin; _ } -> origin
  | Lsa.Prefix { origin; _ } -> origin
  | Lsa.Fake f -> f.attachment

let encode packet =
  check_range "sequence" packet.sequence 32;
  check_range "origin" (origin_of packet.lsa) 32;
  (match packet.lsa with
  | Lsa.Router { links; _ } ->
    List.iter
      (fun (neighbor, metric) ->
        check_range "neighbor" neighbor 32;
        check_range "link metric" metric 16)
      links;
    if List.length links > 0xffff then invalid_arg "Codec.encode: too many links"
  | Lsa.Prefix { prefix; cost; _ } ->
    check_name "prefix" (prefix_string prefix);
    check_range "external metric" cost 24
  | Lsa.Fake f ->
    check_name "fake id" f.fake_id;
    check_name "prefix" (prefix_string f.prefix);
    check_range "attachment cost" f.attachment_cost 16;
    check_range "announced cost" f.announced_cost 24;
    check_range "forwarding" f.forwarding 32);
  let length = wire_length packet in
  let buf = Bytes.create length in
  let pos = put_u16 buf 0 0 in
  let pos = put_u8 buf pos 2 in
  let pos = put_u8 buf pos (type_code packet.lsa) in
  let pos = put_u32 buf pos (origin_of packet.lsa) in
  let pos = put_u32 buf pos packet.sequence in
  let pos = put_u16 buf pos length in
  let pos = put_u16 buf pos 0 (* checksum placeholder *) in
  let pos =
    match packet.lsa with
    | Lsa.Router { links; _ } ->
      let pos = put_u16 buf pos (List.length links) in
      List.fold_left
        (fun pos (neighbor, metric) ->
          let pos = put_u32 buf pos neighbor in
          put_u16 buf pos metric)
        pos links
    | Lsa.Prefix { prefix; cost; _ } ->
      let pos = put_string buf pos (prefix_string prefix) in
      let pos = put_u24 buf pos cost in
      put_u32 buf pos 0 (* forwarding address: none *)
    | Lsa.Fake f ->
      let pos = put_string buf pos f.fake_id in
      let pos = put_u16 buf pos f.attachment_cost in
      let pos = put_string buf pos (prefix_string f.prefix) in
      let pos = put_u24 buf pos f.announced_cost in
      put_u32 buf pos f.forwarding
  in
  assert (pos = length);
  let sum = fletcher16 buf ~pos:2 ~len:(length - 2) in
  Bytes.set_uint16_be buf 14 sum;
  buf

(* -------- decoding -------- *)

type cursor = { buf : bytes; mutable pos : int; limit : int }

exception Malformed of string

let need c n what =
  if c.pos + n > c.limit then
    raise (Malformed (Printf.sprintf "truncated %s at offset %d" what c.pos))

let get_u8 c what =
  need c 1 what;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let get_u16 c what =
  need c 2 what;
  let v = Bytes.get_uint16_be c.buf c.pos in
  c.pos <- c.pos + 2;
  v

let get_u24 c what =
  let hi = get_u8 c what in
  let lo = get_u16 c what in
  (hi lsl 16) lor lo

let get_u32 c what =
  need c 4 what;
  let v = Int32.to_int (Bytes.get_int32_be c.buf c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  v

let get_string c what =
  let len = get_u8 c what in
  need c len what;
  let s = Bytes.sub_string c.buf c.pos len in
  c.pos <- c.pos + len;
  s

(* A wire prefix must parse: any malformed prefix string used to slip
   through here as an unroutable exact-match destination. *)
let get_prefix c what =
  let s = get_string c what in
  match Prefix.of_string s with
  | Ok p -> p
  | Error reason ->
    raise (Malformed (Printf.sprintf "%s at offset %d: %s" what c.pos reason))

let decode buf =
  try
    if Bytes.length buf < header_length then raise (Malformed "truncated header");
    let version = Bytes.get_uint8 buf 2 in
    if version <> 2 then
      raise (Malformed (Printf.sprintf "unsupported version %d" version));
    let length = Bytes.get_uint16_be buf 12 in
    if length <> Bytes.length buf then
      raise
        (Malformed
           (Printf.sprintf "length field %d does not match buffer %d" length
              (Bytes.length buf)));
    let received_sum = Bytes.get_uint16_be buf 14 in
    let copy = Bytes.copy buf in
    Bytes.set_uint16_be copy 14 0;
    let computed = fletcher16 copy ~pos:2 ~len:(length - 2) in
    if received_sum <> computed then
      raise
        (Malformed
           (Printf.sprintf "checksum mismatch: got %04x, computed %04x"
              received_sum computed));
    let lsa_type = Bytes.get_uint8 buf 3 in
    let origin = Int32.to_int (Bytes.get_int32_be buf 4) land 0xffffffff in
    let sequence = Int32.to_int (Bytes.get_int32_be buf 8) land 0xffffffff in
    let c = { buf; pos = header_length; limit = length } in
    let lsa =
      match lsa_type with
      | 1 ->
        let count = get_u16 c "link count" in
        let links =
          List.init count (fun _ ->
              let neighbor = get_u32 c "neighbor" in
              let metric = get_u16 c "metric" in
              (neighbor, metric))
        in
        Lsa.Router { origin; links }
      | 5 ->
        let prefix = get_prefix c "prefix" in
        let cost = get_u24 c "metric" in
        let _forwarding = get_u32 c "forwarding" in
        Lsa.Prefix { origin; prefix; cost }
      | 9 ->
        let fake_id = get_string c "fake id" in
        let attachment_cost = get_u16 c "attachment cost" in
        let prefix = get_prefix c "prefix" in
        let announced_cost = get_u24 c "announced cost" in
        let forwarding = get_u32 c "forwarding" in
        Lsa.Fake
          {
            fake_id;
            attachment = origin;
            attachment_cost;
            prefix;
            announced_cost;
            forwarding;
          }
      | t -> raise (Malformed (Printf.sprintf "unknown LSA type %d" t))
    in
    if c.pos <> c.limit then
      raise (Malformed (Printf.sprintf "%d trailing bytes" (c.limit - c.pos)));
    Ok { lsa; sequence }
  with Malformed reason -> Error reason
