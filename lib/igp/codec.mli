(** Binary wire format for LSAs.

    The real Fibbing controller speaks OSPF on the wire: it forges
    type-1 (router) and type-5 (external, with forwarding address) LSAs
    byte by byte. This module provides an OSPF-flavoured binary codec so
    the simulated controller exercises the same serialize-flood-parse
    path: a 16-byte common header (age, type, origin, sequence number,
    length) protected by a Fletcher-16 checksum over the body, followed
    by a per-type payload. Fake LSAs use a private opaque type carrying
    the attachment and forwarding-address mapping.

    Decoding is total: malformed input yields [Error] with a reason,
    never an exception. *)

type packet = {
  lsa : Lsa.t;
  sequence : int;  (** 32-bit, as flooded. *)
}

val encode : packet -> bytes
(** Encodes with age 0, as the originator floods it. Raises
    [Invalid_argument] if a name exceeds 255 bytes, a cost exceeds its
    24-bit field, a node id exceeds 32 bits, or [sequence] is out of
    range. *)

val decode : bytes -> (packet, string) result
(** Checks length consistency and the checksum. The age field (bytes
    0–1) is outside the checksum, as in OSPF, so relays can age a packet
    without re-summing. *)

val wire_length : packet -> int
(** Length of [encode packet] without building it. *)
