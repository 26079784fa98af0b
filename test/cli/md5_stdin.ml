(* Print the MD5 digest of standard input, in hex, on one line. The
   chaos-timeline golden keeps the digest of a sweep's 14 MB JSON
   timeline instead of the timeline itself. *)
let () =
  set_binary_mode_in stdin true;
  print_endline (Digest.to_hex (Digest.channel stdin (-1)))
