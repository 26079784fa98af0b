(* Neither this comment's Shapes.dead nor the string below is a call. *)
let () =
  print_int Geometry.reexported;
  print_string "Shapes.dead"
