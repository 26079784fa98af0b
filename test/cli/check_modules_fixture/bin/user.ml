(* Neither this comment's Shapes.dead nor the string below is a call. *)
let () =
  print_int Geometry.reexported;
  print_int (Shapes.scale ~factor:2 3);
  print_string "Shapes.dead"
