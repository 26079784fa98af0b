open Shapes

let () = print_int opened
