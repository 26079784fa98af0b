let escape name =
  String.map (fun c -> if c = '-' || c = ' ' || c = '.' then '_' else c) name

let of_graph g =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "graph topology {\n";
  Buffer.add_string buffer "  node [shape=circle fontsize=11];\n";
  List.iter
    (fun v ->
      Buffer.add_string buffer
        (Printf.sprintf "  %s [label=\"%s\"];\n" (escape (Graph.name g v))
           (Graph.name g v)))
    (Graph.nodes g);
  List.iter
    (fun (u, v, w) ->
      (* Emit each symmetric pair once; an asymmetric edge (different or
         missing reverse weight) is emitted from both sides as a
         directed half. *)
      let reverse = Graph.weight g v u in
      let symmetric = reverse = Some w in
      if (symmetric && u < v) || not symmetric then begin
        let attrs =
          Printf.sprintf "label=\"%d\"" w
          :: (if symmetric then [] else [ "dir=forward" ])
        in
        Buffer.add_string buffer
          (Printf.sprintf "  %s -- %s [%s];\n"
             (escape (Graph.name g u))
             (escape (Graph.name g v))
             (String.concat " " attrs))
      end)
    (Graph.edges g);
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer
