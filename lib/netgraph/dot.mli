(** Graphviz DOT export, for eyeballing topologies:
    [fibbingctl topo --dot | dot -Tpng -o topo.png]. *)

val of_graph : Graph.t -> string
(** A DOT graph named [topology]. Symmetric edge pairs collapse to one
    undirected edge labelled with the weight; asymmetric edges are drawn
    directed with their own labels. *)
