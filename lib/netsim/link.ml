type t = Netgraph.Graph.node * Netgraph.Graph.node

let compare = Stdlib.compare

let name g (u, v) =
  Printf.sprintf "%s-%s" (Netgraph.Graph.name g u) (Netgraph.Graph.name g v)

type capacities = {
  default : float;
  table : (t, float) Hashtbl.t;
}

let capacities ~default =
  if default <= 0. then invalid_arg "Link.capacities: default must be positive";
  { default; table = Hashtbl.create 16 }

let set c link value =
  if value <= 0. then invalid_arg "Link.set: capacity must be positive";
  Hashtbl.replace c.table link value

let set_link c (u, v) value =
  set c (u, v) value;
  set c (v, u) value

let capacity c link =
  Option.value ~default:c.default (Hashtbl.find_opt c.table link)
