type prefix = Prefix.t

type fake = {
  fake_id : string;
  attachment : Netgraph.Graph.node;
  attachment_cost : int;
  prefix : prefix;
  announced_cost : int;
  forwarding : Netgraph.Graph.node;
}

type t =
  | Router of { origin : Netgraph.Graph.node; links : (Netgraph.Graph.node * int) list }
  | Prefix of { origin : Netgraph.Graph.node; prefix : prefix; cost : int }
  | Fake of fake

let total_cost f = f.attachment_cost + f.announced_cost

(* OSPF's MaxAge: no LSA outlives this many seconds without a refresh.
   The LSDB clamps every fake's remaining lifetime to it, so even a
   buggy controller cannot install a lie that never expires once it
   stops refreshing. *)
let max_age = 3600.

let pp ~names fmt = function
  | Router { origin; links } ->
    Format.fprintf fmt "Router(%s: %a)" (names origin)
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (fun fmt (v, w) -> Format.fprintf fmt "%s/%d" (names v) w))
      links
  | Prefix { origin; prefix; cost } ->
    Format.fprintf fmt "Prefix(%s via %s cost %d)" (Prefix.to_string prefix)
      (names origin) cost
  | Fake f ->
    Format.fprintf fmt "Fake(%s @@ %s link %d, %s cost %d -> fwd %s)" f.fake_id
      (names f.attachment) f.attachment_cost
      (Prefix.to_string f.prefix)
      f.announced_cost (names f.forwarding)
