module Graph = Netgraph.Graph

type split = { next_hop : Graph.node; fraction : float }

type router_requirement = { router : Graph.node; splits : split list }

type t = { prefix : Igp.Lsa.prefix; routers : router_requirement list }

let make ~prefix assocs =
  {
    prefix;
    routers =
      List.map
        (fun (router, splits) ->
          {
            router;
            splits =
              List.map (fun (next_hop, fraction) -> { next_hop; fraction }) splits;
          })
        assocs;
  }

let find t router = List.find_opt (fun r -> r.router = router) t.routers

let validate net t =
  let g = Igp.Network.graph net in
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let announcers = Igp.Lsdb.announcers (Igp.Network.lsdb net) t.prefix in
  if announcers = [] then error "prefix %s is not announced" (Igp.Prefix.to_string t.prefix);
  let seen_routers = Hashtbl.create 8 in
  List.iter
    (fun { router; splits } ->
      let rname = Graph.name g router in
      if Hashtbl.mem seen_routers router then
        error "router %s appears twice" rname;
      Hashtbl.replace seen_routers router ();
      if List.mem router announcers then
        error "router %s announces %s itself; its delivery cannot be overridden" rname (Igp.Prefix.to_string t.prefix);
      if splits = [] then error "router %s has no next hops" rname;
      let seen_hops = Hashtbl.create 8 in
      List.iter
        (fun { next_hop; fraction } ->
          if Hashtbl.mem seen_hops next_hop then
            error "router %s lists next hop %s twice" rname (Graph.name g next_hop);
          Hashtbl.replace seen_hops next_hop ();
          if not (Graph.has_edge g router next_hop) then
            error "%s is not a neighbor of %s" (Graph.name g next_hop) rname;
          if fraction <= 0. || fraction > 1. then
            error "router %s: fraction %g out of (0, 1]" rname fraction)
        splits;
      let sum = List.fold_left (fun acc s -> acc +. s.fraction) 0. splits in
      if abs_float (sum -. 1.) > 1e-6 then
        error "router %s: fractions sum to %g, not 1" rname sum)
    t.routers;
  match List.rev !errors with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " errs)

let pp ~names fmt t =
  Format.fprintf fmt "requirements(%s):@." (Igp.Prefix.to_string t.prefix);
  List.iter
    (fun { router; splits } ->
      Format.fprintf fmt "  %s -> %a@." (names router)
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           (fun fmt s -> Format.fprintf fmt "%s:%.3f" (names s.next_hop) s.fraction))
        splits)
    t.routers
