module Graph = Netgraph.Graph
module Dijkstra = Netgraph.Dijkstra

type plan = {
  prefix : Igp.Lsa.prefix;
  fakes : Igp.Lsa.fake list;
  expected : (Graph.node * (Graph.node * int) list) list;
  costs : (Graph.node * int) list;
  pinned : Graph.node list;
}

let fake_count plan = List.length plan.fakes

let ( let* ) = Result.bind

let default_tag prefix = Printf.sprintf "fib:%s" (Igp.Prefix.to_string prefix)

let fake_id ~tag ~router_name ~hop_name ~index =
  Printf.sprintf "%s/%s>%s#%d" tag router_name hop_name index

let make_fakes ~tag ~g ~prefix ~router ~total_cost weighted ~skip_one_for =
  (* One fake per multiplicity unit, except that [skip_one_for] next hops
     get their first unit from an existing real route. *)
  List.concat_map
    (fun (next_hop, mult) ->
      let from_fakes = if List.mem next_hop skip_one_for then mult - 1 else mult in
      List.init from_fakes (fun i ->
          {
            Igp.Lsa.fake_id =
              fake_id ~tag ~router_name:(Graph.name g router)
                ~hop_name:(Graph.name g next_hop) ~index:(i + 1);
            attachment = router;
            attachment_cost = 1;
            prefix;
            announced_cost = total_cost - 1;
            forwarding = next_hop;
          }))
    weighted

(* Distances of every router towards [target] on the physical graph. *)
let distances_towards g target =
  let reversed = Graph.reverse g in
  let r = Dijkstra.run reversed ~source:target in
  fun u -> Dijkstra.distance r u

(* One candidate plan: extension where a router's requirement only adds
   paths, override where it removes some, one consistent cost relaxation
   across all lied-to routers. See the .mli for the invariants. *)
let candidate ~max_entries ?tag ~pin net (reqs : Requirements.t) =
  let tag = Option.value ~default:(default_tag reqs.prefix) tag in
  let g = Igp.Network.graph net in
  let* () = Requirements.validate net reqs in
  let* targets =
    (* (router, weighted, real_hops, removal_needed) *)
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | (router, weighted) :: rest ->
        let rname = Graph.name g router in
        (match Igp.Network.fib net ~router reqs.prefix with
        | None -> Error (Printf.sprintf "%s cannot reach %s" rname (Igp.Prefix.to_string reqs.prefix))
        | Some fib ->
          if Igp.Fib.uses_fake fib then
            Error
              (Printf.sprintf
                 "%s already has fake routes for %s; retract them first" rname
                 (Igp.Prefix.to_string reqs.prefix))
          else begin
            let desired_hops = List.map fst weighted in
            let real_hops = Igp.Fib.next_hops fib in
            let removal_needed =
              List.exists (fun nh -> not (List.mem nh desired_hops)) real_hops
            in
            build ((router, weighted, real_hops, removal_needed) :: acc) rest
          end)
    in
    build []
      (List.map
         (fun (rr : Requirements.router_requirement) ->
           (rr.router, Splitting.multiplicities ~max_entries rr.splits))
         reqs.routers
      @ pin)
  in
  let lied = List.map (fun (router, _, _, _) -> router) targets in
  let* () =
    if List.length (List.sort_uniq compare lied) <> List.length lied then
      Error "compile: a router is both required and pinned"
    else Ok ()
  in
  let distance_of v =
    match Igp.Network.distance net ~router:v reqs.prefix with
    | Some d -> d
    | None -> max_int
  in
  let towards = List.map (fun v -> (v, distances_towards g v)) lied in
  (* Start every router at its highest safe cost. *)
  let labels = Hashtbl.create 8 in
  List.iter
    (fun (v, _, _, removal_needed) ->
      Hashtbl.replace labels v (distance_of v - if removal_needed then 1 else 0))
    targets;
  (* An exact-cost tie between u's own lie (at its unchanged distance)
     and the path towards v's lie is harmless when every tied path
     enters u's existing first hops: SPF deduplicates identical next
     hops, so u's FIB is unchanged. This is exactly the situation at A
     in the paper's demo (A's tie with fB goes through B, A's current
     next hop), and allowing it is what keeps the plan at 3 fakes. *)
  let spf_from = Hashtbl.create 8 in
  let tie_allowed u v =
    let (_, _, real_hops, removal_needed) =
      List.find (fun (r, _, _, _) -> r = u) targets
    in
    if removal_needed then false
    else begin
      let result =
        match Hashtbl.find_opt spf_from u with
        | Some r -> r
        | None ->
          let r = Dijkstra.run g ~source:u in
          Hashtbl.replace spf_from u r;
          r
      in
      let hops = Dijkstra.first_hops g result ~target:v in
      hops <> [] && List.for_all (fun h -> List.mem h real_hops) hops
    end
  in
  (* Pairwise consistency: no lied-to router may be captured — or tied,
     except for the harmless case above — by another's lie. *)
  let changed = ref true and passes = ref 0 in
  while !changed && !passes <= List.length lied do
    changed := false;
    incr passes;
    List.iter
      (fun (v, dist_to_v) ->
        let lv = Hashtbl.find labels v in
        List.iter
          (fun u ->
            if u <> v then begin
              match dist_to_v u with
              | None -> ()
              | Some d ->
                let bound =
                  if d + lv = distance_of u && tie_allowed u v then d + lv
                  else d + lv - 1
                in
                if Hashtbl.find labels u > bound then begin
                  Hashtbl.replace labels u bound;
                  changed := true
                end
            end)
          lied)
      towards
  done;
  let* () =
    match List.find_opt (fun v -> Hashtbl.find labels v < 1) lied with
    | Some v ->
      Error
        (Printf.sprintf
           "compile: no positive fake cost exists for %s (requirements too \
            entangled)"
           (Graph.name g v))
    | None -> Ok ()
  in
  let rows =
    List.map
      (fun (router, weighted, real_hops, _) ->
        let cost = Hashtbl.find labels router in
        let skip_one_for = if cost = distance_of router then real_hops else [] in
        let fakes =
          make_fakes ~tag ~g ~prefix:reqs.prefix ~router ~total_cost:cost
            weighted ~skip_one_for
        in
        (router, weighted, cost, fakes))
      targets
  in
  Ok
    {
      prefix = reqs.prefix;
      fakes = List.concat_map (fun (_, _, _, fakes) -> fakes) rows;
      expected = List.map (fun (router, weighted, _, _) -> (router, weighted)) rows;
      costs = List.map (fun (router, _, cost, _) -> (router, cost)) rows;
      pinned = List.map fst pin;
    }

let apply net plan = List.iter (Igp.Network.inject_fake net) plan.fakes

(* Apply the candidate to a clone and check the whole network. *)
let verify_candidate net (reqs : Requirements.t) plan ~baseline =
  let scratch = Igp.Network.clone net in
  apply scratch plan;
  Verify.check scratch ~prefix:reqs.prefix ~expected:plan.expected ~baseline

(* Collateral-repair rounds before [compile] gives up. *)
let max_repairs = 8

let compile ?(max_entries = Splitting.default_max_entries) ?tag net
    (reqs : Requirements.t) =
  let g = Igp.Network.graph net in
  let baseline = Igp.Network.fibs net reqs.prefix in
  let collateral_pins report =
    List.filter_map
      (fun (i : Verify.issue) ->
        match i.kind with
        | `Collateral ->
          Option.map
            (fun fib -> (i.router, Igp.Fib.weights fib))
            (List.assoc_opt i.router baseline)
        | `Requirement -> None)
      report.Verify.issues
  in
  let rec attempt pin round =
    let* plan = candidate ~max_entries ?tag ~pin net reqs in
    let report = verify_candidate net reqs plan ~baseline in
    if report.Verify.ok then Ok plan
    else if round >= max_repairs then
      Error
        (Format.asprintf "augmentation could not be stabilized after %d repairs: %a"
           round
           (Verify.pp_report ~names:(Graph.name g))
           report)
    else begin
      let fresh =
        List.filter
          (fun (router, _) -> not (List.mem_assoc router pin))
          (collateral_pins report)
      in
      if fresh = [] then
        Error
          (Format.asprintf "augmentation has unrepairable issues: %a"
             (Verify.pp_report ~names:(Graph.name g))
             report)
      else attempt (pin @ fresh) (round + 1)
    end
  in
  attempt [] 0
