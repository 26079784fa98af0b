module Graph = Netgraph.Graph

let m_scenarios = Obs.Metrics.counter "planner.scenarios"
let m_compile_failures = Obs.Metrics.counter "planner.compile_failures"

type scenario = No_failure | Link_failure of Netsim.Link.t

let pp_scenario g fmt = function
  | No_failure -> Format.pp_print_string fmt "no failure"
  | Link_failure link ->
    Format.fprintf fmt "failure of %s" (Netsim.Link.name g link)

let connected_without g (u, v) =
  let g' = Graph.copy g in
  Graph.remove_edge g' u v;
  Graph.remove_edge g' v u;
  let r = Netgraph.Dijkstra.run g' ~source:0 in
  List.for_all (fun w -> Netgraph.Dijkstra.reachable r w) (Graph.nodes g')

let single_link_failures g =
  let undirected = List.filter (fun (u, v, _) -> u < v) (Graph.edges g) in
  No_failure
  :: List.filter_map
       (fun (u, v, _) ->
         if connected_without g (u, v) then Some (Link_failure (u, v)) else None)
       undirected

type entry = {
  scenario : scenario;
  igp_utilization : float;
  planned_utilization : float;
  optimal_utilization : float;
  plan : Fibbing.Augmentation.plan option;
  note : string option;
}

let utilization net demands ~capacity =
  match
    Netsim.Loadmap.max_utilization
      (Netsim.Loadmap.propagate net demands)
      (Netsim.Link.capacities ~default:capacity)
  with
  | Some (_, u) -> u
  | None -> 0.
  | exception Netsim.Loadmap.Unreachable _ -> infinity
  | exception Netsim.Loadmap.Forwarding_loop _ -> infinity

let prepare ?(epsilon = 0.1) ?(max_entries = 16) net ~demands ~capacity
    ~scenarios =
  let prefix =
    match
      List.sort_uniq compare
        (List.map (fun d -> d.Netsim.Loadmap.prefix) demands)
    with
    | [ p ] -> p
    | _ -> invalid_arg "Planner.prepare: demands must target a single prefix"
  in
  let egress =
    match
      List.find_map
        (fun (p, origin, _) -> if Igp.Prefix.equal p prefix then Some origin else None)
        (Igp.Lsdb.prefixes (Igp.Network.lsdb net))
    with
    | Some origin -> origin
    | None -> invalid_arg "Planner.prepare: prefix not announced"
  in
  List.map
    (fun scenario ->
      Obs.Metrics.incr m_scenarios;
      let plan_scenario () =
      (* Build the scenario's network. *)
      let what_if = Igp.Network.clone net in
      (match scenario with
      | No_failure -> ()
      | Link_failure (u, v) ->
        let g = Igp.Network.graph what_if in
        Graph.remove_edge g u v;
        Graph.remove_edge g v u;
        Igp.Lsdb.touch ~origin:u (Igp.Network.lsdb what_if));
      let igp_utilization = utilization what_if demands ~capacity in
      let g = Igp.Network.graph what_if in
      let commodities =
        List.map
          (fun d ->
            { Mcf.src = d.Netsim.Loadmap.src; dst = egress; prefix;
              demand = d.Netsim.Loadmap.amount })
          demands
      in
      match Mcf.solve ~epsilon g ~capacities:(fun _ -> capacity) commodities with
      | exception Invalid_argument reason ->
        {
          scenario;
          igp_utilization;
          planned_utilization = igp_utilization;
          optimal_utilization = infinity;
          plan = None;
          note = Some reason;
        }
      | result ->
        let optimal_utilization =
          Mcf.max_utilization g ~capacities:(fun _ -> capacity) result
        in
        let reqs =
          Decompose.to_requirements what_if ~prefix
            (List.assoc prefix result.Mcf.flows)
        in
        if reqs.Fibbing.Requirements.routers = [] then
          {
            scenario;
            igp_utilization;
            planned_utilization = igp_utilization;
            optimal_utilization;
            plan = None;
            note = None;
          }
        else begin
          match Fibbing.Augmentation.compile ~max_entries what_if reqs with
          | Error reason ->
            Obs.Metrics.incr m_compile_failures;
            {
              scenario;
              igp_utilization;
              planned_utilization = igp_utilization;
              optimal_utilization;
              plan = None;
              note = Some reason;
            }
          | Ok plan ->
            Fibbing.Augmentation.apply what_if plan;
            {
              scenario;
              igp_utilization;
              planned_utilization = utilization what_if demands ~capacity;
              optimal_utilization;
              plan = Some plan;
              note = None;
            }
        end
      in
      if Obs.enabled () then begin
        let name =
          Format.asprintf "%a" (pp_scenario (Igp.Network.graph net)) scenario
        in
        let entry =
          Obs.Trace.with_span "planner.scenario"
            ~attrs:[ ("scenario", String name) ]
            plan_scenario
        in
        Obs.Timeline.record ~source:"planner" ~kind:"entry"
          [
            ("scenario", String name);
            ("igp_utilization", Float entry.igp_utilization);
            ("planned_utilization", Float entry.planned_utilization);
            ("optimal_utilization", Float entry.optimal_utilization);
            ( "fakes",
              Int
                (match entry.plan with
                | None -> 0
                | Some p -> Fibbing.Augmentation.fake_count p) );
          ];
        entry
      end
      else plan_scenario ())
    scenarios

let worst_case = function
  | [] -> invalid_arg "Planner.worst_case: no entries"
  | first :: rest ->
    List.fold_left
      (fun acc entry ->
        if entry.planned_utilization > acc.planned_utilization then entry else acc)
      first rest
