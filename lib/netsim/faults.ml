module Graph = Netgraph.Graph

type kind =
  | Link_down of Link.t
  | Link_up of Link.t
  | Router_crash of Graph.node
  | Router_recover of Graph.node
  | Partition of { side : Graph.node list; cut : Link.t list; duration : float }
  | Monitor_blackout of float
  | Monitor_sample_loss of { probability : float; duration : float }
  | Monitor_corruption of {
      probability : float;
      gain : float;
      duration : float;
    }
  | Flooding_loss of { drop : float; duration : float }
  | Lsa_delay of { max_delay : int; duration : float }
  | Controller_crash
  | Controller_restart

type event = { time : float; kind : kind }

type plan = { seed : int; until : float; events : event list }

let kind_to_string g = function
  | Link_down l -> "link_down " ^ Link.name g l
  | Link_up l -> "link_up " ^ Link.name g l
  | Router_crash r -> "router_crash " ^ Graph.name g r
  | Router_recover r -> "router_recover " ^ Graph.name g r
  | Partition { side; cut; duration } ->
    Printf.sprintf "partition {%s} cut %s %.1fs"
      (String.concat ", " (List.map (Graph.name g) side))
      (String.concat ", " (List.map (Link.name g) cut))
      duration
  | Monitor_blackout d -> Printf.sprintf "monitor_blackout %.1fs" d
  | Monitor_sample_loss { probability; duration } ->
    Printf.sprintf "sample_loss p=%.2f %.1fs" probability duration
  | Monitor_corruption { probability; gain; duration } ->
    Printf.sprintf "monitor_corruption p=%.2f gain=%.1f %.1fs" probability
      gain duration
  | Flooding_loss { drop; duration } ->
    Printf.sprintf "flooding_loss p=%.2f %.1fs" drop duration
  | Lsa_delay { max_delay; duration } ->
    Printf.sprintf "lsa_delay <=%d rounds %.1fs" max_delay duration
  | Controller_crash -> "controller_crash"
  | Controller_restart -> "controller_restart"

let to_string g plan =
  String.concat "\n"
    (List.map
       (fun e -> Printf.sprintf "%6.2f  %s" e.time (kind_to_string g e.kind))
       plan.events)

(* Seconds before [until] by which every fault has healed. *)
let margin = 4.

let random_plan ?(faults = 4) ~seed ~until g =
  if faults < 0 then invalid_arg "Faults.random_plan: faults";
  let span = until -. margin -. 1. in
  if span <= 0. then invalid_arg "Faults.random_plan: until must exceed 5";
  let horizon = until -. margin in
  let prng = Kit.Prng.create ~seed in
  let links =
    Graph.fold_edges g ~init:[] ~f:(fun acc u v _ ->
        if u < v then (u, v) :: acc else acc)
    |> List.rev |> Array.of_list
  in
  let routers = Array.of_list (Graph.nodes g) in
  (* Each element (link or router) suffers at most one fault per plan,
     and a crashed router never overlaps a failed incident link — the
     recovery paths stay independent, so the generator can guarantee the
     topology is whole at [until -. margin]. *)
  let busy_links = Hashtbl.create 8 and busy_routers = Hashtbl.create 4 in
  let controller_done = ref false in
  let events = ref [] in
  let emit time kind = events := { time; kind } :: !events in
  let pick_free arr free =
    let candidates = Array.of_list (List.filter free (Array.to_list arr)) in
    if Array.length candidates = 0 then None
    else Some (Kit.Prng.pick prng candidates)
  in
  for _ = 1 to faults do
    let start = 0.5 +. Kit.Prng.float prng span in
    let dur =
      0.5 +. Kit.Prng.float prng (max 1e-6 (horizon -. start -. 0.5))
    in
    match Kit.Prng.int prng 8 with
    | 0 | 1 -> (
      (* Link flap: down, then back up before the horizon. *)
      let free (u, v) =
        (not (Hashtbl.mem busy_links (u, v)))
        && (not (Hashtbl.mem busy_routers u))
        && not (Hashtbl.mem busy_routers v)
      in
      match pick_free links free with
      | Some l ->
        Hashtbl.replace busy_links l ();
        emit start (Link_down l);
        emit (start +. dur) (Link_up l)
      | None -> emit start (Monitor_blackout dur))
    | 2 -> (
      (* Router crash/recovery. *)
      let free r =
        (not (Hashtbl.mem busy_routers r))
        && not
             (Hashtbl.fold
                (fun (u, v) () acc -> acc || u = r || v = r)
                busy_links false)
      in
      match pick_free routers free with
      | Some r ->
        Hashtbl.replace busy_routers r ();
        Array.iter
          (fun (u, v) -> if u = r || v = r then Hashtbl.replace busy_links (u, v) ())
          links;
        emit start (Router_crash r);
        emit (start +. dur) (Router_recover r)
      | None -> emit start (Monitor_blackout dur))
    | 3 -> emit start (Monitor_blackout dur)
    | 4 ->
      if Kit.Prng.bool prng then
        emit start
          (Monitor_sample_loss
             { probability = 0.1 +. Kit.Prng.float prng 0.5; duration = dur })
      else
        emit start
          (Flooding_loss
             { drop = 0.05 +. Kit.Prng.float prng 0.35; duration = dur })
    | 5 -> (
      (* Partition: grow a connected side from a random router; the cut
         is every edge crossing it. Every cut edge must be fault-free
         and both endpoints uncrashed for the whole plan, so the heal
         can restore the whole cut atomically; when the draw cannot
         honour that, degrade to a blackout rather than skew timing. *)
      let n = Array.length routers in
      if n < 3 then emit start (Monitor_blackout dur)
      else begin
        let seed_router = Kit.Prng.pick prng routers in
        let target = 1 + Kit.Prng.int prng (max 1 (n / 2)) in
        let side = Hashtbl.create 8 in
        Hashtbl.replace side seed_router ();
        let queue = Queue.create () in
        Queue.add seed_router queue;
        while Hashtbl.length side < target && not (Queue.is_empty queue) do
          let r = Queue.pop queue in
          List.iter
            (fun (v, _cost) ->
              if Hashtbl.length side < target && not (Hashtbl.mem side v)
              then begin
                Hashtbl.replace side v ();
                Queue.add v queue
              end)
            (Graph.succ g r)
        done;
        let cut =
          Array.to_list links
          |> List.filter (fun (u, v) ->
                 Hashtbl.mem side u <> Hashtbl.mem side v)
        in
        let ok =
          Hashtbl.length side < n
          && cut <> []
          && List.for_all
               (fun (u, v) ->
                 (not (Hashtbl.mem busy_links (u, v)))
                 && (not (Hashtbl.mem busy_routers u))
                 && not (Hashtbl.mem busy_routers v))
               cut
        in
        if not ok then emit start (Monitor_blackout dur)
        else begin
          List.iter (fun l -> Hashtbl.replace busy_links l ()) cut;
          let side_list =
            Array.to_list routers
            |> List.filter (fun r -> Hashtbl.mem side r)
          in
          emit start (Partition { side = side_list; cut; duration = dur })
        end
      end)
    | 6 ->
      if Kit.Prng.bool prng then
        emit start
          (Lsa_delay { max_delay = 2 + Kit.Prng.int prng 5; duration = dur })
      else
        emit start
          (Monitor_corruption
             {
               probability = 0.1 +. Kit.Prng.float prng 0.4;
               gain = 0.5 +. Kit.Prng.float prng 2.0;
               duration = dur;
             })
    | _ ->
      if !controller_done then emit start (Monitor_blackout dur)
      else begin
        controller_done := true;
        emit start Controller_crash;
        (* Sometimes the controller never comes back: its lies must then
           age out on their own (the graceful-degradation property). *)
        if Kit.Prng.float prng 1.0 >= 0.3 then
          emit (start +. dur) Controller_restart
      end
  done;
  let events =
    List.stable_sort (fun a b -> compare a.time b.time) (List.rev !events)
  in
  { seed; until; events }

let record_event sim kind attrs =
  ignore sim;
  if Obs.enabled () then
    Obs.Timeline.record ~time:(Sim.time sim) ~source:"faults" ~kind attrs

let inject ?on_controller_crash ?on_controller_restart sim plan =
  let sub_seed i = plan.seed lxor ((i + 1) * 0x9E3779B9) in
  List.iteri
    (fun i { time; kind } ->
      match kind with
      | Link_down l -> Sim.fail_link sim ~time l
      | Link_up l -> Sim.restore_link sim ~time l
      | Router_crash r -> Sim.crash_router sim ~time r
      | Router_recover r -> Sim.recover_router sim ~time r
      | Partition { side; cut; duration } ->
        (* The record is scheduled first so the partition event precedes
           the per-link link_down events in the timeline; the cut itself
           is atomic (one scheduled action fails every edge). *)
        Sim.schedule sim ~time (fun sim ->
            let g = Igp.Network.graph (Sim.network sim) in
            record_event sim "partition"
              [
                ( "side",
                  String (String.concat "," (List.map (Graph.name g) side))
                );
                ("links_cut", Int (List.length cut));
                ("duration", Float duration);
              ]);
        Sim.fail_links sim ~time cut;
        Sim.schedule sim ~time:(time +. duration) (fun sim ->
            record_event sim "partition_heal"
              [ ("links_restored", Int (List.length cut)) ]);
        Sim.restore_links sim ~time:(time +. duration) cut
      | Monitor_blackout duration ->
        Sim.schedule sim ~time (fun sim ->
            match Sim.monitor sim with
            | None -> ()
            | Some m ->
              Monitor.mute m ~until:(Sim.time sim +. duration);
              record_event sim "monitor_blackout"
                [ ("duration", Float duration) ])
      | Monitor_sample_loss { probability; duration } ->
        Sim.schedule sim ~time (fun sim ->
            match Sim.monitor sim with
            | None -> ()
            | Some m ->
              Monitor.set_sample_loss m
                (Some (Kit.Prng.create ~seed:(sub_seed i), probability));
              record_event sim "sample_loss_on"
                [ ("probability", Float probability) ]);
        Sim.schedule sim ~time:(time +. duration) (fun sim ->
            match Sim.monitor sim with
            | None -> ()
            | Some m ->
              Monitor.set_sample_loss m None;
              record_event sim "sample_loss_off" [])
      | Monitor_corruption { probability; gain; duration } ->
        Sim.schedule sim ~time (fun sim ->
            match Sim.monitor sim with
            | None -> ()
            | Some m ->
              Monitor.set_corruption m
                (Some
                   (Monitor.corruption ~probability ~gain ~seed:(sub_seed i)
                      ()));
              record_event sim "monitor_corruption_on"
                [ ("probability", Float probability); ("gain", Float gain) ]);
        Sim.schedule sim ~time:(time +. duration) (fun sim ->
            match Sim.monitor sim with
            | None -> ()
            | Some m ->
              Monitor.set_corruption m None;
              record_event sim "monitor_corruption_off" [])
      | Flooding_loss { drop; duration } ->
        Sim.schedule sim ~time (fun sim ->
            Igp.Network.set_flooding_loss (Sim.network sim)
              (Some (Igp.Flooding.loss ~drop ~seed:(sub_seed i) ()));
            record_event sim "flooding_loss_on" [ ("drop", Float drop) ]);
        Sim.schedule sim ~time:(time +. duration) (fun sim ->
            Igp.Network.set_flooding_loss (Sim.network sim) None;
            record_event sim "flooding_loss_off" [])
      | Lsa_delay { max_delay; duration } ->
        Sim.schedule sim ~time (fun sim ->
            Igp.Network.set_flooding_jitter (Sim.network sim)
              (Some (Igp.Flooding.jitter ~max_delay ~seed:(sub_seed i) ()));
            record_event sim "lsa_delay_on" [ ("max_delay", Int max_delay) ]);
        Sim.schedule sim ~time:(time +. duration) (fun sim ->
            Igp.Network.set_flooding_jitter (Sim.network sim) None;
            record_event sim "lsa_delay_off" [])
      | Controller_crash ->
        Sim.schedule sim ~time (fun sim ->
            record_event sim "controller_crash" [];
            match on_controller_crash with
            | Some f -> f sim
            | None -> ())
      | Controller_restart ->
        Sim.schedule sim ~time (fun sim ->
            record_event sim "controller_restart" [];
            match on_controller_restart with
            | Some f -> f sim
            | None -> ()))
    plan.events
