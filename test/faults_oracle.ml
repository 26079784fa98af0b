(* The fault-plan oracle: replays a [Netsim.Faults.plan] through a state
   machine and rejects any schedule a real run could not perform (double
   failure, restore of a live link, crash overlapping a failed link or a
   partitioned edge, unhealed element at the end, ...). Partitions must
   additionally heal by [until - margin] (margin 4 s, as in
   [random_plan]) — the quiet tail the reconvergence properties rely on.
   [random_plan] output must always validate. *)

open Netsim.Faults

let norm (u, v) = if u <= v then (u, v) else (v, u)

let margin = 4.

let validate plan =
  let down = Hashtbl.create 8 and crashed = Hashtbl.create 4 in
  (* Partitioned edges heal on their own at a recorded time; they are
     released before judging each event so post-heal faults are legal. *)
  let partitioned = Hashtbl.create 8 in
  let release now =
    Hashtbl.fold
      (fun l heal acc -> if heal <= now +. 1e-9 then l :: acc else acc)
      partitioned []
    |> List.iter (Hashtbl.remove partitioned)
  in
  let dead = ref false in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let incident r l = fst l = r || snd l = r in
  let rec go last = function
    | [] ->
      if Hashtbl.length down > 0 then err "a link is never restored"
      else if Hashtbl.length crashed > 0 then err "a router never recovers"
      else Ok ()
    | e :: rest ->
      release e.time;
      if e.time < last -. 1e-9 then err "events not sorted by time"
      else if e.time < 0. || e.time > plan.until then
        err "event at %.2f outside [0, %.2f]" e.time plan.until
      else
        (* Lazy: the recursion must see this event's state changes. *)
        let continue () = go e.time rest in
        (match e.kind with
        | Link_down l ->
          let l = norm l in
          if Hashtbl.mem down l then err "link failed twice"
          else if Hashtbl.mem partitioned l then
            err "link fault on a partitioned edge"
          else if Hashtbl.mem crashed (fst l) || Hashtbl.mem crashed (snd l)
          then err "link fault on a crashed router"
          else (Hashtbl.replace down l (); continue ())
        | Link_up l ->
          let l = norm l in
          if Hashtbl.mem partitioned l then
            err "restoring a partitioned edge (the heal restores it)"
          else if not (Hashtbl.mem down l) then
            err "restoring a link that is up"
          else (Hashtbl.remove down l; continue ())
        | Router_crash r ->
          if Hashtbl.mem crashed r then err "router crashed twice"
          else if Hashtbl.fold (fun l () acc -> acc || incident r l) down false
          then err "crashing a router holding a failed link"
          else if
            Hashtbl.fold
              (fun l _ acc -> acc || incident r l)
              partitioned false
          then err "crashing an endpoint of a partitioned edge"
          else (Hashtbl.replace crashed r (); continue ())
        | Router_recover r ->
          if not (Hashtbl.mem crashed r) then
            err "recovering a router that is up"
          else (Hashtbl.remove crashed r; continue ())
        | Partition { side; cut; duration } ->
          if side = [] then err "partition with an empty side"
          else if cut = [] then err "partition with an empty cut"
          else if duration <= 0. then err "partition duration <= 0"
          else if e.time +. duration > plan.until -. margin +. 1e-6 then
            err "partition heals after until - margin"
          else begin
            let seen = Hashtbl.create 8 in
            let bad =
              List.find_map
                (fun l ->
                  let l = norm l in
                  if Hashtbl.mem seen l then
                    Some "partition cuts an edge twice"
                  else if Hashtbl.mem down l || Hashtbl.mem partitioned l then
                    Some "partition cuts an already-failed edge"
                  else if
                    Hashtbl.mem crashed (fst l) || Hashtbl.mem crashed (snd l)
                  then Some "partition cuts an edge of a crashed router"
                  else (Hashtbl.replace seen l (); None))
                cut
            in
            match bad with
            | Some msg -> err "%s" msg
            | None ->
              Hashtbl.iter
                (fun l () ->
                  Hashtbl.replace partitioned l (e.time +. duration))
                seen;
              continue ()
          end
        | Monitor_blackout d when d <= 0. -> err "blackout duration <= 0"
        | Monitor_sample_loss { probability = p; duration }
          when p < 0. || p >= 1. || duration <= 0. ->
          err "bad sample-loss parameters"
        | Monitor_corruption { probability = p; gain; duration }
          when p < 0. || p >= 1. || gain <= 0. || duration <= 0. ->
          err "bad monitor-corruption parameters"
        | Flooding_loss { drop; duration }
          when drop <= 0. || drop >= 1. || duration <= 0. ->
          err "bad flooding-loss parameters"
        | Lsa_delay { max_delay; duration }
          when max_delay < 1 || duration <= 0. ->
          err "bad lsa-delay parameters"
        | Controller_crash ->
          if !dead then err "controller crashed twice"
          else (dead := true; continue ())
        | Controller_restart ->
          if not !dead then err "restarting a live controller"
          else (dead := false; continue ())
        | Monitor_blackout _ | Monitor_sample_loss _ | Monitor_corruption _
        | Flooding_loss _ | Lsa_delay _ ->
          continue ())
  in
  go 0. plan.events
