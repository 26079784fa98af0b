type 'a t = 'a Kit.Heap.t

let create () = Kit.Heap.create ()

let schedule t ~time event =
  if time < 0. then invalid_arg "Events.schedule: negative time";
  Kit.Heap.push t ~priority:time event

let pop_until t ~time =
  let rec drain acc =
    match Kit.Heap.peek t with
    | Some (event_time, _) when event_time <= time ->
      (match Kit.Heap.pop t with
      | Some (event_time, event) -> drain ((event_time, event) :: acc)
      | None -> acc)
    | Some _ | None -> acc
  in
  List.rev (drain [])
