type 'a t = 'a Kit.Heap.t

let create () = Kit.Heap.create ()

let schedule t ~time event =
  if time < 0. then invalid_arg "Events.schedule: negative time";
  Kit.Heap.push t ~priority:time event

let drain t ~time f = Kit.Heap.drain t ~upto:time f
