type spec = {
  src : Netgraph.Graph.node;
  prefix : Igp.Lsa.prefix;
  rate : float;
  video_duration : float;
}

let flow spec ~id ~start_time =
  Netsim.Flow.make ~id ~src:spec.src ~prefix:spec.prefix ~demand:spec.rate
    ~start_time ~duration:spec.video_duration ()

let crowd ?(jitter = 1.0) prng specs ~first_id ~count ~at =
  if specs = [] then invalid_arg "Workload.crowd: no specs";
  if count < 0 then invalid_arg "Workload.crowd: negative count";
  let specs = Array.of_list specs in
  let k = Array.length specs in
  List.init count (fun i ->
      let delay = if jitter > 0. then Kit.Prng.float prng jitter else 0. in
      flow specs.(i mod k) ~id:(first_id + i) ~start_time:(at +. delay))

let fig2_schedule ~s1 ~s2 ~prefix ~rate ~video_duration =
  let spec_of src = { src; prefix; rate; video_duration } in
  let one = [ flow (spec_of s1) ~id:0 ~start_time:0. ] in
  let thirty =
    List.init 30 (fun i -> flow (spec_of s1) ~id:(1 + i) ~start_time:15.)
  in
  let thirty_one =
    List.init 31 (fun i -> flow (spec_of s2) ~id:(31 + i) ~start_time:35.)
  in
  one @ thirty @ thirty_one
