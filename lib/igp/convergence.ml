module Graph = Netgraph.Graph

type timing = { flood_per_hop : float; spf_delay : float; jitter : float }

let default_timing = { flood_per_hop = 0.01; spf_delay = 0.15; jitter = 0.02 }

let installation_schedule timing g ~origin =
  let n = Graph.node_count g in
  let depth = Array.make n (-1) in
  depth.(origin) <- 0;
  let queue = Queue.create () in
  Queue.push origin queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_succ g u (fun v _ ->
        if depth.(v) < 0 then begin
          depth.(v) <- depth.(u) + 1;
          Queue.push v queue
        end)
  done;
  Graph.nodes g
  |> List.filter_map (fun router ->
         if depth.(router) < 0 then None
         else
           Some
             ( router,
               (float_of_int depth.(router) *. timing.flood_per_hop)
               +. timing.spf_delay
               +. (float_of_int (router mod 7) *. timing.jitter) ))
  |> List.sort (fun (_, a) (_, b) -> compare a b)

type report = {
  states : int;
  unsafe_states : int;
  unsafe_window : float;
  convergence_time : float;
  first_problem : (float * string) option;
}

(* Shorter than [Safety.describe]: the report names the prefix once. *)
let describe_verdict g = function
  | Safety.Safe -> "safe"
  | Safety.Loop routers ->
    Printf.sprintf "loop through {%s}"
      (String.concat ", " (List.map (Graph.name g) routers))
  | Safety.Blackhole router ->
    Printf.sprintf "blackhole at %s" (Graph.name g router)

let analyze ~before ~after ~origin ~prefix () =
  let g = Network.graph after in
  let fibs net =
    Array.init (Graph.node_count g) (fun router -> Network.fib net ~router prefix)
  in
  let old_fib = fibs before and new_fib = fibs after in
  let changed router = old_fib.(router) <> new_fib.(router) in
  let schedule =
    List.filter (fun (router, _) -> changed router)
      (installation_schedule default_timing g ~origin)
  in
  let mixed = Array.copy old_fib in
  let states = List.length schedule in
  let unsafe_states = ref 0 in
  let unsafe_window = ref 0. in
  let first_problem = ref None in
  let convergence_time =
    match List.rev schedule with (_, t) :: _ -> t | [] -> 0.
  in
  let rec walk = function
    | [] -> ()
    | (router, time) :: rest ->
      mixed.(router) <- new_fib.(router);
      (match Safety.analyze mixed with
      | Safety.Safe -> ()
      | problem ->
        incr unsafe_states;
        let until =
          match rest with (_, next) :: _ -> next | [] -> convergence_time
        in
        unsafe_window := !unsafe_window +. (until -. time);
        if !first_problem = None then
          first_problem := Some (time, describe_verdict g problem));
      walk rest
  in
  walk schedule;
  {
    states;
    unsafe_states = !unsafe_states;
    unsafe_window = !unsafe_window;
    convergence_time;
    first_problem = !first_problem;
  }
