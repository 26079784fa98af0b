module Graph = Netgraph.Graph

type report =
  | Series of float
  | Qoe
  | Actions
  | Fibs
  | Fakes
  | Loads
  | Latency
  | Audit

type controller_mode = On | Off | Global

type model = Fairshare | Aimd_model

type command =
  | Topology of Graph.t
  | Prefix of { name : Igp.Lsa.prefix; at : string; cost : int }
  | Capacity_default of float
  | Capacity of string * string * float
  | Monitor_cfg of { poll : float; threshold : float; clear : float; alpha : float }
  | Controller of controller_mode
  | Model of model
  | Track of string * string
  | Flows of {
      count : int;
      src : string;
      prefix : Igp.Lsa.prefix;
      rate : float;
      at : float;
      duration : float;
    }
  | Fail of string * string * float
  | Restore of string * string * float
  | Crash_router of string * float
  | Recover_router of string * float
  | Controller_crash of float
  | Controller_restart of float
  | Blackout of { duration : float; at : float }
  | Flooding_loss of { drop : float; seed : int; duration : float option; at : float }
  | Steer of { router : string; splits : (string * float) list; at : float }
  | Run of float
  | Report of report

(* ------------------------------------------------------------------ *)
(* Parsing *)

let ( let* ) = Result.bind

(* Size limits, checked at parse time (documented in script.mli). *)
let max_routers = 1_000
let max_time = 86_400.
let max_flows = 100_000
let min_series_step = 0.1

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let float_of token =
  match float_of_string_opt token with
  | Some f when Float.is_finite f -> Ok f
  | Some _ | None -> Error (Printf.sprintf "bad number %S" token)

let int_of token =
  match int_of_string_opt token with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer %S" token)

(* A number the command can use: [what] names it in the error. *)
let bounded what ok token =
  let* f = float_of token in
  if ok f then Ok f else Error (Printf.sprintf "%s %S out of range" what token)

let positive what = bounded what (fun f -> f > 0.)

let time_of token =
  let* t = bounded "time" (fun f -> f >= 0.) token in
  if t <= max_time then Ok t
  else Error (Printf.sprintf "time %S is above max_time = %g s" token max_time)

let natural what token =
  let* n = int_of token in
  if n >= 0 then Ok n else Error (Printf.sprintf "%s %S out of range" what token)

(* Prefix tokens are validated at parse time: a typo'd CIDR used to
   sail through as an exact-match string and become an unroutable
   destination at runtime. [Prefix.of_string]'s error already names the
   offending token; [parse] prepends the line number. *)
let prefix_of token = Igp.Prefix.of_string token

let link_of token =
  match String.split_on_char '-' token with
  | [ a; b ] when a <> "" && b <> "" -> Ok (a, b)
  | _ -> Error (Printf.sprintf "bad link %S (expected X-Y)" token)

let splits_of token =
  let parse_one part =
    match String.split_on_char ':' part with
    | [ name; fraction ] when name <> "" ->
      let* f = float_of fraction in
      Ok (name, f)
    | _ -> Error (Printf.sprintf "bad split %S (expected NH:FRACTION)" part)
  in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      let* one = parse_one part in
      Ok (one :: acc))
    (Ok [])
    (String.split_on_char ',' token)
  |> Result.map List.rev

(* "key value" option scanning for trailing [duration D] etc. *)
let rec options pairs = function
  | [] -> Ok pairs
  | key :: value :: rest -> Ok ((key, value) :: pairs) |> fun acc ->
    let* pairs = acc in
    options pairs rest
  | [ lone ] -> Error (Printf.sprintf "dangling option %S" lone)

(* The value of option [key] read by [parse], or [default]. *)
let opt pairs key ~default parse =
  match List.assoc_opt key pairs with
  | Some v -> parse v
  | None -> Ok default

(* The graph is built at parse time: the limit bounds its size. *)
let topology_of spec =
  (* An integer of at least [min]. *)
  let int token ~min =
    match int_of_string_opt token with
    | Some n when n >= min -> Ok n
    | Some _ | None -> Error (Printf.sprintf "bad size %S in topology %S" token spec)
  in
  (* [fits] compares each factor of the router count with a quotient of
     the limit, so that no product overflows. *)
  let limited fits build =
    if fits then Ok (build ())
    else
      Error (Printf.sprintf "topology %S has more than max_routers = %d routers" spec max_routers)
  in
  match String.split_on_char ':' spec with
  | [ "demo" ] -> Ok (Netgraph.Topologies.demo ()).graph
  | [ "ring"; n ] ->
    let* n = int n ~min:3 in
    limited (n <= max_routers) (fun () -> Netgraph.Topologies.ring ~n)
  | [ "grid"; r; c ] ->
    let* rows = int r ~min:1 in
    let* cols = int c ~min:1 in
    limited (rows <= max_routers / cols) (fun () -> Netgraph.Topologies.grid ~rows ~cols)
  | [ "random"; n; seed ] ->
    let* seed = int seed ~min:min_int in
    let* n = int n ~min:2 in
    limited (n <= max_routers) (fun () ->
        Netgraph.Topologies.random (Kit.Prng.create ~seed) ~n ~extra_edges:n ~max_weight:4)
  | [ "twolevel"; core ] ->
    let* core = int core ~min:3 in
    limited (core <= max_routers / 3) (fun () ->
        Netgraph.Topologies.two_level (Kit.Prng.create ~seed:1) ~core ~edge_per_core:2)
  | [ name ] -> (
    match Netgraph.Zoo.find name with
    | Some entry -> Ok entry.graph
    | None -> Error (Printf.sprintf "unknown topology %S" spec))
  | _ -> Error (Printf.sprintf "unknown topology %S" spec)

let parse_command = function
  | [] -> Ok None
  | [ "topology"; spec ] ->
    let* graph = topology_of spec in
    Ok (Some (Topology graph))
  | "prefix" :: name :: "at" :: at :: rest ->
    let* name = prefix_of name in
    let* cost =
      match rest with
      | [] -> Ok 0
      | [ "cost"; c ] -> natural "cost" c
      | _ -> Error "expected: prefix NAME at ROUTER [cost N]"
    in
    Ok (Some (Prefix { name; at; cost }))
  | [ "capacity"; "default"; value ] ->
    let* v = positive "capacity" value in
    Ok (Some (Capacity_default v))
  | [ "capacity"; link; value ] ->
    let* a, b = link_of link in
    let* v = positive "capacity" value in
    Ok (Some (Capacity (a, b, v)))
  | "monitor" :: rest ->
    let* pairs = options [] rest in
    let* poll = opt pairs "poll" ~default:2.0 (positive "poll") in
    let* threshold = opt pairs "threshold" ~default:0.85 float_of in
    let* clear = opt pairs "clear" ~default:0.6 float_of in
    let* alpha =
      opt pairs "alpha" ~default:0.8 (bounded "alpha" (fun a -> a > 0. && a <= 1.))
    in
    if clear > threshold then Error "monitor clear must not exceed threshold"
    else Ok (Some (Monitor_cfg { poll; threshold; clear; alpha }))
  | [ "controller"; "on" ] -> Ok (Some (Controller On))
  | [ "controller"; "off" ] -> Ok (Some (Controller Off))
  | [ "controller"; "global" ] -> Ok (Some (Controller Global))
  | [ "model"; "fairshare" ] -> Ok (Some (Model Fairshare))
  | [ "model"; "aimd" ] -> Ok (Some (Model Aimd_model))
  | [ "track"; link ] ->
    let* a, b = link_of link in
    Ok (Some (Track (a, b)))
  | "flows" :: count :: "from" :: src :: "to" :: prefix :: "rate" :: rate
    :: "at" :: at :: rest ->
    let* count = natural "count" count in
    let* prefix = prefix_of prefix in
    let* rate = positive "rate" rate in
    let* at = time_of at in
    let* pairs = options [] rest in
    let* duration = opt pairs "duration" ~default:300. (positive "duration") in
    Ok (Some (Flows { count; src; prefix; rate; at; duration }))
  | [ "fail"; link; "at"; at ] ->
    let* a, b = link_of link in
    let* at = time_of at in
    Ok (Some (Fail (a, b, at)))
  | [ "restore"; link; "at"; at ] ->
    let* a, b = link_of link in
    let* at = time_of at in
    Ok (Some (Restore (a, b, at)))
  | [ "crash"; router; "at"; at ] ->
    let* at = time_of at in
    Ok (Some (Crash_router (router, at)))
  | [ "recover"; router; "at"; at ] ->
    let* at = time_of at in
    Ok (Some (Recover_router (router, at)))
  | [ "controller"; "crash"; "at"; at ] ->
    let* at = time_of at in
    Ok (Some (Controller_crash at))
  | [ "controller"; "restart"; "at"; at ] ->
    let* at = time_of at in
    Ok (Some (Controller_restart at))
  | [ "blackout"; duration; "at"; at ] ->
    let* duration = positive "duration" duration in
    let* at = time_of at in
    Ok (Some (Blackout { duration; at }))
  | "flooding" :: "loss" :: drop :: "at" :: at :: rest ->
    let* drop = bounded "drop" (fun p -> p >= 0. && p < 1.) drop in
    let* at = time_of at in
    let* pairs = options [] rest in
    let* seed = opt pairs "seed" ~default:7 int_of in
    let* duration =
      opt pairs "duration" ~default:None (fun d ->
          Result.map Option.some (positive "duration" d))
    in
    Ok (Some (Flooding_loss { drop; seed; duration; at }))
  | [ "steer"; router; "to"; splits; "at"; at ] ->
    let* splits = splits_of splits in
    let* at = time_of at in
    Ok (Some (Steer { router; splits; at }))
  | [ "run"; until ] ->
    let* until = time_of until in
    Ok (Some (Run until))
  | [ "report"; "series" ] -> Ok (Some (Report (Series 2.5)))
  | [ "report"; "series"; "step"; token ] ->
    let* step = positive "step" token in
    if step < min_series_step then
      Error (Printf.sprintf "step %S is below min_series_step = %g s" token min_series_step)
    else Ok (Some (Report (Series step)))
  | [ "report"; "qoe" ] -> Ok (Some (Report Qoe))
  | [ "report"; "actions" ] -> Ok (Some (Report Actions))
  | [ "report"; "fibs" ] -> Ok (Some (Report Fibs))
  | [ "report"; "fakes" ] -> Ok (Some (Report Fakes))
  | [ "report"; "loads" ] -> Ok (Some (Report Loads))
  | [ "report"; "audit" ] -> Ok (Some (Report Audit))
  | [ "report"; "latency" ] -> Ok (Some (Report Latency))
  | first :: _ -> Error (Printf.sprintf "unknown or malformed command %S" first)

let parse text =
  let lines = String.split_on_char '\n' text in
  (* [streams]: the flows lines' counts so far, at most [max_flows]. *)
  let rec walk number streams acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let error message = Error (Printf.sprintf "line %d: %s" number message) in
      match parse_command (tokens line) with
      | Ok None -> walk (number + 1) streams acc rest
      | Ok (Some (Flows { count; _ })) when count > max_flows - streams ->
        error (Printf.sprintf "more than max_flows = %d streams in all" max_flows)
      | Ok (Some (Flows { count; _ } as command)) ->
        walk (number + 1) (streams + count) (command :: acc) rest
      | Ok (Some command) -> walk (number + 1) streams (command :: acc) rest
      | Error message -> error message)
  in
  walk 1 0 [] lines

(* ------------------------------------------------------------------ *)
(* Execution *)

type state = {
  mutable graph : Graph.t option;
  mutable net : Igp.Network.t option;
  mutable default_capacity : float;
  mutable capacities : (string * string * float) list;
  mutable monitor_cfg : (float * float * float * float) option;
  mutable controller_mode : controller_mode;
  mutable model : model;
  mutable tracked : (string * string) list;
  mutable sim : Netsim.Sim.t option;
  mutable controller : Fibbing.Controller.t option;
  mutable flows : Netsim.Flow.t list; (* newest first *)
  mutable next_flow_id : int;
  mutable runtime_errors : string list; (* newest first *)
  mutable dt : float;
  (* Only a [report qoe] reads the per-flow series. *)
  flow_history : bool;
}

let fresh_state ~flow_history =
  {
    graph = None;
    net = None;
    default_capacity = 11. *. 1024. *. 1024.;
    capacities = [];
    monitor_cfg = None;
    controller_mode = On;
    model = Fairshare;
    tracked = [];
    sim = None;
    controller = None;
    flows = [];
    next_flow_id = 0;
    runtime_errors = [];
    dt = 0.5;
    flow_history;
  }

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s is not set up at this point" what)

let resolve state name =
  let* graph = require "topology" state.graph in
  match Graph.find_node graph name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown router %S" name)

(* Build the simulation lazily on the first run/flow-affecting command
   that needs it. *)
let ensure_sim state =
  match state.sim with
  | Some sim -> Ok sim
  | None ->
    let* net = require "network (topology + prefix)" state.net in
    let caps = Netsim.Link.capacities ~default:state.default_capacity in
    let* () =
      List.fold_left
        (fun acc (a, b, value) ->
          let* () = acc in
          let* u = resolve state a in
          let* v = resolve state b in
          Netsim.Link.set_link caps (u, v) value;
          Ok ())
        (Ok ()) state.capacities
    in
    let poll, threshold, clear, alpha =
      Option.value ~default:(2.0, 0.85, 0.6, 0.8) state.monitor_cfg
    in
    let monitor =
      Netsim.Monitor.create ~poll_interval:poll ~threshold ~clear_threshold:clear
        ~alpha caps
    in
    let rate_model =
      match state.model with
      | Fairshare -> Netsim.Sim.Max_min_fair
      | Aimd_model -> Netsim.Sim.Aimd (Netsim.Aimd.create ())
    in
    let sim =
      Netsim.Sim.create ~dt:state.dt ~monitor ~rate_model
        ~flow_history:state.flow_history net caps
    in
    (match state.controller_mode with
    | Off -> ()
    | On ->
      let c = Fibbing.Controller.create net in
      Fibbing.Controller.attach c sim;
      state.controller <- Some c
    | Global ->
      let c =
        Fibbing.Controller.create
          ~config:
            {
              Fibbing.Controller.default_config with
              strategy = Fibbing.Controller.Global_optimal;
              max_entries = 16;
            }
          ~reoptimize:Te.Reopt.for_controller net
      in
      Fibbing.Controller.attach c sim;
      state.controller <- Some c);
    let* () =
      List.fold_left
        (fun acc (a, b) ->
          let* () = acc in
          let* u = resolve state a in
          let* v = resolve state b in
          Netsim.Sim.track_link sim (u, v);
          Ok ())
        (Ok ()) state.tracked
    in
    state.sim <- Some sim;
    Ok sim

let runtime_error state message =
  state.runtime_errors <- message :: state.runtime_errors

(* The simulation, for an event at [at]: it takes events only from its
   present on. *)
let sim_at state at =
  let* sim = ensure_sim state in
  let now = Netsim.Sim.time sim in
  if at < now then
    Error (Printf.sprintf "time %g is before the simulation's present %g" at now)
  else Ok sim

let execute_command state out command =
  match command with
  | Topology _ when state.graph <> None -> Error "topology given twice"
  | Topology graph ->
    state.graph <- Some graph;
    state.net <- Some (Igp.Network.create graph);
    Ok ()
  | Prefix { name; at; cost } ->
    let* net = require "topology" state.net in
    let* origin = resolve state at in
    Igp.Network.announce_prefix net name ~origin ~cost;
    Ok ()
  | Capacity_default value ->
    if state.sim <> None then Error "capacity must come before the first run"
    else begin
      state.default_capacity <- value;
      Ok ()
    end
  | Capacity (a, b, value) ->
    if state.sim <> None then Error "capacity must come before the first run"
    else begin
      state.capacities <- state.capacities @ [ (a, b, value) ];
      Ok ()
    end
  | Monitor_cfg { poll; threshold; clear; alpha } ->
    if state.sim <> None then Error "monitor must come before the first run"
    else begin
      state.monitor_cfg <- Some (poll, threshold, clear, alpha);
      Ok ()
    end
  | Controller mode ->
    if state.sim <> None then Error "controller must come before the first run"
    else begin
      state.controller_mode <- mode;
      Ok ()
    end
  | Model model ->
    if state.sim <> None then Error "model must come before the first run"
    else begin
      state.model <- model;
      Ok ()
    end
  | Track (a, b) ->
    if state.sim <> None then
      let* sim = ensure_sim state in
      let* u = resolve state a in
      let* v = resolve state b in
      Netsim.Sim.track_link sim (u, v);
      Ok ()
    else begin
      state.tracked <- state.tracked @ [ (a, b) ];
      Ok ()
    end
  | Flows { count; src; prefix; rate; at; duration } ->
    let* sim = sim_at state at in
    let* src = resolve state src in
    let flows =
      List.init count (fun i ->
          Netsim.Flow.make ~id:(state.next_flow_id + i) ~src ~prefix ~demand:rate
            ~start_time:at ~duration ())
    in
    state.next_flow_id <- state.next_flow_id + count;
    List.iter (Netsim.Sim.add_flow sim) flows;
    state.flows <- List.rev_append flows state.flows;
    Ok ()
  | Fail (a, b, at) ->
    let* sim = sim_at state at in
    let* u = resolve state a in
    let* v = resolve state b in
    Netsim.Sim.fail_link sim ~time:at (u, v);
    Ok ()
  | Restore (a, b, at) ->
    let* sim = sim_at state at in
    let* u = resolve state a in
    let* v = resolve state b in
    Netsim.Sim.restore_link sim ~time:at (u, v);
    Ok ()
  | Crash_router (r, at) ->
    let* sim = sim_at state at in
    let* r = resolve state r in
    Netsim.Sim.crash_router sim ~time:at r;
    Ok ()
  | Recover_router (r, at) ->
    let* sim = sim_at state at in
    let* r = resolve state r in
    Netsim.Sim.recover_router sim ~time:at r;
    Ok ()
  | Controller_crash at ->
    let* sim = sim_at state at in
    Netsim.Sim.schedule sim ~time:at (fun _ ->
        match state.controller with
        | Some c -> Fibbing.Controller.crash c
        | None -> runtime_error state "controller crash: controller is off");
    Ok ()
  | Controller_restart at ->
    let* sim = sim_at state at in
    Netsim.Sim.schedule sim ~time:at (fun sim ->
        match state.controller with
        | Some c -> Fibbing.Controller.restart c ~time:(Netsim.Sim.time sim)
        | None -> runtime_error state "controller restart: controller is off");
    Ok ()
  | Blackout { duration; at } ->
    let* sim = sim_at state at in
    Netsim.Sim.schedule sim ~time:at (fun sim ->
        match Netsim.Sim.monitor sim with
        | Some m -> Netsim.Monitor.mute m ~until:(Netsim.Sim.time sim +. duration)
        | None -> ());
    Ok ()
  | Flooding_loss { drop; seed; duration; at } ->
    let* sim = sim_at state at in
    let* net = require "network" state.net in
    Netsim.Sim.schedule sim ~time:at (fun _ ->
        Igp.Network.set_flooding_loss net (Some (Igp.Flooding.loss ~drop ~seed ())));
    Option.iter
      (fun d ->
        Netsim.Sim.schedule sim ~time:(at +. d) (fun _ ->
            Igp.Network.set_flooding_loss net None))
      duration;
    Ok ()
  | Steer { router; splits; at } ->
    let* sim = sim_at state at in
    let* net = require "network" state.net in
    let* router = resolve state router in
    let* resolved =
      List.fold_left
        (fun acc (name, fraction) ->
          let* acc = acc in
          let* nh = resolve state name in
          Ok ((nh, fraction) :: acc))
        (Ok []) splits
    in
    let* prefix =
      match Igp.Lsdb.prefix_list (Igp.Network.lsdb net) with
      | [ p ] -> Ok p
      | [] -> Error "steer: no prefix announced"
      | p :: _ -> Ok p (* first prefix by convention *)
    in
    Netsim.Sim.schedule sim ~time:at (fun _ ->
        let reqs = Fibbing.Requirements.make ~prefix [ (router, List.rev resolved) ] in
        match Fibbing.Augmentation.compile ~max_entries:16 net reqs with
        | Ok plan -> Fibbing.Augmentation.apply net plan
        | Error e -> runtime_error state (Printf.sprintf "steer failed: %s" e));
    Ok ()
  | Run until ->
    let* sim = ensure_sim state in
    Netsim.Sim.run_until sim until;
    (match state.runtime_errors with
    | [] -> Ok ()
    | errors -> Error (String.concat "; " (List.rev errors)))
  | Report (Series step) ->
    let* sim = ensure_sim state in
    let* net = require "network" state.net in
    let g = Igp.Network.graph net in
    let* series =
      List.fold_left
        (fun acc (a, b) ->
          let* acc = acc in
          let* u = resolve state a in
          let* v = resolve state b in
          ignore g;
          Ok (Netsim.Sim.link_series sim (u, v) :: acc))
        (Ok []) state.tracked
    in
    Format.fprintf out "%a@." (Kit.Timeseries.pp_rows ~step) (List.rev series);
    Ok ()
  | Report Qoe ->
    let* sim = ensure_sim state in
    let results =
      List.map
        (fun flow -> Video.Client.replay ~dt:state.dt (Video.Client.trace sim flow))
        (List.rev state.flows)
    in
    (match results with
    | [] -> Format.fprintf out "qoe: no flows@."
    | _ -> Format.fprintf out "qoe: %a@." Video.Qoe.pp (Video.Qoe.summarize results));
    Ok ()
  | Report Actions ->
    (match state.controller with
    | None -> Format.fprintf out "actions: controller off@."
    | Some controller ->
      List.iter
        (fun (a : Fibbing.Controller.action) ->
          Format.fprintf out "[%5.1f s] %s (fakes: %d)@." a.time a.description
            a.fakes_installed)
        (Fibbing.Controller.actions controller));
    Ok ()
  | Report Fibs ->
    let* net = require "network" state.net in
    let names = Graph.name (Igp.Network.graph net) in
    List.iter
      (fun prefix ->
        List.iter
          (fun (_, fib) -> Format.fprintf out "%a@." (Igp.Fib.pp ~names) fib)
          (Igp.Network.fibs net prefix))
      (Igp.Lsdb.prefix_list (Igp.Network.lsdb net));
    Ok ()
  | Report Fakes ->
    let* net = require "network" state.net in
    let names = Graph.name (Igp.Network.graph net) in
    (match Igp.Network.fakes net with
    | [] -> Format.fprintf out "no fakes installed@."
    | fakes ->
      List.iter
        (fun fake -> Format.fprintf out "%a@." (Igp.Lsa.pp ~names) (Fake fake))
        fakes);
    Ok ()
  | Report Loads ->
    let* sim = ensure_sim state in
    let* net = require "network" state.net in
    let g = Igp.Network.graph net in
    (match Netsim.Sim.current_link_rates sim with
    | [] -> Format.fprintf out "no traffic@."
    | rates ->
      List.iter
        (fun (link, rate) ->
          if rate > 0. then
            Format.fprintf out "%-12s %12.0f@." (Netsim.Link.name g link) rate)
        (List.sort
           (fun (_, a) (_, b) -> compare b a)
           rates));
    Ok ()
  | Report Latency ->
    let* sim = ensure_sim state in
    Format.fprintf out "mean one-way delay: %.1f ms over %d flows@."
      (Netsim.Latency.mean_flow_delay_ms sim)
      (List.length (Netsim.Sim.active_flows sim));
    Ok ()
  | Report Audit ->
    let* net = require "network" state.net in
    Format.fprintf out "%a"
      (Fibbing.Audit.pp ~names:(Graph.name (Igp.Network.graph net)))
      (Fibbing.Audit.run net);
    Ok ()

let execute ?(out = Format.std_formatter) commands =
  let state =
    fresh_state
      ~flow_history:(List.exists (function Report Qoe -> true | _ -> false) commands)
  in
  List.fold_left
    (fun acc command ->
      let* () = acc in
      execute_command state out command)
    (Ok ()) commands

let run_string ?out text =
  let* commands = parse text in
  execute ?out commands
