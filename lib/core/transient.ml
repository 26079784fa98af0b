module Graph = Netgraph.Graph

type violation = { step : int; fake_id : string; problem : string }

(* The loop/blackhole analysis itself lives in [Igp.Safety], below both
   this install-time checker and the runtime watchdog ([Netsim] cannot
   depend on this library). *)
let check_order net ~prefix fakes =
  let scratch = Igp.Network.clone net in
  let rec steps index = function
    | [] -> Ok ()
    | (fake : Igp.Lsa.fake) :: rest ->
      Igp.Network.inject_fake scratch fake;
      (match Igp.Safety.state_safe scratch ~prefix with
      | Ok () -> steps (index + 1) rest
      | Error problem -> Error { step = index; fake_id = fake.fake_id; problem })
  in
  match Igp.Safety.state_safe scratch ~prefix with
  | Error problem ->
    Error { step = 0; fake_id = "<initial state>"; problem }
  | Ok () -> steps 1 fakes

(* Greedy order search over a step function: [advance scratch item]
   mutates the scratch network; we pick any remaining item whose
   application keeps the prefix safe, testing each candidate on a fresh
   clone of the current scratch. *)
let greedy_order net ~prefix items ~advance ~describe =
  let scratch = Igp.Network.clone net in
  match Igp.Safety.state_safe scratch ~prefix with
  | Error problem -> Error (Printf.sprintf "unsafe initial state: %s" problem)
  | Ok () ->
    let rec pick ordered remaining =
      match remaining with
      | [] -> Ok (List.rev ordered)
      | _ ->
        let try_candidate item =
          let trial = Igp.Network.clone scratch in
          advance trial item;
          Igp.Safety.verdict trial ~prefix = Igp.Safety.Safe
        in
        (match List.find_opt try_candidate remaining with
        | None ->
          Error
            (Printf.sprintf
               "no safe next step among {%s}; an intermediate state always \
                loops"
               (String.concat ", " (List.map describe remaining)))
        | Some item ->
          advance scratch item;
          pick (item :: ordered)
            (List.filter (fun other -> describe other <> describe item) remaining))
    in
    pick [] items

let safe_order net (plan : Augmentation.plan) =
  greedy_order net ~prefix:plan.prefix plan.fakes
    ~advance:(fun scratch fake -> Igp.Network.inject_fake scratch fake)
    ~describe:(fun (f : Igp.Lsa.fake) -> f.fake_id)

let safe_removal_order net (plan : Augmentation.plan) =
  greedy_order net ~prefix:plan.prefix plan.fakes
    ~advance:(fun scratch (fake : Igp.Lsa.fake) ->
      Igp.Network.retract_fake scratch ~fake_id:fake.fake_id)
    ~describe:(fun (f : Igp.Lsa.fake) -> f.fake_id)

let apply_safely net (plan : Augmentation.plan) =
  match safe_order net plan with
  | Error reason -> Error reason
  | Ok order ->
    List.iter (Igp.Network.inject_fake net) order;
    Ok ()

let revert_safely net (plan : Augmentation.plan) =
  match safe_removal_order net plan with
  | Error reason -> Error reason
  | Ok order ->
    List.iter
      (fun (fake : Igp.Lsa.fake) ->
        Igp.Network.retract_fake net ~fake_id:fake.fake_id)
      order;
    Ok order
