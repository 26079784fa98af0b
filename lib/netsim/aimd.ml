type t = { rates : (int, float) Hashtbl.t }

let initial_fraction = 0.1
let increase_per_s = 0.25
let decrease_factor = 0.7

let create () = { rates = Hashtbl.create 64 }

let rate t id = Option.value ~default:0. (Hashtbl.find_opt t.rates id)

let forget t id = Hashtbl.remove t.rates id

let update t ~dt ~capacities routes =
  (* Initialize newcomers. *)
  List.iter
    (fun (r : Fairshare.route) ->
      if not (Hashtbl.mem t.rates r.flow.Flow.id) then
        Hashtbl.replace t.rates r.flow.Flow.id
          (initial_fraction *. r.flow.Flow.demand))
    routes;
  (* Offered load per link at current rates. *)
  let load : (Link.t, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (r : Fairshare.route) ->
      let rate = rate t r.flow.Flow.id in
      List.iter
        (fun link ->
          Hashtbl.replace load link
            (rate +. Option.value ~default:0. (Hashtbl.find_opt load link)))
        (List.sort_uniq Link.compare r.links))
    routes;
  let congested link =
    Option.value ~default:0. (Hashtbl.find_opt load link)
    > Link.capacity capacities link +. 1e-9
  in
  (* AIMD step. *)
  List.map
    (fun (r : Fairshare.route) ->
      let id = r.flow.Flow.id in
      let current = rate t id in
      let next =
        if List.exists congested r.links then current *. decrease_factor
        else
          min r.flow.Flow.demand
            (current +. (increase_per_s *. r.flow.Flow.demand *. dt))
      in
      Hashtbl.replace t.rates id next;
      (id, next))
    routes
