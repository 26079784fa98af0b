module Sim = Netsim.Sim

type matrix = Sim.demand list

let bump table key amount =
  Hashtbl.replace table key
    (amount +. Option.value ~default:0. (Hashtbl.find_opt table key))

let on_link matrix (x, y) =
  let rec crosses = function
    | u :: (v :: _ as rest) -> (u = x && v = y) || crosses rest
    | _ -> false
  in
  let by_prefix = Hashtbl.create 4 in
  List.iter
    (fun (d : Sim.demand) ->
      match d.path with
      | Some path when crosses path -> bump by_prefix d.prefix d.amount
      | Some _ | None -> ())
    matrix;
  by_prefix

let mine ~prefix ~via (d : Sim.demand) path =
  Igp.Prefix.equal d.prefix prefix && List.mem via path

let foreign_loads matrix ~prefix ~via =
  let other = Hashtbl.create 32 in
  List.iter
    (fun (d : Sim.demand) ->
      match d.path with
      | Some path when not (mine ~prefix ~via d path) ->
        let rec walk = function
          | u :: (v :: _ as rest) ->
            bump other (u, v) d.amount;
            walk rest
          | _ -> ()
        in
        walk path
      | Some _ | None -> ())
    matrix;
  other

let through matrix ~prefix ~via =
  List.fold_left
    (fun acc (d : Sim.demand) ->
      match d.path with
      | Some path when mine ~prefix ~via d path -> acc +. d.amount
      | Some _ | None -> acc)
    0. matrix

let inflow matrix ~prefix ~via =
  let inflow = Hashtbl.create 4 in
  List.iter
    (fun (d : Sim.demand) ->
      match d.path with
      | Some path when Igp.Prefix.equal d.prefix prefix ->
        let rec find_pred = function
          | u :: (w :: _ as rest) ->
            if w = via then bump inflow u d.amount else find_pred rest
          | _ -> ()
        in
        find_pred path
      | Some _ | None -> ())
    matrix;
  inflow

let by_src matrix ~prefix ~except =
  let by_src = Hashtbl.create 4 in
  List.iter
    (fun (d : Sim.demand) ->
      if Igp.Prefix.equal d.prefix prefix && d.src <> except then
        bump by_src d.src d.amount)
    matrix;
  Hashtbl.fold (fun src d acc -> (src, d) :: acc) by_src [] |> List.sort compare

let heaviest table =
  Hashtbl.fold
    (fun key d acc ->
      match acc with
      | Some (_, bd) when bd >= d -> acc
      | Some _ | None -> Some (key, d))
    table None
