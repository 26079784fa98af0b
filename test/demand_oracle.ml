(* Independent oracle for the controller's demand tables: the per-stream
   scans the controller ran before it read [Sim.demand_matrix]. Each
   table walks [Sim.active_flows] (sorted by id) and every stream's
   current path, summing one stream's demand at a time, and fills its
   [Hashtbl] in that id order. *)

module Sim = Netsim.Sim
module Flow = Netsim.Flow

let bump table key amount =
  Hashtbl.replace table key
    (amount +. Option.value ~default:0. (Hashtbl.find_opt table key))

(* Offered demand per prefix over the directed link (x, y). *)
let on_link sim (x, y) =
  let by_prefix = Hashtbl.create 4 in
  List.iter
    (fun (flow : Flow.t) ->
      match Sim.flow_path sim flow.id with
      | None -> ()
      | Some path ->
        let rec crosses = function
          | u :: (v :: _ as rest) -> (u = x && v = y) || crosses rest
          | _ -> false
        in
        if crosses path then bump by_prefix flow.prefix flow.demand)
    (Sim.active_flows sim);
  by_prefix

(* Per-link demand of every routed stream except the prefix's streams
   through [via]. *)
let foreign_loads sim ~prefix ~via =
  let other = Hashtbl.create 32 in
  List.iter
    (fun (flow : Flow.t) ->
      match Sim.flow_path sim flow.id with
      | None -> ()
      | Some path ->
        let mine = Igp.Prefix.equal flow.prefix prefix && List.mem via path in
        let rec walk = function
          | u :: (v :: _ as rest) ->
            if not mine then bump other (u, v) flow.demand;
            walk rest
          | _ -> ()
        in
        walk path)
    (Sim.active_flows sim);
  other

let through sim ~prefix ~via =
  List.fold_left
    (fun acc (flow : Flow.t) ->
      match Sim.flow_path sim flow.id with
      | Some path when Igp.Prefix.equal flow.prefix prefix && List.mem via path ->
        acc +. flow.demand
      | Some _ | None -> acc)
    0. (Sim.active_flows sim)

let inflow sim ~prefix ~via =
  let inflow = Hashtbl.create 4 in
  List.iter
    (fun (flow : Flow.t) ->
      match Sim.flow_path sim flow.id with
      | Some path when Igp.Prefix.equal flow.prefix prefix ->
        let rec find_pred = function
          | u :: (w :: _ as rest) ->
            if w = via then bump inflow u flow.demand else find_pred rest
          | _ -> ()
        in
        find_pred path
      | Some _ | None -> ())
    (Sim.active_flows sim);
  inflow

(* Every active stream of the prefix, routed or not. *)
let by_src sim ~prefix ~except =
  let by_src = Hashtbl.create 4 in
  List.iter
    (fun (flow : Flow.t) ->
      if Igp.Prefix.equal flow.prefix prefix && flow.src <> except then
        bump by_src flow.src flow.demand)
    (Sim.active_flows sim);
  Hashtbl.fold (fun src d acc -> (src, d) :: acc) by_src [] |> List.sort compare

(* The controller's pick among equal sums: the first in fold order. *)
let heaviest table =
  Hashtbl.fold
    (fun key d acc ->
      match acc with
      | Some (_, bd) when bd >= d -> acc
      | Some _ | None -> Some (key, d))
    table None
