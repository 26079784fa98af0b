type route = { flow : Flow.t; links : Link.t list }

let epsilon = 1e-9

(* ------------------------------------------------------------------ *)
(* Indexed water-filling kernel.

   Progressive filling over weighted groups: group [g] stands for
   [weights.(g)] identical flows of demand [demands.(g)] sharing the
   links [links.(g)]; the returned rate is per member. The global water
   level rises; a group freezes when the level reaches its demand or
   when one of its links saturates. The fixed point is the same as the
   list-based reference below — the data layout is what changed:

   - links are interned to dense ints once; group<->link incidence is a
     CSR-style pair of arrays built once;
   - each link carries remaining capacity, total unfrozen weight and the
     level at which those were last reconciled, so a freeze touches only
     the frozen group's own links (lazy catch-up);
   - candidate saturation levels live in a min-heap with version-stamped
     lazy deletion, so each round pops the tightest link instead of
     rescanning every link with List.filter/List.length;
   - demand caps come from a pointer walking an index array sorted by
     demand.

   Per-round work is O(degree of what froze * log), not O(flows *
   links). *)

let m_wf_alloc = Obs.Metrics.counter "fairshare.alloc_words"

let water_fill_kernel capacities ~demands ~links ~weights =
  let n = Array.length demands in
  if Array.length links <> n || Array.length weights <> n then
    invalid_arg "Fairshare.water_fill: array length mismatch";
  Array.iter
    (fun w -> if w < 1 then invalid_arg "Fairshare.water_fill: weight < 1")
    weights;
  let rates = Array.make n 0. in
  if n = 0 then rates
  else begin
    (* Setup: normalize each group's link list, then intern links to
       dense ids in group order (ids fix the heap's tie-breaking). *)
    let normalized = Array.map (List.sort_uniq Link.compare) links in
    let ids : (Link.t, int) Hashtbl.t = Hashtbl.create (4 * n) in
    let nl = ref 0 in
    Array.iter
      (List.iter (fun l ->
           if not (Hashtbl.mem ids l) then begin
             Hashtbl.add ids l !nl;
             incr nl
           end))
      normalized;
    let incidence =
      Array.map (fun ls -> Array.of_list (List.map (Hashtbl.find ids) ls))
        normalized
    in
    let nl = !nl in
    let cap = Array.make nl 0. in
    Hashtbl.iter (fun l i -> cap.(i) <- Link.capacity capacities l) ids;
    (* CSR link -> member groups. *)
    let off = Array.make (nl + 1) 0 in
    Array.iter (Array.iter (fun l -> off.(l + 1) <- off.(l + 1) + 1)) incidence;
    for l = 1 to nl do
      off.(l) <- off.(l) + off.(l - 1)
    done;
    let pos = Array.copy off in
    let members = Array.make (max 1 off.(nl)) 0 in
    Array.iteri
      (fun g inc ->
        Array.iter
          (fun l ->
            members.(pos.(l)) <- g;
            pos.(l) <- pos.(l) + 1)
          inc)
      incidence;
    (* Per-link fill state, reconciled lazily up to [level_at]. *)
    let remaining = Array.copy cap in
    let level_at = Array.make nl 0. in
    let unfrozen_w = Array.make nl 0. in
    let version = Array.make nl 0 in
    let frozen = Array.make n false in
    let unfrozen = ref 0 in
    Array.iteri
      (fun g inc ->
        if Array.length inc = 0 then begin
          (* Locally delivered: only demand-capped. *)
          rates.(g) <- demands.(g);
          frozen.(g) <- true
        end
        else begin
          incr unfrozen;
          let w = float_of_int weights.(g) in
          Array.iter (fun l -> unfrozen_w.(l) <- unfrozen_w.(l) +. w) inc
        end)
      incidence;
    let heap : (int * int) Kit.Heap.t = Kit.Heap.create () in
    let push_link l =
      if unfrozen_w.(l) > 0. then
        Kit.Heap.push heap
          ~priority:(level_at.(l) +. (max 0. remaining.(l) /. unfrozen_w.(l)))
          (l, version.(l))
    in
    for l = 0 to nl - 1 do
      push_link l
    done;
    let by_demand = Array.init n (fun g -> g) in
    Array.sort (fun a b -> compare demands.(a) demands.(b)) by_demand;
    let dp = ref 0 in
    let level = ref 0. in
    (* Charge a link for the fluid growth of its unfrozen weight since it
       was last reconciled. *)
    let catch_up l =
      if !level > level_at.(l) then begin
        remaining.(l) <-
          remaining.(l) -. (unfrozen_w.(l) *. (!level -. level_at.(l)));
        level_at.(l) <- !level
      end
    in
    let freeze g rate =
      frozen.(g) <- true;
      rates.(g) <- rate;
      decr unfrozen;
      let w = float_of_int weights.(g) in
      Array.iter
        (fun l ->
          catch_up l;
          unfrozen_w.(l) <- unfrozen_w.(l) -. w;
          version.(l) <- version.(l) + 1;
          push_link l)
        incidence.(g)
    in
    (* Smallest live saturation level; stale heap entries (old version or
       fully frozen link) are dropped on the way. *)
    let rec live_top () =
      match Kit.Heap.peek heap with
      | None -> None
      | Some (s, (l, v)) ->
        if v <> version.(l) || unfrozen_w.(l) <= 0. then begin
          ignore (Kit.Heap.pop heap);
          live_top ()
        end
        else Some (s, l)
    in
    while !unfrozen > 0 do
      while !dp < n && frozen.(by_demand.(!dp)) do
        incr dp
      done;
      let demand_limit =
        if !dp < n then demands.(by_demand.(!dp)) else infinity
      in
      let link_limit =
        match live_top () with Some (s, _) -> s | None -> infinity
      in
      let target = min demand_limit link_limit in
      level := target;
      let froze = ref false in
      (* Demand-capped groups first. *)
      while
        !dp < n
        &&
        let g = by_demand.(!dp) in
        frozen.(g) || demands.(g) <= target +. epsilon
      do
        let g = by_demand.(!dp) in
        if not frozen.(g) then begin
          freeze g demands.(g);
          froze := true
        end;
        incr dp
      done;
      (* Groups crossing a saturated link freeze at the fair level. The
         test is epsilon-tolerant: when the demand limit sits within
         epsilon below the link limit, the saturated link still freezes
         this round instead of leaking into the safety net. *)
      let rec drain () =
        match live_top () with
        | Some (s, l) when s <= target +. epsilon ->
          ignore (Kit.Heap.pop heap);
          for k = off.(l) to off.(l + 1) - 1 do
            let g = members.(k) in
            if not frozen.(g) then begin
              freeze g target;
              froze := true
            end
          done;
          drain ()
        | Some _ | None -> ()
      in
      drain ();
      (* Numerical safety net: progress is guaranteed above, but if
         tolerances conspire, freeze everything at the current level. *)
      if not !froze then
        for g = 0 to n - 1 do
          if not frozen.(g) then begin
            rates.(g) <- target;
            frozen.(g) <- true;
            decr unfrozen
          end
        done
    done;
    rates
  end

let water_fill capacities ~demands ~links ~weights =
  if Obs.enabled () then
    Obs.Prof.with_span "fairshare.water_fill" ~alloc_counter:m_wf_alloc
      ~attrs:[ ("groups", Obs.Attr.Int (Array.length demands)) ]
      (fun () -> water_fill_kernel capacities ~demands ~links ~weights)
  else water_fill_kernel capacities ~demands ~links ~weights

let check_distinct_ids routes =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let id = r.flow.Flow.id in
      if Hashtbl.mem seen id then
        invalid_arg "Fairshare.allocate_reference: duplicate flow ids";
      Hashtbl.add seen id ())
    routes

(* ------------------------------------------------------------------ *)
(* Reference implementation: the original list-based progressive fill,
   kept as the oracle for the property tests and as the pre-kernel
   baseline the TFLOW bench times. Per round it rescans every link with
   List.filter/List.length, so it is O(flows * links) per freeze. *)

let allocate_reference capacities routes =
  check_distinct_ids routes;
  let routes_arr = Array.of_list routes in
  let n = Array.length routes_arr in
  let rates = Array.make n 0. in
  let frozen = Array.make n false in
  (* Distinct links and, per link, the indices of flows crossing it. *)
  let link_flows : (Link.t, int list) Hashtbl.t = Hashtbl.create 32 in
  Array.iteri
    (fun i r ->
      List.iter
        (fun link ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt link_flows link) in
          Hashtbl.replace link_flows link (i :: existing))
        (List.sort_uniq Link.compare r.links))
    routes_arr;
  let remaining : (Link.t, float) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun link _ -> Hashtbl.replace remaining link (Link.capacity capacities link))
    link_flows;
  (* Flows with no links are only demand-capped. *)
  Array.iteri
    (fun i r ->
      if r.links = [] then begin
        rates.(i) <- r.flow.Flow.demand;
        frozen.(i) <- true
      end)
    routes_arr;
  let level = ref 0. in
  let unfrozen_on link =
    List.filter (fun i -> not frozen.(i))
      (Option.value ~default:[] (Hashtbl.find_opt link_flows link))
  in
  let any_unfrozen () = Array.exists (fun f -> not f) frozen in
  while any_unfrozen () do
    (* Level at which the tightest link saturates. *)
    let link_limit = ref infinity and saturating = ref [] in
    Hashtbl.iter
      (fun link rem ->
        let count = List.length (unfrozen_on link) in
        if count > 0 then begin
          let saturation_level = !level +. (max 0. rem /. float_of_int count) in
          if saturation_level < !link_limit -. epsilon then begin
            link_limit := saturation_level;
            saturating := [ link ]
          end
          else if saturation_level < !link_limit +. epsilon then
            saturating := link :: !saturating
        end)
      remaining;
    (* Level at which the most modest flow hits its demand. *)
    let demand_limit = ref infinity in
    Array.iteri
      (fun i r ->
        if not frozen.(i) then
          demand_limit := min !demand_limit r.flow.Flow.demand)
      routes_arr;
    let target = min !link_limit !demand_limit in
    let delta = target -. !level in
    (* Consume capacity for the growth of all unfrozen flows. *)
    Hashtbl.iter
      (fun link rem ->
        let count = List.length (unfrozen_on link) in
        if count > 0 then
          Hashtbl.replace remaining link (rem -. (float_of_int count *. delta)))
      remaining;
    level := target;
    let froze = ref false in
    (* Demand-capped flows first. *)
    Array.iteri
      (fun i r ->
        if (not frozen.(i)) && r.flow.Flow.demand <= target +. epsilon then begin
          rates.(i) <- r.flow.Flow.demand;
          frozen.(i) <- true;
          froze := true
        end)
      routes_arr;
    (* Flows crossing a saturated link freeze at the fair level. The
       comparison is epsilon-tolerant (a demand limit within epsilon of
       the link limit used to skip this round entirely and dump the
       saturated flows into the safety net below). *)
    if !link_limit <= target +. epsilon then
      List.iter
        (fun link ->
          List.iter
            (fun i ->
              if not frozen.(i) then begin
                rates.(i) <- target;
                frozen.(i) <- true;
                froze := true
              end)
            (unfrozen_on link))
        !saturating;
    (* Numerical safety net: progress is guaranteed above, but if
       tolerances conspire, freeze everything at the current level. *)
    if not !froze then
      Array.iteri
        (fun i _ ->
          if not frozen.(i) then begin
            rates.(i) <- target;
            frozen.(i) <- true
          end)
        routes_arr
  done;
  Array.to_list (Array.mapi (fun i r -> (r.flow.Flow.id, rates.(i))) routes_arr)

let link_throughput routes allocation =
  let alloc : (int, float) Hashtbl.t = Hashtbl.create (2 * List.length allocation) in
  List.iter (fun (id, rate) -> Hashtbl.replace alloc id rate) allocation;
  let table : (Link.t, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let rate = Option.value ~default:0. (Hashtbl.find_opt alloc r.flow.Flow.id) in
      List.iter
        (fun link ->
          let current = Option.value ~default:0. (Hashtbl.find_opt table link) in
          Hashtbl.replace table link (current +. rate))
        (List.sort_uniq Link.compare r.links))
    routes;
  Hashtbl.to_seq table |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> Link.compare a b)
