let pfx = Igp.Prefix.v
(* Tests for the data-plane simulator: loads, fair sharing, hashing,
   events, monitor and the stepped simulation. *)

module G = Netgraph.Graph
module T = Netgraph.Topologies
module Link = Netsim.Link
module Flow = Netsim.Flow

let demo_net () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (d, net)

let fake ~id ~at ~cost ~fwd : Igp.Lsa.fake =
  {
    fake_id = id;
    attachment = at;
    attachment_cost = 1;
    prefix = pfx "blue";
    announced_cost = cost - 1;
    forwarding = fwd;
  }

let checkf = Alcotest.(check (float 1e-6))

(* [Hashing.walk]'s path as a list. *)
let route_with ~fib ~max_hops ~flow_id ~src =
  let path = Array.make (max_hops + 1) 0 in
  match Netsim.Hashing.walk ~fib ~max_hops ~flow_id ~src path with
  | -1 -> None
  | n -> Some (Array.to_list (Array.sub path 0 n))

(* A flow's path over the converged FIBs, as [Sim] resolves it. *)
let route net ~flow_id ~src prefix =
  route_with
    ~fib:(fun router -> Igp.Network.fib net ~router prefix)
    ~max_hops:(G.node_count (Igp.Network.graph net))
    ~flow_id ~src

(* Max-min rates of singleton flows, as [Sim] asks the kernel for them. *)
let allocate caps (routes : Netsim.Fairshare.route list) =
  let rates =
    Netsim.Fairshare.water_fill caps
      ~demands:(Array.of_list (List.map (fun r -> r.Netsim.Fairshare.flow.Flow.demand) routes))
      ~links:(Array.of_list (List.map (fun r -> r.Netsim.Fairshare.links) routes))
      ~weights:(Array.make (List.length routes) 1)
  in
  List.mapi (fun i (r : Netsim.Fairshare.route) -> (r.flow.id, rates.(i))) routes

(* Every link's smoothed utilization as the monitor reports it, by link. *)
let utilizations m =
  Netsim.Monitor.fold_utilizations m ~init:[] (fun link u acc -> (link, u) :: acc)
  |> List.sort (fun (a, _) (b, _) -> Netsim.Link.compare a b)

(* A link's smoothed utilization as the monitor reports it. *)
let utilization m link = Option.value ~default:0. (List.assoc_opt link (utilizations m))

(* A directed link's fluid load; [0.] when it carries nothing. *)
let load loads link =
  Option.value ~default:0. (List.assoc_opt link (Netsim.Loadmap.loads loads))

(* ---------- Link ---------- *)

let test_link_capacities () =
  let caps = Link.capacities ~default:10. in
  checkf "default" 10. (Link.capacity caps (0, 1));
  Link.set_link caps (2, 3) 7.;
  checkf "override" 7. (Link.capacity caps (2, 3));
  checkf "both dirs" 7. (Link.capacity caps (3, 2));
  checkf "others untouched" 10. (Link.capacity caps (2, 4))

let test_link_rejects_nonpositive () =
  Alcotest.(check bool) "bad default" true
    (try ignore (Link.capacities ~default:0.); false
     with Invalid_argument _ -> true);
  let caps = Link.capacities ~default:1. in
  Alcotest.(check bool) "bad set" true
    (try Link.set_link caps (0, 1) (-1.); false with Invalid_argument _ -> true)

(* ---------- Flow ---------- *)

let test_flow_lifecycle () =
  let f = Flow.make ~id:1 ~src:0 ~prefix:(pfx "p") ~demand:10. ~start_time:5. ~duration:10. () in
  checkf "start" 5. f.start_time;
  checkf "end" 15. (Flow.end_time f)

let test_flow_validation () =
  Alcotest.(check bool) "bad demand" true
    (try ignore (Flow.make ~id:1 ~src:0 ~prefix:(pfx "p") ~demand:0. ()); false
     with Invalid_argument _ -> true)

let rejected make = try ignore (make ()); false with Invalid_argument _ -> true

let test_flow_rejects_nan_demand () =
  Alcotest.(check bool) "NaN demand" true
    (rejected (Flow.make ~id:1 ~src:0 ~prefix:(pfx "p") ~demand:Float.nan))

let test_flow_rejects_nan_start () =
  Alcotest.(check bool) "NaN start time" true
    (rejected
       (Flow.make ~id:1 ~src:0 ~prefix:(pfx "p") ~demand:1. ~start_time:Float.nan))

let test_flow_rejects_nan_duration () =
  Alcotest.(check bool) "NaN duration" true
    (rejected
       (Flow.make ~id:1 ~src:0 ~prefix:(pfx "p") ~demand:1. ~duration:Float.nan))

(* ---------- Loadmap: the paper's Fig. 1b / 1d tables ---------- *)

let test_loadmap_fig1b () =
  (* Without Fibbing, 100 units from A and 100 from B pile up on B-R2
     and R2-C (the paper's "200" labels). *)
  let d, net = demo_net () in
  let loads =
    Netsim.Loadmap.propagate net
      [
        { src = d.a; prefix = pfx "blue"; amount = 100. };
        { src = d.b; prefix = pfx "blue"; amount = 100. };
      ]
  in
  checkf "A-B" 100. (load loads (d.a, d.b));
  checkf "B-R2" 200. (load loads (d.b, d.r2));
  checkf "R2-C" 200. (load loads (d.r2, d.c));
  checkf "B-R3 idle" 0. (load loads (d.b, d.r3));
  (match Netsim.Loadmap.max_utilization loads (Link.capacities ~default:1.) with
  | Some (link, load) ->
    Alcotest.(check bool) "max on B-R2 or R2-C" true
      (link = (d.b, d.r2) || link = (d.r2, d.c));
    checkf "max load 200" 200. load
  | None -> Alcotest.fail "no load")

let test_loadmap_fig1d () =
  (* With the paper's three fakes, the same demands spread to ~66 per
     link (Fig. 1d). *)
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Network.inject_fake net (fake ~id:"fA1" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Network.inject_fake net (fake ~id:"fA2" ~at:d.a ~cost:3 ~fwd:d.r1);
  let loads =
    Netsim.Loadmap.propagate net
      [
        { src = d.a; prefix = pfx "blue"; amount = 100. };
        { src = d.b; prefix = pfx "blue"; amount = 100. };
      ]
  in
  checkf "A-B third" (100. /. 3.) (load loads (d.a, d.b));
  checkf "A-R1 two thirds" (200. /. 3.) (load loads (d.a, d.r1));
  (* B carries its own 100 plus A's 33.3, split evenly. *)
  checkf "B-R2" (200. /. 3.) (load loads (d.b, d.r2));
  checkf "B-R3" (200. /. 3.) (load loads (d.b, d.r3));
  checkf "R1-R4" (200. /. 3.) (load loads (d.r1, d.r4));
  (match Netsim.Loadmap.max_utilization loads (Link.capacities ~default:1.) with
  | Some (_, load) -> checkf "max load ~66.7" (200. /. 3.) load
  | None -> Alcotest.fail "no load")

let test_loadmap_utilization () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let loads =
    Netsim.Loadmap.propagate net [ { src = d.b; prefix = pfx "blue"; amount = 50. } ]
  in
  match Netsim.Loadmap.max_utilization loads caps with
  | Some (link, u) ->
    Alcotest.(check bool) "B-R2 or R2-C" true (link = (d.b, d.r2) || link = (d.r2, d.c));
    checkf "50%" 0.5 u
  | None -> Alcotest.fail "no utilization"

let test_loadmap_unreachable () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let c = G.add_node g ~name:"c" in
  G.add_link g a b ~weight:1;
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net (pfx "p") ~origin:c ~cost:0;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netsim.Loadmap.propagate net [ { src = a; prefix = pfx "p"; amount = 1. } ]);
       false
     with Netsim.Loadmap.Unreachable p -> Igp.Prefix.equal p (pfx "p"))

let test_loadmap_conservation () =
  (* Total load on links into C equals total offered demand. *)
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  let loads =
    Netsim.Loadmap.propagate net
      [
        { src = d.a; prefix = pfx "blue"; amount = 70. };
        { src = d.b; prefix = pfx "blue"; amount = 30. };
      ]
  in
  let into_c =
    load loads (d.r2, d.c)
    +. load loads (d.r3, d.c)
    +. load loads (d.r4, d.c)
  in
  checkf "conservation" 100. into_c

(* ---------- Hashing ---------- *)

let test_hashing_respects_weights () =
  (* With weights B:1, R1:2, about 2/3 of many flows go to R1. *)
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fA1" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Network.inject_fake net (fake ~id:"fA2" ~at:d.a ~cost:3 ~fwd:d.r1);
  let fib = Option.get (Igp.Network.fib net ~router:d.a (pfx "blue")) in
  let n = 3000 in
  let to_r1 = ref 0 in
  for flow_id = 0 to n - 1 do
    match Netsim.Hashing.select ~flow_id ~router:d.a fib with
    | Some nh when nh = d.r1 -> incr to_r1
    | Some _ -> ()
    | None -> Alcotest.fail "no selection"
  done;
  let fraction = float_of_int !to_r1 /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f close to 2/3" fraction)
    true
    (abs_float (fraction -. (2. /. 3.)) < 0.05)

let test_hashing_stable () =
  let d, net = demo_net () in
  let fib = Option.get (Igp.Network.fib net ~router:d.a (pfx "blue")) in
  let first = Netsim.Hashing.select ~flow_id:7 ~router:d.a fib in
  for _ = 1 to 10 do
    Alcotest.(check bool) "same choice" true
      (Netsim.Hashing.select ~flow_id:7 ~router:d.a fib = first)
  done

let test_hashing_route_full_path () =
  let d, net = demo_net () in
  (match route net ~flow_id:1 ~src:d.a (pfx "blue") with
  | Some path ->
    Alcotest.(check (list int)) "A-B-R2-C" [ d.a; d.b; d.r2; d.c ] path
  | None -> Alcotest.fail "no route");
  (* From the announcer itself: single-node path. *)
  match route net ~flow_id:1 ~src:d.c (pfx "blue") with
  | Some path -> Alcotest.(check (list int)) "local" [ d.c ] path
  | None -> Alcotest.fail "no local route"

let test_hashing_route_detects_loop () =
  (* Two mutually-attracting cheap fakes create a forwarding loop; the
     router walk must bail out rather than spin. *)
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"l1" ~at:d.b ~cost:1 ~fwd:d.a);
  Igp.Network.inject_fake net (fake ~id:"l2" ~at:d.a ~cost:1 ~fwd:d.b);
  Alcotest.(check bool) "loop detected" true
    (route net ~flow_id:3 ~src:d.a (pfx "blue") = None)

(* The pick [Hashing.select] made before it read canonical entries in
   place: the flow's splitmix64 bucket over [Fib.weights]. *)
let weights_select ~flow_id ~router fib =
  let mix flow_id router =
    let open Int64 in
    let z = add (mul (of_int flow_id) 0x9E3779B97F4A7C15L) (of_int (router * 0x85EB)) in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 3)
  in
  let weights = Igp.Fib.weights fib in
  let total = List.fold_left (fun acc (_, m) -> acc + m) 0 weights in
  if total = 0 then None
  else
    let rec pick remaining = function
      | [] -> None
      | (hop, mult) :: rest -> if remaining < mult then Some hop else pick (remaining - mult) rest
    in
    pick (mix flow_id router mod total) weights

(* A hand-built FIB: [raw] entries as drawn (any order, repeated next
   hops, multiplicities up to 4) or, when [canonical], merged and sorted
   as SPF builds them. A [local] FIB has no entries and ends a walk. *)
let gen_fib =
  QCheck.Gen.(
    map3
      (fun raw canonical local ->
        let entries =
          List.map
            (fun (next_hop, multiplicity) ->
              { Igp.Fib.next_hop; multiplicity; via_fakes = [] })
            raw
        in
        let fib =
          { Igp.Fib.router = 0; prefix = pfx "p"; distance = 1; local; entries = [] }
        in
        let entries =
          if canonical then
            List.map
              (fun (next_hop, multiplicity) -> { Igp.Fib.next_hop; multiplicity; via_fakes = [] })
              (Igp.Fib.weights { fib with entries })
          else entries
        in
        if local then { fib with local } else { fib with entries })
      (list_size (int_range 0 5) (pair (int_range 0 5) (int_range 1 4)))
      bool (frequency [ (5, return false); (1, return true) ]))

let prop_select_matches_weights_pick =
  QCheck.Test.make ~name:"select = Fib.weights pick on any FIB" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_fib))
    (fun fibs ->
      List.for_all
        (fun fib ->
          List.for_all
            (fun router ->
              List.for_all
                (fun flow_id ->
                  Netsim.Hashing.select ~flow_id ~router fib
                  = weights_select ~flow_id ~router fib)
                (List.init 64 Fun.id))
            (List.init 8 Fun.id))
        fibs)

(* On a random forwarding view over six routers (some loop, some
   blackhole), [follows] accepts exactly the path [route_with] walks:
   the walked path itself, and no truncation or one-hop alteration. *)
let prop_follows_matches_route_with =
  QCheck.Test.make ~name:"follows path = (route_with = Some path)" ~count:300
    (QCheck.make QCheck.Gen.(pair (array_size (return 6) (opt gen_fib)) (int_range 0 1000)))
    (fun (view, flow_id) ->
      let fib r = view.(r) and max_hops = 6 in
      List.for_all
        (fun src ->
          match route_with ~fib ~max_hops ~flow_id ~src with
          | None -> true
          | Some path ->
            let n = List.length path in
            let truncated = List.filteri (fun i _ -> i < n - 1) path in
            let altered = List.mapi (fun i r -> if i = n - 1 then (r + 1) mod 6 else r) path in
            Netsim.Hashing.follows ~fib ~max_hops ~flow_id path
            && List.for_all
                 (fun p ->
                   Netsim.Hashing.follows ~fib ~max_hops ~flow_id p
                   = (p <> []
                     && route_with ~fib ~max_hops ~flow_id ~src:(List.hd p)
                        = Some p))
                 [ truncated; altered; path @ [ List.hd path ] ])
        (List.init 6 Fun.id))

(* ---------- Fairshare ---------- *)

let mkflow id demand = Flow.make ~id ~src:0 ~prefix:(pfx "p") ~demand ()

let test_fairshare_single_bottleneck () =
  let caps = Link.capacities ~default:10. in
  let routes =
    [
      { Netsim.Fairshare.flow = mkflow 1 100.; links = [ (0, 1) ] };
      { Netsim.Fairshare.flow = mkflow 2 100.; links = [ (0, 1) ] };
    ]
  in
  let alloc = allocate caps routes in
  checkf "even split 1" 5. (List.assoc 1 alloc);
  checkf "even split 2" 5. (List.assoc 2 alloc)

let test_fairshare_demand_capped () =
  let caps = Link.capacities ~default:10. in
  let routes =
    [
      { Netsim.Fairshare.flow = mkflow 1 2.; links = [ (0, 1) ] };
      { Netsim.Fairshare.flow = mkflow 2 100.; links = [ (0, 1) ] };
    ]
  in
  let alloc = allocate caps routes in
  checkf "small flow gets demand" 2. (List.assoc 1 alloc);
  checkf "big flow gets rest" 8. (List.assoc 2 alloc)

let test_fairshare_multi_bottleneck () =
  (* Classic example: flow X crosses links 1 and 2; flow Y only link 1;
     flow Z only link 2. cap(1)=10, cap(2)=4: X is limited by link 2. *)
  let caps = Link.capacities ~default:10. in
  Link.set_link caps (1, 2) 4.;
  let routes =
    [
      { Netsim.Fairshare.flow = mkflow 1 100.; links = [ (0, 1); (1, 2) ] };
      { Netsim.Fairshare.flow = mkflow 2 100.; links = [ (0, 1) ] };
      { Netsim.Fairshare.flow = mkflow 3 100.; links = [ (1, 2) ] };
    ]
  in
  let alloc = allocate caps routes in
  checkf "X limited by small link" 2. (List.assoc 1 alloc);
  checkf "Y takes slack on big link" 8. (List.assoc 2 alloc);
  checkf "Z fair share of small link" 2. (List.assoc 3 alloc)

let test_fairshare_empty_path () =
  let caps = Link.capacities ~default:10. in
  let alloc =
    allocate caps
      [ { Netsim.Fairshare.flow = mkflow 1 3.; links = [] } ]
  in
  checkf "full demand" 3. (List.assoc 1 alloc)

let test_fairshare_duplicate_ids_rejected () =
  let caps = Link.capacities ~default:10. in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Netsim.Fairshare.allocate_reference caps
            [
              { Netsim.Fairshare.flow = mkflow 1 3.; links = [] };
              { Netsim.Fairshare.flow = mkflow 1 3.; links = [] };
            ]);
       false
     with Invalid_argument _ -> true)

let test_fairshare_link_throughput () =
  let caps = Link.capacities ~default:10. in
  let routes =
    [
      { Netsim.Fairshare.flow = mkflow 1 4.; links = [ (0, 1); (1, 2) ] };
      { Netsim.Fairshare.flow = mkflow 2 3.; links = [ (0, 1) ] };
    ]
  in
  let alloc = allocate caps routes in
  let tp = Netsim.Fairshare.link_throughput routes alloc in
  checkf "shared link" 7. (List.assoc (0, 1) tp);
  checkf "second link" 4. (List.assoc (1, 2) tp)

(* Properties: allocation never exceeds capacity on any link, never
   exceeds demand, and is work-conserving at the bottleneck. *)
let fairshare_gen =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "flows=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 20) (int_range 0 100000))

let random_routes (n, seed) =
  let prng = Kit.Prng.create ~seed in
  List.init n (fun i ->
      let hops = 1 + Kit.Prng.int prng 4 in
      let start = Kit.Prng.int prng 5 in
      let links = List.init hops (fun h -> (start + h, start + h + 1)) in
      {
        Netsim.Fairshare.flow =
          Flow.make ~id:i ~src:0 ~prefix:(pfx "p")
            ~demand:(1. +. Kit.Prng.float prng 9.) ();
        links;
      })

let prop_fairshare_feasible =
  QCheck.Test.make ~name:"allocation within capacity and demand" ~count:200
    fairshare_gen (fun input ->
      let routes = random_routes input in
      let caps = Link.capacities ~default:6. in
      let alloc = allocate caps routes in
      let tp = Netsim.Fairshare.link_throughput routes alloc in
      List.for_all (fun (_, t) -> t <= 6. +. 1e-6) tp
      && List.for_all
           (fun r ->
             let rate = List.assoc r.Netsim.Fairshare.flow.Flow.id alloc in
             rate <= r.Netsim.Fairshare.flow.Flow.demand +. 1e-6 && rate >= 0.)
           routes)

let prop_fairshare_work_conserving =
  QCheck.Test.make ~name:"each flow is demand- or bottleneck-limited" ~count:200
    fairshare_gen (fun input ->
      let routes = random_routes input in
      let caps = Link.capacities ~default:6. in
      let alloc = allocate caps routes in
      let tp = Netsim.Fairshare.link_throughput routes alloc in
      List.for_all
        (fun r ->
          let rate = List.assoc r.Netsim.Fairshare.flow.Flow.id alloc in
          let demand_limited =
            rate >= r.Netsim.Fairshare.flow.Flow.demand -. 1e-6
          in
          let bottlenecked =
            List.exists
              (fun link ->
                Option.value ~default:0. (List.assoc_opt link tp) >= 6. -. 1e-6)
              r.Netsim.Fairshare.links
          in
          demand_limited || bottlenecked || r.Netsim.Fairshare.links = [])
        routes)

(* Regression for the freeze tie-break: a flow whose demand lands
   exactly on the fair-share level must freeze at its demand, in both
   kernels. The seed compared the saturation level with [=], so such a
   flow could be frozen at the link level a round early (or late)
   depending on float luck. *)
let test_fairshare_demand_equals_level () =
  let caps = Link.capacities ~default:10. in
  let exact =
    Netsim.Fairshare.
      [
        { flow = mkflow 1 5.; links = [ (0, 1) ] };
        { flow = mkflow 2 100.; links = [ (0, 1) ] };
      ]
  in
  (* Level of the 10-cap link with two flows is 5: flow 1's demand sits
     exactly on it. Both must end at exactly 5. *)
  List.iter
    (fun (label, alloc) ->
      checkf (label ^ ": capped flow at demand") 5. (List.assoc 1 alloc);
      checkf (label ^ ": elastic flow takes rest") 5. (List.assoc 2 alloc))
    [
      ("kernel", allocate caps exact);
      ("reference", Netsim.Fairshare.allocate_reference caps exact);
    ];
  (* A demand a hair under the level must not leave the elastic flow
     short: epsilon-tolerant freezing gives 5 - 1e-10 and ~5, not a
     stuck round. *)
  let near =
    Netsim.Fairshare.
      [
        { flow = mkflow 1 (5. -. 1e-10); links = [ (0, 1) ] };
        { flow = mkflow 2 100.; links = [ (0, 1) ] };
      ]
  in
  List.iter
    (fun (label, alloc) ->
      Alcotest.(check bool)
        (label ^ ": near-exact demand") true
        (abs_float (List.assoc 1 alloc -. 5.) < 1e-6
        && abs_float (List.assoc 2 alloc -. 5.) < 1e-6))
    [
      ("kernel", allocate caps near);
      ("reference", Netsim.Fairshare.allocate_reference caps near);
    ]

(* The indexed kernel against the list oracle, rate for rate. *)
let prop_fairshare_matches_reference =
  QCheck.Test.make ~name:"indexed kernel matches list reference" ~count:300
    fairshare_gen (fun input ->
      let routes = random_routes input in
      let caps = Link.capacities ~default:6. in
      let fast = allocate caps routes in
      let slow = Netsim.Fairshare.allocate_reference caps routes in
      List.length fast = List.length slow
      && List.for_all2
           (fun (id_f, r_f) (id_s, r_s) ->
             id_f = id_s && abs_float (r_f -. r_s) < 1e-6)
           fast slow)

(* Max-min optimality, not just feasibility: a flow below demand must be
   bottlenecked on a saturated link where no other flow does better —
   raising it would require lowering someone no better off. *)
let prop_fairshare_max_min_optimal =
  QCheck.Test.make ~name:"below-demand flows are max-min bottlenecked"
    ~count:300 fairshare_gen (fun input ->
      let routes = random_routes input in
      let caps = Link.capacities ~default:6. in
      let alloc = allocate caps routes in
      let tp = Netsim.Fairshare.link_throughput routes alloc in
      let rate (r : Netsim.Fairshare.route) = List.assoc r.flow.Flow.id alloc in
      List.for_all
        (fun (r : Netsim.Fairshare.route) ->
          rate r >= r.flow.Flow.demand -. 1e-6
          || List.exists
               (fun link ->
                 Option.value ~default:0. (List.assoc_opt link tp)
                 >= 6. -. 1e-6
                 && List.for_all
                      (fun (r' : Netsim.Fairshare.route) ->
                        (not (List.mem link r'.links))
                        || rate r' <= rate r +. 1e-6)
                      routes)
               r.links)
        routes)

(* Weighted groups: water_fill must agree with allocate on the expanded
   singleton population, and conserve capacity under the weights. *)
let water_fill_gen =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "groups=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 8) (int_range 0 100000))

let prop_water_fill_groups =
  QCheck.Test.make ~name:"water_fill = allocate on expanded singletons"
    ~count:300 water_fill_gen (fun (n, seed) ->
      let prng = Kit.Prng.create ~seed in
      let groups =
        List.init n (fun _ ->
            let hops = 1 + Kit.Prng.int prng 4 in
            let start = Kit.Prng.int prng 5 in
            let links = List.init hops (fun h -> (start + h, start + h + 1)) in
            let demand = 0.5 +. Kit.Prng.float prng 4.5 in
            let weight = 1 + Kit.Prng.int prng 5 in
            (demand, links, weight))
      in
      let caps = Link.capacities ~default:20. in
      let rates =
        Netsim.Fairshare.water_fill caps
          ~demands:(Array.of_list (List.map (fun (d, _, _) -> d) groups))
          ~links:(Array.of_list (List.map (fun (_, l, _) -> l) groups))
          ~weights:(Array.of_list (List.map (fun (_, _, w) -> w) groups))
      in
      (* Conservation: per-link sum of weight * member-rate <= capacity. *)
      let load = Hashtbl.create 16 in
      List.iteri
        (fun g (_, links, weight) ->
          List.iter
            (fun link ->
              let prev = Option.value ~default:0. (Hashtbl.find_opt load link) in
              Hashtbl.replace load link
                (prev +. (float_of_int weight *. rates.(g))))
            (List.sort_uniq Link.compare links))
        groups;
      let conserved =
        Hashtbl.fold (fun _ l acc -> acc && l <= 20. +. 1e-6) load true
      in
      (* Equivalence: expand each group into [weight] singleton flows. *)
      let expanded =
        List.concat
          (List.mapi
             (fun g (demand, links, weight) ->
               List.init weight (fun m ->
                   { Netsim.Fairshare.flow = mkflow ((g * 100) + m) demand; links }))
             groups)
      in
      let alloc = allocate caps expanded in
      let agrees =
        List.for_all
          (fun (r : Netsim.Fairshare.route) ->
            abs_float
              (List.assoc r.flow.Flow.id alloc -. rates.(r.flow.Flow.id / 100))
            < 1e-6)
          expanded
      in
      conserved && agrees)

(* ---------- Events ---------- *)

let test_events_ordering () =
  let q = Netsim.Events.create () in
  Netsim.Events.schedule q ~time:3. "c";
  Netsim.Events.schedule q ~time:1. "a";
  Netsim.Events.schedule q ~time:2. "b";
  let drain ~time =
    let seen = ref [] in
    Netsim.Events.drain q ~time (fun e -> seen := e :: !seen);
    List.rev !seen
  in
  Alcotest.(check (list string)) "nothing due" [] (drain ~time:0.5);
  Alcotest.(check (list string)) "first two" [ "a"; "b" ] (drain ~time:2.);
  Alcotest.(check (list string)) "one left" [ "c" ] (drain ~time:infinity)

let test_events_negative_time () =
  let q = Netsim.Events.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Events.schedule: negative time")
    (fun () -> Netsim.Events.schedule q ~time:(-1.) "x")

(* Random interleavings of [schedule] and [drain] against a reference
   list stable-sorted by time. Times come from a few values, so ties are
   common, [0.] and [-0.] (equal times) included; the values with long
   mantissas make the radix sort run its low-byte passes, and batches
   past 32 events take the radix path rather than the insertion sort.
   An event may schedule another from inside the drain, which must wait
   for the next drain. At the end, every drained event must be
   collectable and every pending one still held. *)
let event_times = [| 0.; -0.; 0.1; 1. /. 3.; 1.; 2.5; 4e-310; 7.; infinity |]
let drain_bounds = [| -0.; 0.; 0.2; 1.; 2.5; 7.; infinity |]

type events_op = Schedule of (int * int option) list | Drain of int

type queued = { id : int; spawn : int option }

let events_ops =
  let open QCheck.Gen in
  let time = int_bound (Array.length event_times - 1) in
  let spawn = frequency [ (3, return None); (1, map Option.some time) ] in
  let op =
    frequency
      [
        (2, map (fun l -> Schedule l) (list_size (int_bound 80) (pair time spawn)));
        (1, map (fun b -> Drain b) (int_bound (Array.length drain_bounds - 1)));
      ]
  in
  let print = function
    | Schedule l ->
      Printf.sprintf "schedule [%s]"
        (String.concat "; "
           (List.map
              (fun (t, s) ->
                Printf.sprintf "%g%s" event_times.(t)
                  (match s with Some s -> Printf.sprintf "->%g" event_times.(s) | None -> ""))
              l))
    | Drain b -> Printf.sprintf "drain %g" drain_bounds.(b)
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_bound 30) op)

let prop_events_contract =
  QCheck.Test.make ~name:"drain = stable sort by time; drained events collectable" ~count:300
    events_ops (fun ops ->
      let q = Netsim.Events.create () in
      let weak = Weak.create 8192 and next = ref 0 in
      (* Pending (time, id) in scheduling order, and the drained ids. *)
      let model = ref [] and drained = ref [] in
      let schedule (t, spawn) =
        let id = !next in
        incr next;
        let time = event_times.(t) in
        let e = { id; spawn } in
        Weak.set weak id (Some e);
        Netsim.Events.schedule q ~time e;
        model := !model @ [ (time, id) ]
      in
      let drain bound =
        let due, rest = List.partition (fun (time, _) -> time <= bound) !model in
        let by_time (a, _) (b, _) = if a < b then -1 else if a > b then 1 else 0 in
        let expected = List.map snd (List.stable_sort by_time due) in
        model := rest;
        let got = ref [] in
        Netsim.Events.drain q ~time:bound (fun e ->
            got := e.id :: !got;
            Option.iter (fun t -> schedule (t, None)) e.spawn);
        drained := List.rev_append expected !drained;
        List.rev !got = expected
      in
      let ordered =
        List.for_all
          (function
            | Schedule l ->
              List.iter schedule l;
              true
            | Drain b -> drain drain_bounds.(b))
          ops
      in
      Gc.full_major ();
      let released = List.for_all (fun id -> not (Weak.check weak id)) !drained in
      let held = List.for_all (fun (_, id) -> Weak.check weak id) !model in
      let rest_ordered = drain infinity in
      Gc.full_major ();
      ordered && released && held && rest_ordered
      && List.for_all (fun id -> not (Weak.check weak id)) !drained)

(* ---------- Monitor ---------- *)

let test_monitor_alarm_cycle () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~poll_interval:1. ~threshold:0.9 ~clear_threshold:0.5
      ~alpha:1.0 caps
  in
  (* Saturate for 1s. *)
  Netsim.Monitor.observe m ~time:1. ~dt:1. [ ((0, 1), 10.) ];
  Alcotest.(check bool) "poll due" true (Netsim.Monitor.poll_due m ~time:1.);
  let alarms = Netsim.Monitor.poll m ~time:1. in
  Alcotest.(check int) "one alarm" 1 (List.length alarms);
  Alcotest.(check bool) "raised" true (List.hd alarms).raised;
  Alcotest.(check (pair int int)) "on the saturated link" (0, 1) (List.hd alarms).link;
  (* Idle window clears it. *)
  Netsim.Monitor.observe m ~time:2. ~dt:1. [ ((0, 1), 1.) ];
  let alarms = Netsim.Monitor.poll m ~time:2. in
  Alcotest.(check int) "one clear" 1 (List.length alarms);
  Alcotest.(check bool) "cleared" false (List.hd alarms).raised

let test_monitor_no_repeat_alarms () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~alpha:1.0 caps in
  Netsim.Monitor.observe m ~time:2. ~dt:2. [ ((0, 1), 10.) ];
  ignore (Netsim.Monitor.poll m ~time:2.);
  Netsim.Monitor.observe m ~time:4. ~dt:2. [ ((0, 1), 10.) ];
  let alarms = Netsim.Monitor.poll m ~time:4. in
  Alcotest.(check int) "no repeat" 0 (List.length alarms)

let test_monitor_ewma_smoothing () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~alpha:0.5 caps in
  Netsim.Monitor.observe m ~time:2. ~dt:2. [ ((0, 1), 10.) ];
  ignore (Netsim.Monitor.poll m ~time:2.);
  checkf "first estimate is raw" 1.0 (utilization m (0, 1));
  (* Silence decays towards zero. *)
  ignore (Netsim.Monitor.poll m ~time:4.);
  checkf "decayed" 0.5 (utilization m (0, 1));
  List.iter
    (fun alpha ->
      Alcotest.(check bool) (Printf.sprintf "alpha %g rejected" alpha) true
        (try ignore (Netsim.Monitor.create ~alpha caps); false
         with Invalid_argument _ -> true))
    [ 0.; 7.; Float.nan ]

let test_monitor_poll_cadence () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~poll_interval:2. caps in
  Alcotest.(check bool) "not due early" false (Netsim.Monitor.poll_due m ~time:1.9);
  Alcotest.(check bool) "due at interval" true (Netsim.Monitor.poll_due m ~time:2.);
  ignore (Netsim.Monitor.poll m ~time:2.);
  Alcotest.(check bool) "window restarts" false (Netsim.Monitor.poll_due m ~time:3.9);
  Alcotest.(check bool) "due again" true (Netsim.Monitor.poll_due m ~time:4.)

let test_monitor_hysteresis_band () =
  (* Utilization between clear_threshold and threshold keeps the alarm:
     no repeat alarm, no premature clear. *)
  let caps = Link.capacities ~default:10. in
  let m =
    Netsim.Monitor.create ~poll_interval:1. ~threshold:0.9 ~clear_threshold:0.5
      ~alpha:1.0 caps
  in
  Netsim.Monitor.observe m ~time:1. ~dt:1. [ ((0, 1), 10.) ];
  Alcotest.(check int) "raised" 1 (List.length (Netsim.Monitor.poll m ~time:1.));
  Netsim.Monitor.observe m ~time:2. ~dt:1. [ ((0, 1), 7.) ];
  Alcotest.(check int) "in-band: silent" 0
    (List.length (Netsim.Monitor.poll m ~time:2.));
  Netsim.Monitor.observe m ~time:3. ~dt:1. [ ((0, 1), 4.) ];
  let alarms = Netsim.Monitor.poll m ~time:3. in
  Alcotest.(check int) "cleared below clear_threshold" 1 (List.length alarms);
  Alcotest.(check bool) "clear event" false (List.hd alarms).raised

(* Property: with offered rates within capacity and observation windows
   covering each poll interval, the smoothed estimate stays in [0, 1]. *)
let monitor_gen =
  QCheck.make
    ~print:(fun (polls, seed) -> Printf.sprintf "polls=%d seed=%d" polls seed)
    QCheck.Gen.(pair (int_range 1 20) (int_range 0 100000))

let prop_monitor_utilization_bounded =
  QCheck.Test.make ~name:"smoothed utilization stays within [0, 1]" ~count:200
    monitor_gen (fun (polls, seed) ->
      let prng = Kit.Prng.create ~seed in
      let capacity = 10. in
      let caps = Link.capacities ~default:capacity in
      let alpha = 0.1 +. Kit.Prng.float prng 0.9 in
      let m = Netsim.Monitor.create ~poll_interval:1. ~alpha caps in
      let links = [ (0, 1); (1, 2); (2, 3) ] in
      for p = 1 to polls do
        let time = float_of_int p in
        (* Two half-window observations per poll, each within capacity. *)
        List.iter
          (fun half ->
            let rates =
              List.filter_map
                (fun link ->
                  if Kit.Prng.float prng 1. < 0.7 then
                    Some (link, Kit.Prng.float prng capacity)
                  else None)
                links
            in
            Netsim.Monitor.observe m ~time:(time -. 0.5 +. (0.5 *. half))
              ~dt:0.5 rates)
          [ 1.; 2. ];
        ignore (Netsim.Monitor.poll m ~time)
      done;
      List.for_all
        (fun (_, u) -> u >= -1e-9 && u <= 1. +. 1e-9)
        (utilizations m))

(* ---------- Sim ---------- *)

let test_sim_single_flow_full_rate () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:0.5 net caps in
  Netsim.Sim.track_link sim (d.b, d.r2);
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  Netsim.Sim.run_until sim 5.;
  checkf "full demand" 10. (Netsim.Sim.flow_rate sim 0);
  (match Netsim.Sim.flow_path sim 0 with
  | Some path -> Alcotest.(check (list int)) "path" [ d.a; d.b; d.r2; d.c ] path
  | None -> Alcotest.fail "no path");
  let series = Netsim.Sim.link_series sim (d.b, d.r2) in
  checkf "series records rate" 10. (Series.value_at series 4.)

(* Histories are kept only for what was asked for. A tracked link gets
   one sample per step from the step after it was first asked for (the
   last completed step's rate, 0. when idle), and with [flow_history]
   every flow gets one per step it was active: the samples an on-step
   oracle reads from [current_link_rates] and [flow_rate]. A link nobody
   asked for, and every flow without [flow_history], records nothing. *)
let test_sim_histories_only_when_asked () =
  let run ~flow_history =
    let d, net = demo_net () in
    let sim = Netsim.Sim.create ~dt:0.5 ~flow_history net (Link.capacities ~default:15.) in
    Netsim.Sim.track_link sim (d.b, d.r2);
    for i = 0 to 5 do
      Netsim.Sim.add_flow sim
        (Flow.make ~id:i ~src:(if i mod 2 = 0 then d.a else d.b) ~prefix:(pfx "blue")
           ~demand:(float_of_int (4 + i)) ~start_time:(float_of_int i)
           ~duration:(3. +. float_of_int i) ())
    done;
    Netsim.Sim.fail_link sim ~time:4. (d.b, d.r2);
    Netsim.Sim.restore_link sim ~time:7. (d.b, d.r2);
    let links = Hashtbl.create 8 and flows = Hashtbl.create 8 in
    let push tbl key sample =
      Hashtbl.replace tbl key (sample :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
    in
    let late = ref false in
    Netsim.Sim.on_step sim (fun sim ->
        let at = Netsim.Sim.time sim -. Netsim.Sim.dt sim in
        let rate link =
          Option.value ~default:0. (List.assoc_opt link (Netsim.Sim.current_link_rates sim))
        in
        push links (d.b, d.r2) (at, rate (d.b, d.r2));
        if !late then push links (d.b, d.r3) (at, rate (d.b, d.r3));
        List.iter
          (fun (f : Flow.t) -> push flows f.id (at, Netsim.Sim.flow_rate sim f.id))
          (Netsim.Sim.active_flows sim));
    Netsim.Sim.run_until sim 3.;
    Alcotest.(check int) "not yet asked for" 0
      (List.length (Kit.Timeseries.samples (Netsim.Sim.link_series sim (d.b, d.r3))));
    late := true;
    Netsim.Sim.run_until sim 12.;
    let samples = Alcotest.(list (pair (float 0.) (float 0.))) in
    let expected tbl key = List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
    List.iter
      (fun link ->
        Alcotest.check samples "tracked link" (expected links link)
          (Kit.Timeseries.samples (Netsim.Sim.link_series sim link)))
      [ (d.b, d.r2); (d.b, d.r3) ];
    Alcotest.(check bool) "B-R3 carried traffic" true
      (List.exists (fun (_, r) -> r > 0.) (expected links (d.b, d.r3)));
    Alcotest.(check int) "untracked link" 0
      (List.length (Kit.Timeseries.samples (Netsim.Sim.link_series sim (d.a, d.b))));
    for id = 0 to 5 do
      Alcotest.check samples "flow" (if flow_history then expected flows id else [])
        (Kit.Timeseries.samples (Netsim.Sim.flow_series sim id))
    done
  in
  run ~flow_history:true;
  run ~flow_history:false

let test_sim_congestion_throttles () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:15. in
  let sim = Netsim.Sim.create ~dt:0.5 net caps in
  for i = 0 to 2 do
    Netsim.Sim.add_flow sim (Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:10. ())
  done;
  Netsim.Sim.run_until sim 2.;
  (* 3 x 10 demand through 15-capacity path: each gets 5. *)
  checkf "throttled" 5. (Netsim.Sim.flow_rate sim 0)

let test_sim_flow_arrival_departure () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.add_flow sim
    (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ~start_time:2. ~duration:3. ());
  Netsim.Sim.run_until sim 1.;
  Alcotest.(check int) "not yet active" 0 (List.length (Netsim.Sim.active_flows sim));
  Netsim.Sim.run_until sim 3.;
  Alcotest.(check int) "active" 1 (List.length (Netsim.Sim.active_flows sim));
  Netsim.Sim.run_until sim 6.;
  Alcotest.(check int) "departed" 0 (List.length (Netsim.Sim.active_flows sim));
  checkf "rate zero after departure" 0. (Netsim.Sim.flow_rate sim 0)

(* A flow whose stop falls in the step it starts in is never placed:
   mixed into a crowd, no such flow may show in any step's active flows,
   demand matrix or unroutable flows. Half of them aim at a prefix no
   router announces, so they would be unroutable if they were placed;
   the others come from R4, where no normal flow starts. *)
let test_sim_sub_dt_flows_never_placed () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:0.5 net caps in
  let short = Hashtbl.create 64 in
  for i = 0 to 399 do
    let step = float_of_int (i mod 8) *. 0.5 in
    if i mod 4 = 3 then begin
      Hashtbl.replace short i ();
      let prefix = if i mod 8 = 3 then pfx "nowhere" else pfx "blue" in
      Netsim.Sim.add_flow sim
        (Flow.make ~id:i ~src:d.r4 ~prefix ~demand:1. ~start_time:(step +. 0.1)
           ~duration:0.2 ())
    end
    else
      Netsim.Sim.add_flow sim
        (Flow.make ~id:i ~src:(if i mod 2 = 0 then d.a else d.b) ~prefix:(pfx "blue")
           ~demand:1. ~start_time:(step +. 0.1) ~duration:(1. +. float_of_int (i mod 5)) ())
  done;
  let normal_seen = ref 0 in
  while Netsim.Sim.time sim < 10. do
    Netsim.Sim.run_until sim (Netsim.Sim.time sim +. 0.5);
    let active = Netsim.Sim.active_flows sim in
    List.iter
      (fun (f : Flow.t) ->
        if Hashtbl.mem short f.id then Alcotest.failf "flow %d active" f.id)
      active;
    normal_seen := max !normal_seen (List.length active);
    List.iter
      (fun id -> if Hashtbl.mem short id then Alcotest.failf "flow %d unroutable" id)
      (Netsim.Sim.unroutable_flows sim);
    List.iter
      (fun (e : Netsim.Sim.demand) ->
        if e.src = d.r4 || e.path = None then Alcotest.fail "sub-dt flow in the demand matrix")
      (Netsim.Sim.demand_matrix sim)
  done;
  Alcotest.(check bool) "normal flows were active" true (!normal_seen > 100);
  Alcotest.(check int) "all gone" 0 (List.length (Netsim.Sim.active_flows sim))

let test_sim_reroutes_on_fake_injection () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.track_link sim (d.b, d.r3);
  (* Many flows so that some hash onto the new path. *)
  for i = 0 to 19 do
    Netsim.Sim.add_flow sim (Flow.make ~id:i ~src:d.b ~prefix:(pfx "blue") ~demand:1. ())
  done;
  Netsim.Sim.run_until sim 2.;
  let series_r3 = Netsim.Sim.link_series sim (d.b, d.r3) in
  checkf "nothing on B-R3 initially" 0. (Series.value_at series_r3 1.);
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  Netsim.Sim.run_until sim 4.;
  Alcotest.(check bool) "traffic moved to B-R3" true
    (Series.value_at series_r3 3. > 0.)

let test_sim_monitor_hook_fires () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:10. in
  let monitor = Netsim.Monitor.create ~poll_interval:1. ~alpha:1.0 caps in
  let sim = Netsim.Sim.create ~dt:0.5 ~monitor net caps in
  let fired = ref 0 in
  Netsim.Sim.on_poll sim (fun _ alarms -> if alarms <> [] then incr fired);
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:50. ());
  Netsim.Sim.run_until sim 3.;
  Alcotest.(check bool) "alarm raised at least once" true (!fired >= 1)

let test_sim_rejects_duplicate_flow () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:10. in
  let sim = Netsim.Sim.create net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:1. ());
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:1. ());
       false
     with Invalid_argument _ -> true)

let test_sim_rejected_add_frees_id () =
  (* A flow record built around [Flow.make]'s checks carries a NaN
     start; the queue rejects it, and its id must stay free. *)
  let d, net = demo_net () in
  let sim = Netsim.Sim.create net (Link.capacities ~default:10.) in
  let flow = Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:1. () in
  Alcotest.(check bool) "NaN start rejected" true
    (rejected (fun () ->
         Netsim.Sim.add_flow sim { flow with Flow.start_time = Float.nan }));
  Netsim.Sim.add_flow sim flow;
  Netsim.Sim.run_until sim 1.;
  Alcotest.(check (list int)) "re-added flow active" [ 0 ]
    (List.map (fun (f : Flow.t) -> f.id) (Netsim.Sim.active_flows sim))

(* [Flow.t] is a public record, so a record update bypasses
   [Flow.make]: [add_flow] re-checks every field before it schedules
   anything, and a rejected flow leaves its id free. *)
let test_sim_add_flow_rechecks_fields () =
  let d, net = demo_net () in
  let sim = Netsim.Sim.create net (Link.capacities ~default:10.) in
  let flow = Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:1. ~duration:2. () in
  List.iter
    (fun (name, bad) ->
      Alcotest.(check bool) name true (rejected (fun () -> Netsim.Sim.add_flow sim bad)))
    [
      ("NaN demand", { flow with Flow.demand = Float.nan });
      ("zero demand", { flow with Flow.demand = 0. });
      ("negative demand", { flow with Flow.demand = -1. });
      ("NaN duration", { flow with Flow.duration = Float.nan });
      ("NaN start time", { flow with Flow.start_time = Float.nan });
    ];
  Netsim.Sim.add_flow sim flow;
  Netsim.Sim.run_until sim 1.;
  Alcotest.(check (list int)) "id still free" [ 0 ]
    (List.map (fun (f : Flow.t) -> f.id) (Netsim.Sim.active_flows sim))

(* Ids stay unique for the simulator's whole life: a stopped flow's id
   is still taken. *)
let test_sim_stopped_id_stays_taken () =
  let d, net = demo_net () in
  let sim = Netsim.Sim.create net (Link.capacities ~default:10.) in
  let flow = Flow.make ~id:7 ~src:d.a ~prefix:(pfx "blue") ~demand:1. ~duration:1. () in
  Netsim.Sim.add_flow sim flow;
  Netsim.Sim.run_until sim 2.;
  Alcotest.(check (list int)) "stopped" []
    (List.map (fun (f : Flow.t) -> f.id) (Netsim.Sim.active_flows sim));
  Alcotest.(check bool) "re-add rejected" true
    (rejected (fun () -> Netsim.Sim.add_flow sim { flow with Flow.start_time = 2. }))

(* A stops and B starts in the same step. A was the only flow, so the
   slot it frees is the one B takes; nothing of A may show through it. *)
let test_sim_slot_reuse () =
  let d, net = demo_net () in
  let sim = Netsim.Sim.create ~dt:0.5 net (Link.capacities ~default:10.) in
  let a = Flow.make ~id:1 ~src:d.a ~prefix:(pfx "blue") ~demand:3. ~duration:1. () in
  let b = Flow.make ~id:2 ~src:d.r4 ~prefix:(pfx "blue") ~demand:2. ~start_time:1. () in
  Netsim.Sim.add_flow sim a;
  Netsim.Sim.add_flow sim b;
  Netsim.Sim.run_until sim 1.;
  let path_a = Netsim.Sim.flow_path sim 1 in
  Alcotest.(check bool) "A placed" true (path_a <> None);
  Netsim.Sim.run_until sim 1.5;
  checkf "A's rate" 0. (Netsim.Sim.flow_rate sim 1);
  Alcotest.(check bool) "A's path" true (Netsim.Sim.flow_path sim 1 = None);
  checkf "B's rate" 2. (Netsim.Sim.flow_rate sim 2);
  Alcotest.(check bool) "B's path" true
    (Netsim.Sim.flow_path sim 2 = route net ~flow_id:2 ~src:d.r4 (pfx "blue")
    && Netsim.Sim.flow_path sim 2 <> path_a);
  Alcotest.(check (list int)) "B only" [ 2 ]
    (List.map (fun (f : Flow.t) -> f.id) (Netsim.Sim.active_flows sim));
  Alcotest.(check int) "one class" 1 (Netsim.Sim.flow_classes sim)

(* Once no flow is active or scheduled, the simulator drops its slots;
   a flow added afterwards grows them again and runs as any other, and
   the ids of the finished flows stay taken. *)
let test_sim_slots_released_when_idle () =
  let d, net = demo_net () in
  let sim = Netsim.Sim.create ~dt:0.5 net (Link.capacities ~default:10.) in
  let flow id start =
    Flow.make ~id ~src:d.a ~prefix:(pfx "blue") ~demand:3. ~start_time:start ~duration:1. ()
  in
  List.iter (fun id -> Netsim.Sim.add_flow sim (flow id 0.)) [ 1; 2 ];
  Netsim.Sim.run_until sim 2.;
  Alcotest.(check (list int)) "none active" []
    (List.map (fun (f : Flow.t) -> f.id) (Netsim.Sim.active_flows sim));
  Alcotest.(check bool) "stopped flow has no path" true (Netsim.Sim.flow_path sim 1 = None);
  Alcotest.check_raises "finished id stays taken"
    (Invalid_argument "Sim.add_flow: duplicate flow id") (fun () ->
      Netsim.Sim.add_flow sim (flow 1 2.));
  Netsim.Sim.add_flow sim (flow 3 2.);
  Netsim.Sim.run_until sim 2.5;
  checkf "new flow's rate" 3. (Netsim.Sim.flow_rate sim 3);
  Alcotest.(check bool) "new flow's path" true
    (Netsim.Sim.flow_path sim 3 = route net ~flow_id:3 ~src:d.a (pfx "blue"));
  Alcotest.(check (list int)) "new flow only" [ 3 ]
    (List.map (fun (f : Flow.t) -> f.id) (Netsim.Sim.active_flows sim));
  Alcotest.(check int) "one class" 1 (Netsim.Sim.flow_classes sim)

let test_sim_unroutable_flow_reported () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let c = G.add_node g ~name:"c" in
  G.add_link g a b ~weight:1;
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net (pfx "p") ~origin:c ~cost:0;
  let caps = Link.capacities ~default:10. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:a ~prefix:(pfx "p") ~demand:1. ());
  Netsim.Sim.run_until sim 2.;
  Alcotest.(check (list int)) "unroutable" [ 0 ] (Netsim.Sim.unroutable_flows sim);
  checkf "zero rate" 0. (Netsim.Sim.flow_rate sim 0)

(* ---------- Aimd ---------- *)

let aimd_routes demand n =
  List.init n (fun i ->
      { Netsim.Fairshare.flow = mkflow i demand; links = [ (0, 1) ] })

let test_aimd_ramps_up_to_demand () =
  let caps = Link.capacities ~default:100. in
  let aimd = Netsim.Aimd.create () in
  let routes = aimd_routes 10. 1 in
  (* One flow, ample capacity: rate must reach demand and stay. *)
  for _ = 1 to 99 do
    ignore (Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps routes)
  done;
  let rates = Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps routes in
  checkf "at demand" 10. (List.assoc 0 rates)

let test_aimd_starts_slow () =
  let caps = Link.capacities ~default:100. in
  let aimd = Netsim.Aimd.create () in
  let rates = Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps (aimd_routes 10. 1) in
  (* 10% of demand, plus one 0.5 s step of +25% of demand per second. *)
  checkf "first step" 2.25 (List.assoc 0 rates)

let test_aimd_backs_off_under_congestion () =
  let caps = Link.capacities ~default:10. in
  let aimd = Netsim.Aimd.create () in
  let routes = aimd_routes 100. 4 in
  (* 4 flows of demand 100 into capacity 10: long-run rates must hover
     near the 2.5 fair share, well below demand. *)
  for _ = 1 to 299 do
    ignore (Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps routes)
  done;
  let rates = Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps routes in
  List.iter
    (fun i ->
      let rate = List.assoc i rates in
      Alcotest.(check bool)
        (Printf.sprintf "flow %d rate %.1f in AIMD band" i rate)
        true
        (rate > 0.2 && rate < 12.))
    [ 0; 1; 2; 3 ]

let test_aimd_approx_fair () =
  let caps = Link.capacities ~default:10. in
  let aimd = Netsim.Aimd.create () in
  let routes = aimd_routes 100. 2 in
  (* Time-averaged rates of two identical flows should be close. *)
  let sum = [| 0.; 0. |] in
  for _ = 1 to 50 do
    ignore (Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps routes)
  done;
  for _ = 1 to 200 do
    let rates = Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps routes in
    sum.(0) <- sum.(0) +. List.assoc 0 rates;
    sum.(1) <- sum.(1) +. List.assoc 1 rates
  done;
  let ratio = sum.(0) /. sum.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "long-run ratio %.2f near 1" ratio)
    true
    (ratio > 0.7 && ratio < 1.4)

let test_aimd_forget () =
  let caps = Link.capacities ~default:100. in
  let aimd = Netsim.Aimd.create () in
  let first () = Netsim.Aimd.update aimd ~dt:0.5 ~capacities:caps (aimd_routes 10. 1) in
  let start = List.assoc 0 (first ()) in
  Alcotest.(check bool) "ramped" true (List.assoc 0 (first ()) > start);
  (* A forgotten flow starts over from its initial rate. *)
  Netsim.Aimd.forget aimd 0;
  checkf "forgotten" start (List.assoc 0 (first ()))

let test_sim_with_aimd_model () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:15. in
  let aimd = Netsim.Aimd.create () in
  let sim = Netsim.Sim.create ~dt:0.5 ~rate_model:(Aimd aimd) net caps in
  Netsim.Sim.track_link sim (d.a, d.b);
  for i = 0 to 2 do
    Netsim.Sim.add_flow sim (Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:10. ())
  done;
  (* Early: rates are still ramping (below the 5.0 fair share). *)
  Netsim.Sim.run_until sim 1.;
  Alcotest.(check bool) "ramping" true (Netsim.Sim.flow_rate sim 0 < 5.);
  Netsim.Sim.run_until sim 60.;
  (* Delivered link throughput never exceeds capacity. *)
  let series = Netsim.Sim.link_series sim (d.a, d.b) in
  Alcotest.(check bool) "delivered <= capacity" true
    (Series.peak series <= 15. +. 1e-6);
  (* And the three flows share the bottleneck meaningfully. *)
  let total =
    Netsim.Sim.flow_rate sim 0 +. Netsim.Sim.flow_rate sim 1
    +. Netsim.Sim.flow_rate sim 2
  in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.1f uses most of the link" total)
    true
    (total > 8.)

(* ---------- failure injection & scheduled actions ---------- *)

let test_sim_link_failure_reroutes () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  (* Fail B-R2 at t=3: B must fall back to R3 (cost 3) and the flow
     keeps flowing on the new path. *)
  Netsim.Sim.fail_link sim ~time:3. (d.b, d.r2);
  Netsim.Sim.run_until sim 2.;
  (match Netsim.Sim.flow_path sim 0 with
  | Some path -> Alcotest.(check (list int)) "before failure" [ d.a; d.b; d.r2; d.c ] path
  | None -> Alcotest.fail "routed before failure");
  Netsim.Sim.run_until sim 5.;
  (match Netsim.Sim.flow_path sim 0 with
  | Some path ->
    Alcotest.(check (list int)) "after failure via R3" [ d.a; d.b; d.r3; d.c ] path
  | None -> Alcotest.fail "routed after failure");
  checkf "still at demand" 10. (Netsim.Sim.flow_rate sim 0)

let test_sim_partition_starves_flow () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  (* Cut every path: A-B and A-R1 isolate A. *)
  Netsim.Sim.fail_link sim ~time:2. (d.a, d.b);
  Netsim.Sim.fail_link sim ~time:2. (d.a, d.r1);
  Netsim.Sim.run_until sim 4.;
  Alcotest.(check (list int)) "flow starves" [ 0 ] (Netsim.Sim.unroutable_flows sim);
  checkf "zero rate" 0. (Netsim.Sim.flow_rate sim 0)

let test_sim_scheduled_action_runs_once () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  let runs = ref 0 in
  Netsim.Sim.schedule sim ~time:2.5 (fun _ -> incr runs);
  Netsim.Sim.run_until sim 10.;
  Alcotest.(check int) "exactly once" 1 !runs;
  ignore d;
  Alcotest.(check bool) "past time rejected" true
    (try Netsim.Sim.schedule sim ~time:1. (fun _ -> ()); false
     with Invalid_argument _ -> true)

let test_sim_schedule_equal_times_fifo () =
  (* Actions sharing a timestamp run in registration order, and later
     times run after earlier ones regardless of insertion order — the
     seed's prepend-and-sort queue was LIFO within a timestamp. *)
  let _, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  let trace = ref [] in
  let mark label = fun _ -> trace := label :: !trace in
  Netsim.Sim.schedule sim ~time:3.5 (mark "late");
  Netsim.Sim.schedule sim ~time:1.5 (mark "a");
  Netsim.Sim.schedule sim ~time:1.5 (mark "b");
  Netsim.Sim.schedule sim ~time:1.5 (mark "c");
  Netsim.Sim.schedule sim ~time:0.5 (mark "early");
  Netsim.Sim.run_until sim 5.;
  Alcotest.(check (list string))
    "time order, FIFO at ties"
    [ "early"; "a"; "b"; "c"; "late" ]
    (List.rev !trace)

let test_sim_aggregation_invariant () =
  (* The aggregated engine must hand every flow the same rate and every
     link the same load as the per-flow engine, while using one class
     per (src, prefix, demand, path) instead of one per flow. *)
  let make_sim aggregation =
    let d, net = demo_net () in
    let caps = Link.capacities ~default:15. in
    let sim = Netsim.Sim.create ~dt:0.5 ~aggregation net caps in
    for i = 0 to 9 do
      Netsim.Sim.add_flow sim
        (Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:10. ())
    done;
    for i = 10 to 14 do
      Netsim.Sim.add_flow sim
        (Flow.make ~id:i ~src:d.b ~prefix:(pfx "blue") ~demand:2. ())
    done;
    Netsim.Sim.run_until sim 2.;
    sim
  in
  let agg = make_sim true and solo = make_sim false in
  Alcotest.(check bool) "few classes" true (Netsim.Sim.flow_classes agg <= 3);
  Alcotest.(check int) "one class per flow" 15 (Netsim.Sim.flow_classes solo);
  for i = 0 to 14 do
    checkf
      (Printf.sprintf "flow %d same rate" i)
      (Netsim.Sim.flow_rate solo i)
      (Netsim.Sim.flow_rate agg i)
  done;
  List.iter2
    (fun (link_a, rate_a) (link_s, rate_s) ->
      Alcotest.(check bool) "same link" true (link_a = link_s);
      checkf "same link rate" rate_s rate_a)
    (Netsim.Sim.current_link_rates agg)
    (Netsim.Sim.current_link_rates solo)

let test_sim_failure_then_fake_restores_split () =
  (* Failure + Fibbing together: after B-R2 dies, inject an equal-cost
     fake at B for the (now unique) R3 path plus A detour, and check
     traffic spreads again. *)
  let d, net = demo_net () in
  let caps = Link.capacities ~default:15. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  List.iter (Netsim.Sim.track_link sim) [ (d.b, d.r3); (d.b, d.a) ];
  for i = 0 to 3 do
    Netsim.Sim.add_flow sim (Flow.make ~id:i ~src:d.b ~prefix:(pfx "blue") ~demand:10. ())
  done;
  Netsim.Sim.fail_link sim ~time:2. (d.b, d.r2);
  Netsim.Sim.schedule sim ~time:3. (fun sim ->
      (* After reconvergence B's only path is via R3 (cost 3). Deflect
         half of B's traffic through A: an equal-cost fake at B towards
         A, plus an override at A forcing R1 (A's post-failure path to
         blue runs through B, so without the override the detour would
         loop). This is the lie pair the compiler would produce. *)
      let net = Netsim.Sim.network sim in
      Igp.Network.inject_fake net
        {
          fake_id = "detour-B";
          attachment = d.b;
          attachment_cost = 1;
          prefix = pfx "blue";
          announced_cost = 2;
          forwarding = d.a;
        };
      Igp.Network.inject_fake net
        {
          fake_id = "pin-A";
          attachment = d.a;
          attachment_cost = 1;
          prefix = pfx "blue";
          announced_cost = 2;
          forwarding = d.r1;
        });
  Netsim.Sim.run_until sim 6.;
  let fib_b = Option.get (Igp.Network.fib net ~router:d.b (pfx "blue")) in
  Alcotest.(check (list int)) "B splits over A and R3" [ d.a; d.r3 ]
    (Igp.Fib.next_hops fib_b);
  let fib_a = Option.get (Igp.Network.fib net ~router:d.a (pfx "blue")) in
  Alcotest.(check (list int)) "A overridden to R1" [ d.r1 ] (Igp.Fib.next_hops fib_a);
  Alcotest.(check (list int)) "no starved flows" [] (Netsim.Sim.unroutable_flows sim);
  (* Both exits of B now carry traffic. *)
  let rate link = Series.value_at (Netsim.Sim.link_series sim link) 5. in
  Alcotest.(check bool) "B-R3 loaded" true (rate (d.b, d.r3) > 0.);
  Alcotest.(check bool) "B-A loaded" true (rate (d.b, d.a) > 0.)

let edge_set g =
  List.sort compare
    (List.map (fun (u, v, w) -> (u, v, w)) (G.edges g))

let test_sim_restore_link_round_trip () =
  let d, net = demo_net () in
  let pristine = edge_set d.graph in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  (* Down: both of A's exits fail, the flow starves. *)
  Netsim.Sim.fail_link sim ~time:2. (d.a, d.b);
  Netsim.Sim.fail_link sim ~time:2. (d.a, d.r1);
  Netsim.Sim.run_until sim 4.;
  Alcotest.(check (list int)) "starved while down" [ 0 ]
    (Netsim.Sim.unroutable_flows sim);
  (* Up: both links come back; the flow re-hashes onto its old path at
     full rate and the graph is byte-identical to the pristine one —
     weights included, in both directions. *)
  Netsim.Sim.restore_link sim ~time:5. (d.a, d.b);
  Netsim.Sim.restore_link sim ~time:5. (d.a, d.r1);
  Netsim.Sim.run_until sim 7.;
  Alcotest.(check (list int)) "routable again" []
    (Netsim.Sim.unroutable_flows sim);
  checkf "full rate again" 10. (Netsim.Sim.flow_rate sim 0);
  (match Netsim.Sim.flow_path sim 0 with
  | Some path ->
    Alcotest.(check (list int)) "original path" [ d.a; d.b; d.r2; d.c ] path
  | None -> Alcotest.fail "routed after restore");
  Alcotest.(check bool) "graph restored with weights" true
    (edge_set d.graph = pristine)

let test_sim_restore_unknown_link_is_noop () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  let pristine = edge_set d.graph in
  Netsim.Sim.restore_link sim ~time:1. (d.a, d.b);
  Netsim.Sim.run_until sim 2.;
  Alcotest.(check bool) "restoring a live link changes nothing" true
    (edge_set d.graph = pristine)

let test_sim_crash_recover_router () =
  let d, net = demo_net () in
  let pristine = edge_set d.graph in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  Netsim.Sim.crash_router sim ~time:2. d.r2;
  Netsim.Sim.run_until sim 4.;
  (match Netsim.Sim.flow_path sim 0 with
  | Some path ->
    Alcotest.(check (list int)) "detours around R2" [ d.a; d.b; d.r3; d.c ] path
  | None -> Alcotest.fail "routed around the crash");
  Netsim.Sim.recover_router sim ~time:5. d.r2;
  Netsim.Sim.run_until sim 7.;
  (match Netsim.Sim.flow_path sim 0 with
  | Some path ->
    Alcotest.(check (list int)) "original path again" [ d.a; d.b; d.r2; d.c ] path
  | None -> Alcotest.fail "routed after recovery");
  Alcotest.(check bool) "adjacencies restored with weights" true
    (edge_set d.graph = pristine)

let test_sim_adjacent_crashes_defer_shared_link () =
  (* B and R2 crash while adjacent; the B-R2 link must come back only
     when BOTH endpoints are up, whatever the recovery order. *)
  let d, net = demo_net () in
  let pristine = edge_set d.graph in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Netsim.Sim.crash_router sim ~time:1. d.b;
  Netsim.Sim.crash_router sim ~time:2. d.r2;
  Netsim.Sim.recover_router sim ~time:3. d.b;
  Netsim.Sim.run_until sim 4.;
  Alcotest.(check bool) "B-R2 still down while R2 is crashed" false
    (G.has_edge d.graph d.b d.r2);
  Netsim.Sim.recover_router sim ~time:5. d.r2;
  Netsim.Sim.run_until sim 6.;
  Alcotest.(check bool) "whole graph back" true (edge_set d.graph = pristine)

let test_sim_crash_flushes_dangling_fakes () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  Igp.Network.inject_fake net (fake ~id:"via-r2" ~at:d.b ~cost:2 ~fwd:d.r2);
  Igp.Network.inject_fake net (fake ~id:"via-r3" ~at:d.b ~cost:2 ~fwd:d.r3);
  Netsim.Sim.crash_router sim ~time:2. d.r2;
  Netsim.Sim.run_until sim 3.;
  (* The lie forwarding into the dead router is gone; the other survives. *)
  let lsdb = Igp.Network.lsdb net in
  Alcotest.(check bool) "dangling fake flushed" false
    (Igp.Lsdb.installed lsdb "via-r2");
  Alcotest.(check bool) "healthy fake kept" true
    (Igp.Lsdb.installed lsdb "via-r3")

(* ---------- monitor fault hooks ---------- *)

let test_monitor_repeat_poll_is_noop () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~poll_interval:2. ~threshold:0.9 caps in
  Netsim.Monitor.observe m ~time:2. ~dt:2. [ ((0, 1), 9.5) ];
  let alarms = Netsim.Monitor.poll m ~time:2. in
  Alcotest.(check int) "first poll raises" 1 (List.length alarms);
  let u = utilization m (0, 1) in
  (* Same instant again: a zero-length window must not fabricate spikes. *)
  Alcotest.(check int) "repeat poll returns nothing" 0
    (List.length (Netsim.Monitor.poll m ~time:2.));
  checkf "utilization untouched" u (utilization m (0, 1))

let test_monitor_forget_clears_alarm () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~poll_interval:2. ~threshold:0.9 ~alpha:1. caps in
  Netsim.Monitor.observe m ~time:2. ~dt:2. [ ((0, 1), 9.9); ((2, 3), 9.9) ];
  let raised time =
    Netsim.Monitor.observe m ~time ~dt:2. [ ((0, 1), 9.9); ((2, 3), 9.9) ];
    List.filter_map
      (fun (a : Netsim.Monitor.alarm) -> if a.raised then Some a.link else None)
      (Netsim.Monitor.poll m ~time)
  in
  Alcotest.(check (list (pair int int))) "both alarmed" [ (0, 1); (2, 3) ] (raised 2.);
  (* The link leaves the topology: its alarm and smoothed state go too,
     so saturating it again raises afresh while the other stays quiet. *)
  Netsim.Monitor.forget m (0, 1);
  Alcotest.(check bool) "smoothed state purged" false
    (List.mem_assoc (0, 1) (utilizations m));
  Alcotest.(check (list (pair int int))) "forgotten link released" [ (0, 1) ] (raised 4.);
  Netsim.Monitor.prune m ~alive:(fun _ -> false);
  Alcotest.(check (list (pair int int))) "prune drops the rest" [ (0, 1); (2, 3) ]
    (raised 6.)

let test_monitor_mute_drops_samples () =
  let caps = Link.capacities ~default:10. in
  let m = Netsim.Monitor.create ~poll_interval:2. ~threshold:0.9 ~alpha:1. caps in
  Netsim.Monitor.mute m ~until:3.;
  Netsim.Monitor.observe m ~time:2. ~dt:2. [ ((0, 1), 9.9) ];
  Alcotest.(check int) "blackout: no alarms" 0
    (List.length (Netsim.Monitor.poll m ~time:2.));
  (* After the blackout samples count again. *)
  Netsim.Monitor.observe m ~time:4. ~dt:2. [ ((0, 1), 9.9) ];
  Alcotest.(check int) "post-blackout alarm" 1
    (List.length (Netsim.Monitor.poll m ~time:4.))

(* Consistency between the two traffic views: the average of many hashed
   flows' link loads matches the fluid Loadmap fractions. *)
let test_hashing_matches_loadmap () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Network.inject_fake net (fake ~id:"fA1" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Network.inject_fake net (fake ~id:"fA2" ~at:d.a ~cost:3 ~fwd:d.r1);
  let flows = 4000 in
  (* Hash [flows] unit flows from A and count per-link volume. *)
  let loads = Hashtbl.create 16 in
  for flow_id = 0 to flows - 1 do
    match route net ~flow_id ~src:d.a (pfx "blue") with
    | None -> Alcotest.fail "flow must route"
    | Some path ->
      let rec walk = function
        | u :: (v :: _ as rest) ->
          Hashtbl.replace loads (u, v)
            (1. +. Option.value ~default:0. (Hashtbl.find_opt loads (u, v)));
          walk rest
        | _ -> ()
      in
      walk path
  done;
  let fluid =
    Netsim.Loadmap.propagate net
      [ { src = d.a; prefix = pfx "blue"; amount = float_of_int flows } ]
  in
  List.iter
    (fun link ->
      let hashed = Option.value ~default:0. (Hashtbl.find_opt loads link) in
      let expected = load fluid link in
      Alcotest.(check bool)
        (Printf.sprintf "%s: hashed %.0f ~ fluid %.0f" (Link.name d.graph link)
           hashed expected)
        true
        (abs_float (hashed -. expected) < 0.05 *. float_of_int flows))
    [ (d.a, d.b); (d.a, d.r1); (d.b, d.r2); (d.b, d.r3); (d.r1, d.r4) ]

(* ---------- Mixed-state convergence in the simulator ---------- *)

(* Slowed-down convergence so the mixed window spans several steps. *)
let slow_timing =
  { Igp.Convergence.flood_per_hop = 0.5; spf_delay = 1.0; jitter = 0.25 }

(* The textbook micro-loop chain (see test_igp): degrade A-T while a
   flow from C is in flight; with convergence modelling the flow loses
   packets during the A/B loop window, then recovers on the new path. *)
let microloop_chain () =
  let g = G.create () in
  let a = G.add_node g ~name:"A" in
  let b = G.add_node g ~name:"B" in
  let c = G.add_node g ~name:"C" in
  let t = G.add_node g ~name:"T" in
  G.add_link g c t ~weight:5;
  G.add_link g c b ~weight:1;
  G.add_link g b a ~weight:1;
  G.add_link g a t ~weight:1;
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net (pfx "p") ~origin:t ~cost:0;
  (net, a, b, c, t)

let test_convergence_microloop_drops_traffic () =
  let net, a, _, c, t = microloop_chain () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:0.5 ~convergence:slow_timing net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:c ~prefix:(pfx "p") ~demand:10. ());
  Netsim.Sim.schedule sim ~time:5. (fun sim ->
      let network = Netsim.Sim.network sim in
      Igp.Network.set_weight network a t ~weight:10;
      Igp.Network.set_weight network t a ~weight:10);
  (* Count the steps where the flow is unroutable (packets lost). *)
  let lost = ref 0 in
  Netsim.Sim.on_step sim (fun sim ->
      if Netsim.Sim.unroutable_flows sim <> [] then incr lost);
  Netsim.Sim.run_until sim 12.;
  Alcotest.(check bool)
    (Printf.sprintf "micro-loop lost %d steps" !lost)
    true (!lost >= 1);
  (* Fully converged: routed again on the new direct path. *)
  (match Netsim.Sim.flow_path sim 0 with
  | Some path -> Alcotest.(check (list int)) "new path C-T" [ c; t ] path
  | None -> Alcotest.fail "flow should recover");
  checkf "full rate restored" 10. (Netsim.Sim.flow_rate sim 0)

let test_convergence_instant_without_model () =
  (* The same change with the default (atomic) model loses nothing. *)
  let net, a, _, c, t = microloop_chain () in
  ignore c;
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:0.5 net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:c ~prefix:(pfx "p") ~demand:10. ());
  Netsim.Sim.schedule sim ~time:5. (fun sim ->
      let network = Netsim.Sim.network sim in
      Igp.Network.set_weight network a t ~weight:10;
      Igp.Network.set_weight network t a ~weight:10);
  let lost = ref 0 in
  Netsim.Sim.on_step sim (fun sim ->
      if Netsim.Sim.unroutable_flows sim <> [] then incr lost);
  Netsim.Sim.run_until sim 12.;
  Alcotest.(check int) "no loss" 0 !lost

let test_convergence_fake_injection_lossless () =
  (* Fibbing's equal-cost lie, adopted asynchronously, never interrupts
     the flow: every mixed state is loop-free. *)
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:0.5 ~convergence:slow_timing net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  Netsim.Sim.schedule sim ~time:5. (fun sim ->
      Igp.Network.inject_fake (Netsim.Sim.network sim)
        (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3));
  let lost = ref 0 in
  Netsim.Sim.on_step sim (fun sim ->
      if Netsim.Sim.unroutable_flows sim <> [] then incr lost);
  Netsim.Sim.run_until sim 12.;
  Alcotest.(check int) "no loss through the lie's convergence" 0 !lost;
  checkf "full rate throughout" 10. (Netsim.Sim.flow_rate sim 0)

let test_convergence_second_change_mid_window () =
  (* A second LSDB change while a transition is in flight restarts the
     window from the mixed view without crashing or wedging routing. *)
  let d, net = demo_net () in
  let caps = Link.capacities ~default:100. in
  let sim = Netsim.Sim.create ~dt:0.5 ~convergence:slow_timing net caps in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:d.a ~prefix:(pfx "blue") ~demand:10. ());
  Netsim.Sim.schedule sim ~time:5. (fun sim ->
      Igp.Network.inject_fake (Netsim.Sim.network sim)
        (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3));
  Netsim.Sim.schedule sim ~time:5.5 (fun sim ->
      Igp.Network.inject_fake (Netsim.Sim.network sim)
        (fake ~id:"f2" ~at:d.a ~cost:3 ~fwd:d.r1));
  Netsim.Sim.run_until sim 15.;
  (match Netsim.Sim.flow_path sim 0 with
  | Some _ -> ()
  | None -> Alcotest.fail "flow must be routed after both transitions");
  checkf "still at demand" 10. (Netsim.Sim.flow_rate sim 0)

(* ---------- Latency ---------- *)

(* The documented latency model: ms per IGP weight unit, idle service
   time, queueing cap. *)
let ms_per_weight = 5. and service_ms = 0.12 and max_queue_ms = 50.

(* One flow of [demand] from [src] towards blue, after two seconds. *)
let latency_sim ?(capacity = 100.) ~src demand =
  let d, net = demo_net () in
  let sim = Netsim.Sim.create ~dt:1. net (Link.capacities ~default:capacity) in
  Netsim.Sim.add_flow sim (Flow.make ~id:0 ~src:(src d) ~prefix:(pfx "blue") ~demand ());
  Netsim.Sim.run_until sim 2.;
  (d, sim)

let test_latency_idle_is_propagation () =
  (* A vanishing flow sees idle links: per link, propagation from the
     IGP weight plus the idle service time. *)
  List.iter
    (fun src ->
      let d, sim = latency_sim ~src 1e-9 in
      let path = Option.get (Netsim.Sim.flow_path sim 0) in
      let rec expected = function
        | u :: (v :: _ as rest) ->
          (float_of_int (G.weight_exn d.graph u v) *. ms_per_weight)
          +. service_ms +. expected rest
        | _ -> 0.
      in
      checkf "weights scale propagation" (expected path)
        (Netsim.Latency.mean_flow_delay_ms sim))
    [ (fun (d : T.demo) -> d.a); (fun d -> d.r1) ]

let test_latency_grows_with_utilization () =
  let delay demand =
    Netsim.Latency.mean_flow_delay_ms (snd (latency_sim ~capacity:20. ~src:(fun d -> d.a) demand))
  in
  let loaded = delay 19. and idle = delay 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "loaded path slower (%.2f vs idle %.2f)" loaded idle)
    true (loaded > idle +. 0.5)

let test_latency_saturated_capped () =
  let d, net = demo_net () in
  let caps = Link.capacities ~default:10. in
  let sim = Netsim.Sim.create ~dt:1. net caps in
  for i = 0 to 3 do
    Netsim.Sim.add_flow sim (Flow.make ~id:i ~src:d.a ~prefix:(pfx "blue") ~demand:10. ())
  done;
  Netsim.Sim.run_until sim 2.;
  (* A-B-R2-C: three weight-1 links, each saturated by the four flows. *)
  let capped = 3. *. (ms_per_weight +. max_queue_ms) in
  let delay = Netsim.Latency.mean_flow_delay_ms sim in
  Alcotest.(check bool) "capped by buffer" true (delay <= capped +. 1e-9);
  Alcotest.(check bool) "but clearly congested" true (delay >= capped -. 1e-6)

let test_latency_flow_and_mean () =
  let _, sim = latency_sim ~src:(fun d -> d.a) 10. in
  let one = Netsim.Latency.mean_flow_delay_ms sim in
  (* Path A-B-R2-C: weights 1+1+1 = 3 units of propagation. *)
  Alcotest.(check bool) (Printf.sprintf "3-hop delay %.2f in range" one) true
    (one > 15. && one < 17.);
  Alcotest.(check bool) "no flows, no delay" true
    (Netsim.Latency.mean_flow_delay_ms
       (Netsim.Sim.create ~dt:1. (snd (demo_net ())) (Link.capacities ~default:1.))
    = 0.)

(* ---------- route and safety oracle ---------- *)

(* A cold network rebuilt from [net]'s graph, announcements and fakes. *)
let replay net =
  let cold = Igp.Network.create (G.copy (Igp.Network.graph net)) in
  List.iter
    (fun (p, origin, cost) -> Igp.Network.announce_prefix cold p ~origin ~cost)
    (Igp.Lsdb.prefixes (Igp.Network.lsdb net));
  List.iter (Igp.Network.inject_fake cold) (Igp.Network.fakes net);
  cold

(* A scripted random scenario on a zoo topology with three prefixes:
   lies on random prefixes (some in mirrored pairs, which loop), retracts
   and supersessions, link failures and restores, flows starting and
   stopping. Lies land both before routing (scheduled actions, which the
   watchdog's guard sees) and after it (a step hook, which only the
   post-step check sees). [on_created] runs right after the simulator is
   built, so its step hooks run before the meddling one. *)
let oracle_steps = 30

let oracle_scenario ~on_created seed =
  let prng = Kit.Prng.create ~seed in
  let pick l = List.nth l (Kit.Prng.int prng (List.length l)) in
  let zoo = Netgraph.Zoo.all () in
  let g = G.copy (pick zoo).Netgraph.Zoo.graph in
  let n = G.node_count g in
  let net = Igp.Network.create g in
  let prefixes = [ pfx "p0"; pfx "p1"; pfx "p2" ] in
  List.iter
    (fun p -> Igp.Network.announce_prefix net p ~origin:(Kit.Prng.int prng n) ~cost:0)
    prefixes;
  let sim = Netsim.Sim.create ~dt:0.5 net (Link.capacities ~default:1e6) in
  on_created sim;
  let lie ~id ~at ~fwd ~prefix ~cost : Igp.Lsa.fake =
    { fake_id = id; attachment = at; attachment_cost = 1; prefix; announced_cost = cost; forwarding = fwd }
  in
  let install (f : Igp.Lsa.fake) =
    Igp.Network.inject_fake net f;
    Igp.Lsdb.set_fake_expiry (Igp.Network.lsdb net) ~fake_id:f.fake_id
      ~now:(Netsim.Sim.time sim) ~ttl:30.
  in
  let meddle () =
    let prefix = pick prefixes in
    let at = Kit.Prng.int prng n in
    match G.succ g at with
    | [] -> ()
    | succ -> (
      let fwd = fst (pick succ) in
      let id = Printf.sprintf "l%d" (Kit.Prng.int prng 6) in
      match Kit.Prng.int prng 4 with
      | 0 ->
        (* A mirrored pair at announced cost 0: a two-router loop. *)
        install (lie ~id ~at ~fwd ~prefix ~cost:0);
        install (lie ~id:(id ^ "m") ~at:fwd ~fwd:at ~prefix ~cost:0)
      | 1 -> (
        match Igp.Network.fakes net with
        | [] -> ()
        | fakes -> Igp.Network.retract_fake net ~fake_id:(pick fakes).fake_id)
      | _ -> install (lie ~id ~at ~fwd ~prefix ~cost:(Kit.Prng.int prng 4)))
  in
  Netsim.Sim.on_step sim (fun _ -> if Kit.Prng.int prng 4 = 0 then meddle ());
  let wd = Netsim.Watchdog.arm sim in
  let horizon = float_of_int oracle_steps *. 0.5 in
  for id = 0 to 5 + Kit.Prng.int prng 6 do
    Netsim.Sim.add_flow sim
      (Flow.make ~id ~src:(Kit.Prng.int prng n) ~prefix:(pick prefixes) ~demand:10.
         ~start_time:(0.5 *. float_of_int (Kit.Prng.int prng 10))
         ~duration:(1. +. float_of_int (Kit.Prng.int prng 12))
         ())
  done;
  (* A later wave, starting after some of the first have stopped, so
     freed slots are taken again. *)
  for id = 100 to 102 + Kit.Prng.int prng 6 do
    Netsim.Sim.add_flow sim
      (Flow.make ~id ~src:(Kit.Prng.int prng n) ~prefix:(pick prefixes) ~demand:10.
         ~start_time:(0.5 *. float_of_int (6 + Kit.Prng.int prng (oracle_steps - 6)))
         ~duration:(0.5 +. float_of_int (Kit.Prng.int prng 6))
         ())
  done;
  for _ = 1 to 2 + Kit.Prng.int prng 4 do
    let time = 0.5 *. float_of_int (Kit.Prng.int prng oracle_steps) in
    match Kit.Prng.int prng 3 with
    | 0 -> Netsim.Sim.schedule sim ~time (fun _ -> meddle ())
    | _ -> (
      match G.edges g with
      | [] -> ()
      | edges ->
        let u, v, _ = pick edges in
        Netsim.Sim.fail_link sim ~time (u, v);
        Netsim.Sim.restore_link sim ~time:(Float.min horizon (time +. 2.)) (u, v))
  done;
  (sim, net, prefixes, wd)

(* Two from-scratch oracles run on a cold replay of the network, so they
   never touch the live SPF engine's caches:
   - at the end of every step's routing, every active flow's path is the
     hashed walk over the replay's FIBs;
   - after every step, every prefix the replay finds unsafe has been
     reported by the watchdog (a violation or a quarantine) since it
     last was safe. *)
let prop_sim_matches_oracle =
  QCheck.Test.make ~name:"sim routes and watchdog reports = from-scratch oracle" ~count:80
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let routes_ok = ref true in
      let sim, net, prefixes, wd =
        oracle_scenario seed ~on_created:(fun sim ->
            Netsim.Sim.on_step sim (fun sim ->
                let net = Netsim.Sim.network sim in
                let cold = replay net in
                List.iter
                  (fun (f : Flow.t) ->
                    if Netsim.Sim.flow_path sim f.id <> route cold ~flow_id:f.id ~src:f.src f.prefix
                    then routes_ok := false)
                  (Netsim.Sim.active_flows sim)))
      in
      let reported = Hashtbl.create 4 in
      Netsim.Watchdog.on_quarantine wd (fun ~prefix ~reason:_ -> Hashtbl.replace reported prefix ());
      let unsafe_streak = Hashtbl.create 4 in
      let rec go k =
        k = 0
        || begin
             let seen = Netsim.Watchdog.violation_count wd in
             Netsim.Sim.run_until sim (Netsim.Sim.time sim +. 0.5);
             let fresh = Netsim.Watchdog.violation_count wd - seen in
             let recent = Netsim.Watchdog.violations wd in
             List.iteri
               (fun i (v : Netsim.Watchdog.violation) ->
                 match (v.kind, v.prefix) with
                 | (Forwarding_loop | Blackhole), Some p when i >= List.length recent - fresh ->
                   Hashtbl.replace reported p ()
                 | _ -> ())
               recent;
             let cold = replay net in
             let safe_ok =
               List.for_all
                 (fun p ->
                   match Igp.Safety.verdict cold ~prefix:p with
                   | Igp.Safety.Safe ->
                     Hashtbl.remove unsafe_streak p;
                     true
                   | Loop _ | Blackhole _ ->
                     let ok = Hashtbl.mem unsafe_streak p || Hashtbl.mem reported p in
                     if ok then Hashtbl.replace unsafe_streak p ();
                     ok)
                 prefixes
             in
             Hashtbl.reset reported;
             safe_ok && !routes_ok && go (k - 1)
           end
      in
      go oracle_steps)

(* Between steps, the flow classes are what grouping the active flows by
   (source, prefix, demand, public path) rebuilds: [demand_matrix] has
   one entry per group with amount = members × demand plus one per
   unroutable flow, in order of smallest member id; [flow_classes]
   counts the groups, so no class is empty; the unroutable flows are
   exactly those without a path; and a class's members share its
   rate. *)
let classes_match_rebuild sim =
  let flows = Netsim.Sim.active_flows sim in
  let groups = Hashtbl.create 8 and entries = ref [] in
  List.iter
    (fun (f : Flow.t) ->
      match Netsim.Sim.flow_path sim f.id with
      | None ->
        entries :=
          (f.id, { Netsim.Sim.src = f.src; prefix = f.prefix; path = None; amount = f.demand })
          :: !entries
      | Some path -> (
        let key = (f.src, f.prefix, f.demand, path) in
        match Hashtbl.find_opt groups key with
        | Some (first, members) -> Hashtbl.replace groups key (first, f.id :: members)
        | None -> Hashtbl.replace groups key (f.id, [ f.id ])))
    flows;
  Hashtbl.iter
    (fun (src, prefix, demand, path) (first, members) ->
      entries :=
        ( first,
          {
            Netsim.Sim.src;
            prefix;
            path = Some path;
            amount = float_of_int (List.length members) *. demand;
          } )
        :: !entries)
    groups;
  let rebuilt = List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) !entries) in
  let shared_rate (_, members) =
    let rate = Netsim.Sim.flow_rate sim (List.hd members) in
    List.for_all (fun id -> Netsim.Sim.flow_rate sim id = rate) members
  in
  Netsim.Sim.demand_matrix sim = rebuilt
  && Netsim.Sim.flow_classes sim = Hashtbl.length groups
  && Netsim.Sim.unroutable_flows sim
     = List.filter_map
         (fun (f : Flow.t) -> if Netsim.Sim.flow_path sim f.id = None then Some f.id else None)
         flows
  && Hashtbl.fold (fun _ g ok -> ok && shared_rate g) groups true

let prop_sim_class_bookkeeping =
  QCheck.Test.make ~name:"flow classes = rebuild from per-flow paths" ~count:80
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let sim, _, _, _ = oracle_scenario seed ~on_created:ignore in
      let rec go k =
        k = 0
        || begin
             Netsim.Sim.run_until sim (Netsim.Sim.time sim +. 0.5);
             classes_match_rebuild sim && go (k - 1)
           end
      in
      go oracle_steps)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "netsim"
    [
      ( "link",
        [
          Alcotest.test_case "capacities" `Quick test_link_capacities;
          Alcotest.test_case "validation" `Quick test_link_rejects_nonpositive;
        ] );
      ( "flow",
        [
          Alcotest.test_case "lifecycle" `Quick test_flow_lifecycle;
          Alcotest.test_case "validation" `Quick test_flow_validation;
          Alcotest.test_case "NaN demand" `Quick test_flow_rejects_nan_demand;
          Alcotest.test_case "NaN start time" `Quick test_flow_rejects_nan_start;
          Alcotest.test_case "NaN duration" `Quick test_flow_rejects_nan_duration;
        ] );
      ( "loadmap",
        [
          Alcotest.test_case "Fig 1b overload" `Quick test_loadmap_fig1b;
          Alcotest.test_case "Fig 1d balanced" `Quick test_loadmap_fig1d;
          Alcotest.test_case "utilization" `Quick test_loadmap_utilization;
          Alcotest.test_case "unreachable" `Quick test_loadmap_unreachable;
          Alcotest.test_case "conservation" `Quick test_loadmap_conservation;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "respects weights" `Quick test_hashing_respects_weights;
          Alcotest.test_case "stable" `Quick test_hashing_stable;
          Alcotest.test_case "full path" `Quick test_hashing_route_full_path;
          Alcotest.test_case "loop detection" `Quick test_hashing_route_detects_loop;
          Alcotest.test_case "matches loadmap" `Quick test_hashing_matches_loadmap;
        ] );
      ( "fairshare",
        [
          Alcotest.test_case "single bottleneck" `Quick test_fairshare_single_bottleneck;
          Alcotest.test_case "demand capped" `Quick test_fairshare_demand_capped;
          Alcotest.test_case "multi bottleneck" `Quick test_fairshare_multi_bottleneck;
          Alcotest.test_case "empty path" `Quick test_fairshare_empty_path;
          Alcotest.test_case "duplicate ids" `Quick test_fairshare_duplicate_ids_rejected;
          Alcotest.test_case "link throughput" `Quick test_fairshare_link_throughput;
          Alcotest.test_case "demand equals level" `Quick
            test_fairshare_demand_equals_level;
        ] );
      qsuite "fairshare-props"
        [
          prop_fairshare_feasible;
          prop_fairshare_work_conserving;
          prop_fairshare_matches_reference;
          prop_fairshare_max_min_optimal;
          prop_water_fill_groups;
        ];
      ( "events",
        [
          Alcotest.test_case "ordering" `Quick test_events_ordering;
          Alcotest.test_case "negative time" `Quick test_events_negative_time;
        ] );
      qsuite "events-props" [ prop_events_contract ];
      ( "monitor",
        [
          Alcotest.test_case "alarm cycle" `Quick test_monitor_alarm_cycle;
          Alcotest.test_case "no repeats" `Quick test_monitor_no_repeat_alarms;
          Alcotest.test_case "ewma" `Quick test_monitor_ewma_smoothing;
          Alcotest.test_case "poll cadence" `Quick test_monitor_poll_cadence;
          Alcotest.test_case "hysteresis band" `Quick test_monitor_hysteresis_band;
        ] );
      qsuite "monitor-props" [ prop_monitor_utilization_bounded ];
      qsuite "hashing-props" [ prop_select_matches_weights_pick; prop_follows_matches_route_with ];
      qsuite "sim-oracle" [ prop_sim_matches_oracle; prop_sim_class_bookkeeping ];
      ( "aimd",
        [
          Alcotest.test_case "ramps to demand" `Quick test_aimd_ramps_up_to_demand;
          Alcotest.test_case "starts slow" `Quick test_aimd_starts_slow;
          Alcotest.test_case "backs off" `Quick test_aimd_backs_off_under_congestion;
          Alcotest.test_case "approximately fair" `Quick test_aimd_approx_fair;
          Alcotest.test_case "forget" `Quick test_aimd_forget;
          Alcotest.test_case "sim integration" `Quick test_sim_with_aimd_model;
        ] );
      ( "sim",
        [
          Alcotest.test_case "single flow" `Quick test_sim_single_flow_full_rate;
          Alcotest.test_case "histories only when asked" `Quick
            test_sim_histories_only_when_asked;
          Alcotest.test_case "congestion throttles" `Quick test_sim_congestion_throttles;
          Alcotest.test_case "arrival/departure" `Quick test_sim_flow_arrival_departure;
          Alcotest.test_case "sub-dt flows never placed" `Quick
            test_sim_sub_dt_flows_never_placed;
          Alcotest.test_case "reroute on fake" `Quick test_sim_reroutes_on_fake_injection;
          Alcotest.test_case "monitor hook" `Quick test_sim_monitor_hook_fires;
          Alcotest.test_case "duplicate flow" `Quick test_sim_rejects_duplicate_flow;
          Alcotest.test_case "rejected add frees id" `Quick
            test_sim_rejected_add_frees_id;
          Alcotest.test_case "add_flow re-checks fields" `Quick
            test_sim_add_flow_rechecks_fields;
          Alcotest.test_case "stopped id stays taken" `Quick test_sim_stopped_id_stays_taken;
          Alcotest.test_case "slot reuse" `Quick test_sim_slot_reuse;
          Alcotest.test_case "slots released when idle" `Quick
            test_sim_slots_released_when_idle;
          Alcotest.test_case "unroutable flow" `Quick test_sim_unroutable_flow_reported;
          Alcotest.test_case "equal-time schedule FIFO" `Quick
            test_sim_schedule_equal_times_fifo;
          Alcotest.test_case "aggregation invariant" `Quick
            test_sim_aggregation_invariant;
        ] );
      ( "convergence-sim",
        [
          Alcotest.test_case "micro-loop drops traffic" `Quick
            test_convergence_microloop_drops_traffic;
          Alcotest.test_case "atomic model lossless" `Quick
            test_convergence_instant_without_model;
          Alcotest.test_case "fake injection lossless" `Quick
            test_convergence_fake_injection_lossless;
          Alcotest.test_case "second change mid-window" `Quick
            test_convergence_second_change_mid_window;
        ] );
      ( "latency",
        [
          Alcotest.test_case "idle = propagation" `Quick test_latency_idle_is_propagation;
          Alcotest.test_case "grows with load" `Quick test_latency_grows_with_utilization;
          Alcotest.test_case "saturation capped" `Quick test_latency_saturated_capped;
          Alcotest.test_case "flow and mean" `Quick test_latency_flow_and_mean;
        ] );
      ( "failures",
        [
          Alcotest.test_case "link failure reroutes" `Quick test_sim_link_failure_reroutes;
          Alcotest.test_case "partition starves" `Quick test_sim_partition_starves_flow;
          Alcotest.test_case "scheduled action" `Quick test_sim_scheduled_action_runs_once;
          Alcotest.test_case "failure + fake" `Quick test_sim_failure_then_fake_restores_split;
          Alcotest.test_case "restore round-trip" `Quick test_sim_restore_link_round_trip;
          Alcotest.test_case "restore live link no-op" `Quick
            test_sim_restore_unknown_link_is_noop;
          Alcotest.test_case "crash/recover router" `Quick test_sim_crash_recover_router;
          Alcotest.test_case "adjacent crashes defer link" `Quick
            test_sim_adjacent_crashes_defer_shared_link;
          Alcotest.test_case "crash flushes dangling fakes" `Quick
            test_sim_crash_flushes_dangling_fakes;
        ] );
      ( "monitor-faults",
        [
          Alcotest.test_case "repeat poll no-op" `Quick test_monitor_repeat_poll_is_noop;
          Alcotest.test_case "forget clears alarm" `Quick test_monitor_forget_clears_alarm;
          Alcotest.test_case "mute drops samples" `Quick test_monitor_mute_drops_samples;
        ] );
    ]
