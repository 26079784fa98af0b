let pfx = Igp.Prefix.v
(* Tests for the link-state IGP simulator: LSAs, LSDB views, SPF/FIB
   semantics (including the paper's fake-node behaviour) and flooding
   accounting. *)

module G = Netgraph.Graph
module T = Netgraph.Topologies

let demo_net () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (d, net)

let fib_exn net ~router prefix =
  match Igp.Network.fib net ~router prefix with
  | Some fib -> fib
  | None -> Alcotest.failf "no FIB for router %d" router

let fake ~id ~at ~cost ~fwd : Igp.Lsa.fake =
  {
    fake_id = id;
    attachment = at;
    attachment_cost = 1;
    prefix = pfx "blue";
    announced_cost = cost - 1;
    forwarding = fwd;
  }

(* Every router's FIB for [prefix] equals the augmented-graph oracle's. *)
let check_against_oracle net prefix =
  let view = Spf_oracle.view (Igp.Network.lsdb net) in
  List.iter
    (fun router ->
      Alcotest.(check bool)
        (Printf.sprintf "router %d = oracle" router)
        true
        (Igp.Network.fib net ~router prefix = Spf_oracle.compute_prefix view ~router prefix))
    (Igp.Network.routers net)

(* ---------- Lsa ---------- *)

let test_lsa_total_cost () =
  let d = T.demo () in
  let f = fake ~id:"f" ~at:d.b ~cost:5 ~fwd:d.r3 in
  Alcotest.(check int) "total" 5 (Igp.Lsa.total_cost f)

(* ---------- Lsdb ---------- *)

let test_lsdb_announce_and_view () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Alcotest.(check int) "one announcement" 1 (List.length (Igp.Lsdb.prefixes lsdb));
  let view = Spf_oracle.view lsdb in
  Alcotest.(check int) "real nodes" 7 view.real_nodes;
  Alcotest.(check int) "augmented nodes" 8 (G.node_count view.graph);
  Alcotest.(check bool) "sink fed by C" true
    (match Spf_oracle.sink view (pfx "blue") with
    | Some sink -> G.has_edge view.graph d.c sink
    | None -> false);
  Alcotest.(check (list string)) "prefixes sorted" [ "blue" ]
    (List.map Igp.Prefix.to_string view.prefixes)

let test_lsdb_install_fake_validation () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Alcotest.(check bool) "bad forwarding rejected" true
    (try
       Igp.Lsdb.install_fake lsdb (fake ~id:"bad" ~at:d.b ~cost:2 ~fwd:d.c);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown prefix rejected" true
    (try
       Igp.Lsdb.install_fake lsdb
         { (fake ~id:"bad2" ~at:d.b ~cost:2 ~fwd:d.r3) with prefix = pfx "green" };
       false
     with Invalid_argument _ -> true)

let test_lsdb_supersede_fake () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Igp.Lsdb.install_fake lsdb (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Lsdb.install_fake lsdb (fake ~id:"f" ~at:d.b ~cost:3 ~fwd:d.r3);
  Alcotest.(check int) "one fake" 1 (Igp.Lsdb.fake_count lsdb);
  Alcotest.(check (list int)) "the newer one stands" [ 3 ]
    (List.map Igp.Lsa.total_cost (Igp.Lsdb.fakes lsdb))

let test_lsdb_retract () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  Igp.Lsdb.install_fake lsdb (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Lsdb.retract_fake lsdb ~fake_id:"f";
  Alcotest.(check int) "gone" 0 (Igp.Lsdb.fake_count lsdb);
  Alcotest.check_raises "double retract" Not_found (fun () ->
      Igp.Lsdb.retract_fake lsdb ~fake_id:"f")

let test_lsdb_version_bumps () =
  let d, net = demo_net () in
  let lsdb = Igp.Network.lsdb net in
  let v0 = Igp.Lsdb.version lsdb in
  Igp.Lsdb.install_fake lsdb (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  Alcotest.(check bool) "bumped" true (Igp.Lsdb.version lsdb > v0);
  let v1 = Igp.Lsdb.version lsdb in
  Igp.Lsdb.touch lsdb;
  Alcotest.(check bool) "touch bumps" true (Igp.Lsdb.version lsdb > v1)

let test_lsdb_anycast () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "any") ~origin:d.c ~cost:0;
  Igp.Network.announce_prefix net (pfx "any") ~origin:d.a ~cost:0;
  let fib_b = fib_exn net ~router:d.b (pfx "any") in
  Alcotest.(check int) "B nearer to A" 1 fib_b.distance;
  Alcotest.(check (list int)) "B forwards to A" [ d.a ] (Igp.Fib.next_hops fib_b)

(* ---------- Spf / Fib: paper Fig. 1 semantics ---------- *)

let test_spf_baseline_routes () =
  let d, net = demo_net () in
  let fib_a = fib_exn net ~router:d.a (pfx "blue") in
  Alcotest.(check int) "A cost 3" 3 fib_a.distance;
  Alcotest.(check (list int)) "A via B" [ d.b ] (Igp.Fib.next_hops fib_a);
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check int) "B cost 2" 2 fib_b.distance;
  Alcotest.(check (list int)) "B via R2" [ d.r2 ] (Igp.Fib.next_hops fib_b);
  let fib_c = fib_exn net ~router:d.c (pfx "blue") in
  Alcotest.(check bool) "C local" true fib_c.local

let test_spf_fake_creates_ecmp () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "B ECMP" [ d.r2; d.r3 ] (Igp.Fib.next_hops fib_b);
  Alcotest.(check bool) "even split" true
    (Igp.Fib.weights fib_b = [ (d.r2, 1); (d.r3, 1) ]);
  Alcotest.(check bool) "uses fake" true (Igp.Fib.uses_fake fib_b)

let test_spf_fake_multiplicity () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fA1" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Network.inject_fake net (fake ~id:"fA2" ~at:d.a ~cost:3 ~fwd:d.r1);
  let fib_a = fib_exn net ~router:d.a (pfx "blue") in
  Alcotest.(check bool) "weights B:1 R1:2" true
    (Igp.Fib.weights fib_a = [ (d.b, 1); (d.r1, 2) ]);
  let fractions = Igp.Fib.fractions fib_a in
  Alcotest.(check (float 1e-9)) "1/3 to B" (1. /. 3.) (List.assoc d.b fractions);
  Alcotest.(check (float 1e-9)) "2/3 to R1" (2. /. 3.) (List.assoc d.r1 fractions)

let test_spf_fake_does_not_change_others () =
  let d, net = demo_net () in
  let before =
    List.map (fun r -> (r, Igp.Network.fib net ~router:r (pfx "blue"))) (G.nodes d.graph)
  in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  List.iter
    (fun (r, fib_before) ->
      if r <> d.b then begin
        match (fib_before, Igp.Network.fib net ~router:r (pfx "blue")) with
        | Some fb, Some fa ->
          Alcotest.(check bool)
            (Printf.sprintf "router %s unchanged" (G.name d.graph r))
            true
            (Igp.Fib.equal_forwarding fb fa)
        | _ -> Alcotest.fail "reachability changed"
      end)
    before

let test_spf_cheaper_fake_overrides () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:1 ~fwd:d.r3);
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "only fake" [ d.r3 ] (Igp.Fib.next_hops fib_b);
  Alcotest.(check int) "distance lowered" 1 fib_b.distance

let test_spf_expensive_fake_ignored () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:9 ~fwd:d.r3);
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "unchanged" [ d.r2 ] (Igp.Fib.next_hops fib_b);
  Alcotest.(check bool) "no fake used" false (Igp.Fib.uses_fake fib_b)

let test_spf_fake_not_transit () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  let fib_r1 = fib_exn net ~router:d.r1 (pfx "blue") in
  Alcotest.(check (list int)) "R1 via R4" [ d.r4 ] (Igp.Fib.next_hops fib_r1)

let test_spf_unknown_prefix () =
  let d, net = demo_net () in
  Alcotest.(check bool) "no fib" true (Igp.Network.fib net ~router:d.a (pfx "green") = None)

let test_spf_unreachable_prefix () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let c = G.add_node g ~name:"c" in
  G.add_link g a b ~weight:1;
  let net = Igp.Network.create g in
  Igp.Network.announce_prefix net (pfx "p") ~origin:c ~cost:0;
  Alcotest.(check bool) "unreachable" true (Igp.Network.fib net ~router:a (pfx "p") = None)

let test_fib_fractions_empty_when_local () =
  let d, net = demo_net () in
  let fib_c = fib_exn net ~router:d.c (pfx "blue") in
  Alcotest.(check bool) "no fractions" true (Igp.Fib.fractions fib_c = [])

let test_spf_distance_only () =
  let d, net = demo_net () in
  Alcotest.(check (option int)) "distance A" (Some 3)
    (Igp.Network.distance net ~router:d.a (pfx "blue"));
  Alcotest.(check (option int)) "unknown" None
    (Igp.Network.distance net ~router:d.a (pfx "green"))

let test_spf_compute_all_prefixes () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  Igp.Network.announce_prefix net (pfx "red") ~origin:d.r4 ~cost:0;
  let oracle = Spf_oracle.compute (Spf_oracle.view (Igp.Network.lsdb net)) ~router:d.a in
  Alcotest.(check (list string)) "two prefixes" [ "blue"; "red" ]
    (List.sort compare
       (List.map (fun (f : Igp.Fib.t) -> Igp.Prefix.to_string f.prefix) oracle));
  Alcotest.(check bool) "engine table = oracle" true
    (List.for_all
       (fun (f : Igp.Fib.t) -> Igp.Network.fib net ~router:d.a f.prefix = Some f)
       oracle)

(* Stage 2's tie rules at one router: B announces blue itself at the
   same cost as its shortest path to C's announcement, and is the
   attachment of two equal-cost fakes that share a forwarding
   neighbour, plus a third that resolves onto B's real next hop. *)
let test_spf_origin_and_fakes_tie () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.b ~cost:2;
  let fib_b () = fib_exn net ~router:d.b (pfx "blue") in
  let entries (f : Igp.Fib.t) =
    List.map (fun (e : Igp.Fib.entry) -> (e.next_hop, e.multiplicity, e.via_fakes)) f.entries
  in
  let pin label (f : Igp.Fib.t) expected =
    Alcotest.(check int) (label ^ ": distance") 2 f.distance;
    Alcotest.(check bool) (label ^ ": local") true f.local;
    Alcotest.(check (list (triple int int (list string)))) (label ^ ": entries") expected
      (entries f)
  in
  pin "anycast tie" (fib_b ()) [ (d.r2, 1, []) ];
  Igp.Network.inject_fake net (fake ~id:"fy" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Network.inject_fake net (fake ~id:"fx" ~at:d.b ~cost:2 ~fwd:d.r3);
  pin "two fakes, one neighbour" (fib_b ()) [ (d.r2, 1, []); (d.r3, 2, [ "fx"; "fy" ]) ];
  Igp.Network.inject_fake net (fake ~id:"fz" ~at:d.b ~cost:2 ~fwd:d.r2);
  pin "fake on the real hop" (fib_b ())
    [ (d.r2, 2, [ "fz" ]); (d.r3, 2, [ "fx"; "fy" ]) ];
  check_against_oracle net (pfx "blue")

let test_prefix_cost_matters () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.r4 ~cost:10;
  let fib_r1 = fib_exn net ~router:d.r1 (pfx "blue") in
  Alcotest.(check int) "cost via C" 3 fib_r1.distance

(* ---------- Flooding ---------- *)

let test_flooding_counts () =
  let d = T.demo () in
  let cost = Igp.Flooding.flood d.graph ~origin:d.b in
  Alcotest.(check int) "messages" 16 cost.messages;
  Alcotest.(check int) "rounds = eccentricity of B" 3 cost.rounds

let test_flooding_partition () =
  let g = G.create () in
  let a = G.add_node g ~name:"a" in
  let b = G.add_node g ~name:"b" in
  let c = G.add_node g ~name:"c" in
  let d = G.add_node g ~name:"d" in
  G.add_link g a b ~weight:1;
  G.add_link g c d ~weight:1;
  let cost = Igp.Flooding.flood g ~origin:a in
  Alcotest.(check int) "only reachable side" 2 cost.messages;
  Alcotest.(check int) "one round" 1 cost.rounds

let test_flooding_add () =
  let a = { Igp.Flooding.messages = 3; rounds = 2 } in
  let b = { Igp.Flooding.messages = 5; rounds = 1 } in
  let s = Igp.Flooding.add a b in
  Alcotest.(check int) "messages add" 8 s.messages;
  Alcotest.(check int) "rounds max" 2 s.rounds

(* ---------- Network ---------- *)

let test_network_control_cost_accounting () =
  let d, net = demo_net () in
  Alcotest.(check int) "starts at zero" 0 (Igp.Network.control_cost net).messages;
  Igp.Network.inject_fake net (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  Alcotest.(check int) "one flood" 16 (Igp.Network.control_cost net).messages;
  Igp.Network.retract_fake net ~fake_id:"f";
  Alcotest.(check int) "purge also floods" 32 (Igp.Network.control_cost net).messages

let test_network_clone_independent () =
  let d, net = demo_net () in
  let clone = Igp.Network.clone net in
  Igp.Network.inject_fake clone (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  let fib_orig = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "original untouched" [ d.r2 ] (Igp.Fib.next_hops fib_orig);
  let fib_clone = fib_exn clone ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "clone changed" [ d.r2; d.r3 ]
    (Igp.Fib.next_hops fib_clone)

let test_network_clone_carries_fakes () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  let clone = Igp.Network.clone net in
  Alcotest.(check int) "fake copied" 1 (List.length (Igp.Network.fakes clone))

(* The clone is built directly, not by replaying announcements and
   fakes; it must leave exactly the state such a replay leaves. *)
let test_network_clone_matches_replay () =
  let d, net = demo_net () in
  Igp.Network.announce_prefix net (pfx "red") ~origin:d.r4 ~cost:1;
  Igp.Network.announce_prefix net (pfx "red") ~origin:d.a ~cost:2;
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.r1 ~cost:2;
  Igp.Network.inject_fake net (fake ~id:"f2" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Network.inject_fake net (fake ~id:"f1" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Network.inject_fake net
    { (fake ~id:"f3" ~at:d.r4 ~cost:1 ~fwd:d.c) with prefix = pfx "red" };
  Igp.Network.retract_fake net ~fake_id:"f2";
  Igp.Network.inject_fake net (fake ~id:"f2" ~at:d.b ~cost:3 ~fwd:d.r3);
  Igp.Lsdb.set_fake_expiry (Igp.Network.lsdb net) ~fake_id:"f1" ~now:0. ~ttl:5.;
  let replay = Igp.Network.create (G.copy (Igp.Network.graph net)) in
  List.iter
    (fun (p, origin, cost) -> Igp.Network.announce_prefix replay p ~origin ~cost)
    (Igp.Lsdb.prefixes (Igp.Network.lsdb net));
  List.iter (Igp.Network.inject_fake replay) (Igp.Network.fakes net);
  let clone = Igp.Network.clone net in
  let lsdb n = Igp.Network.lsdb n in
  let fake_ids n = List.map (fun (f : Igp.Lsa.fake) -> f.fake_id) (Igp.Network.fakes n) in
  let announcements n =
    List.map
      (fun (p, o, c) -> (Igp.Prefix.to_string p, o, c))
      (Igp.Lsdb.prefixes (lsdb n))
  in
  Alcotest.(check (list string)) "fakes order" (fake_ids replay) (fake_ids clone);
  Alcotest.(check (list (triple string int int))) "prefixes order"
    (announcements replay) (announcements clone);
  Alcotest.(check int) "version" (Igp.Lsdb.version (lsdb replay))
    (Igp.Lsdb.version (lsdb clone));
  Alcotest.(check (option int)) "last origin" (Igp.Lsdb.last_origin (lsdb replay))
    (Igp.Lsdb.last_origin (lsdb clone));
  Alcotest.(check (option (float 0.))) "no expiries" None
    (Igp.Lsdb.fake_expiry (lsdb clone) ~fake_id:"f1");
  List.iter
    (fun p ->
      List.iter
        (fun router ->
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d" (Igp.Prefix.to_string p) router)
            true
            (Igp.Network.fib clone ~router p = Igp.Network.fib replay ~router p))
        (G.nodes (Igp.Network.graph net)))
    [ pfx "blue"; pfx "red" ]

let test_network_set_weight_reconverges () =
  let d, net = demo_net () in
  Igp.Network.set_weight net d.b d.r2 ~weight:8;
  Igp.Network.set_weight net d.r2 d.b ~weight:8;
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "B re-routes via R3" [ d.r3 ] (Igp.Fib.next_hops fib_b)

let test_network_refresh_cost () =
  let d, net = demo_net () in
  Alcotest.(check int) "no fakes, no refresh" 0
    (Igp.Network.refresh_cost net ~period:1800. ~duration:3600.).messages;
  Igp.Network.inject_fake net (fake ~id:"f" ~at:d.b ~cost:2 ~fwd:d.r3);
  (* One fake, two 30-minute cycles in an hour, 16 messages per flood. *)
  Alcotest.(check int) "one fake, 1h" 32
    (Igp.Network.refresh_cost net ~period:1800. ~duration:3600.).messages;
  Alcotest.(check bool) "bad period" true
    (try ignore (Igp.Network.refresh_cost net ~period:0. ~duration:1.); false
     with Invalid_argument _ -> true)

let test_network_retract_all () =
  let d, net = demo_net () in
  Igp.Network.inject_fake net (fake ~id:"f1" ~at:d.b ~cost:2 ~fwd:d.r3);
  Igp.Network.inject_fake net (fake ~id:"f2" ~at:d.a ~cost:3 ~fwd:d.r1);
  Igp.Network.retract_all_fakes net;
  Alcotest.(check int) "all gone" 0 (List.length (Igp.Network.fakes net));
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "back to baseline" [ d.r2 ] (Igp.Fib.next_hops fib_b)

(* Property: on random topologies, injecting an equal-cost fake at a
   random non-announcer router never changes any other router's
   forwarding weights. This is the safety argument behind the demo. *)
let prop_equal_cost_fake_is_surgical =
  QCheck.Test.make ~name:"equal-cost fakes are surgical" ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 5 20))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = Netgraph.Topologies.random prng ~n ~extra_edges:n ~max_weight:4 in
      let announcer = Kit.Prng.int prng n in
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:announcer ~cost:0;
      let router =
        let r = ref (Kit.Prng.int prng n) in
        while !r = announcer do
          r := Kit.Prng.int prng n
        done;
        !r
      in
      match Igp.Network.fib net ~router (pfx "p") with
      | None -> false (* random graphs are connected *)
      | Some fib ->
        let neighbors = List.map fst (G.succ g router) in
        let fwd = List.nth neighbors (Kit.Prng.int prng (List.length neighbors)) in
        let before =
          List.filter_map
            (fun r ->
              if r = router then None
              else
                Option.map
                  (fun f -> (r, Igp.Fib.weights f))
                  (Igp.Network.fib net ~router:r (pfx "p")))
            (G.nodes g)
        in
        Igp.Network.inject_fake net
          {
            fake_id = "f";
            attachment = router;
            attachment_cost = 1;
            prefix = pfx "p";
            announced_cost = fib.Igp.Fib.distance - 1;
            forwarding = fwd;
          };
        List.for_all
          (fun (r, weights_before) ->
            match Igp.Network.fib net ~router:r (pfx "p") with
            | Some f -> Igp.Fib.weights f = weights_before
            | None -> false)
          before)

(* Property: adding a fake can only lower apparent distances. *)
let prop_fakes_never_increase_distance =
  QCheck.Test.make ~name:"fakes never increase distances" ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 5 18))
    (fun (seed, n) ->
      let prng = Kit.Prng.create ~seed in
      let g = Netgraph.Topologies.random prng ~n ~extra_edges:(n / 2) ~max_weight:4 in
      let announcer = Kit.Prng.int prng n in
      let net = Igp.Network.create g in
      Igp.Network.announce_prefix net (pfx "p") ~origin:announcer ~cost:0;
      let router =
        let r = ref (Kit.Prng.int prng n) in
        while !r = announcer do
          r := Kit.Prng.int prng n
        done;
        !r
      in
      let neighbors = List.map fst (G.succ g router) in
      let fwd = List.nth neighbors (Kit.Prng.int prng (List.length neighbors)) in
      let before =
        List.filter_map
          (fun r ->
            Option.map (fun d -> (r, d)) (Igp.Network.distance net ~router:r (pfx "p")))
          (G.nodes g)
      in
      Igp.Network.inject_fake net
        {
          fake_id = "f";
          attachment = router;
          attachment_cost = 1;
          prefix = pfx "p";
          announced_cost = Kit.Prng.int prng 6;
          forwarding = fwd;
        };
      List.for_all
        (fun (r, d_before) ->
          match Igp.Network.distance net ~router:r (pfx "p") with
          | Some d_after -> d_after <= d_before
          | None -> false)
        before)

(* ---------- Spf_engine ---------- *)

let test_engine_incremental_keeps_routers () =
  let d, net = demo_net () in
  Igp.Network.warm net;
  let engine = Igp.Network.engine net in
  let s0 = Igp.Spf_engine.stats engine in
  Alcotest.(check int) "one spf per router" 7 s0.spf_runs;
  Igp.Network.warm net;
  Alcotest.(check int) "re-warm is free" 7 (Igp.Spf_engine.stats engine).spf_runs;
  (* A fake far above every router's current distance can't move anyone:
     all tables survive the version bump, with zero new Dijkstras. *)
  Igp.Network.inject_fake net (fake ~id:"far" ~at:d.b ~cost:9 ~fwd:d.r3);
  Igp.Network.warm net;
  let s1 = Igp.Spf_engine.stats engine in
  Alcotest.(check int) "everyone kept" 7 (s1.routers_kept - s0.routers_kept);
  Alcotest.(check int) "no recompute" 7 s1.spf_runs;
  (* A cheaper-than-current fake must dirty its attachment (at least). *)
  Igp.Network.inject_fake net (fake ~id:"near" ~at:d.b ~cost:1 ~fwd:d.r3);
  Igp.Network.warm net;
  let s2 = Igp.Spf_engine.stats engine in
  Alcotest.(check bool) "some router dirtied" true
    (s2.routers_dirtied > s1.routers_dirtied);
  Alcotest.(check bool) "but not everyone" true
    (s2.routers_kept > s1.routers_kept);
  let fib_b = fib_exn net ~router:d.b (pfx "blue") in
  Alcotest.(check (list int)) "B took the cheap fake" [ d.r3 ]
    (Igp.Fib.next_hops fib_b);
  (* Lies never rerun stage 1: dirtied routers only rewrite blue's row. *)
  Alcotest.(check int) "install ran no Dijkstra" 7 s2.spf_runs;
  Igp.Network.retract_fake net ~fake_id:"near";
  Igp.Network.warm net;
  Alcotest.(check int) "retract ran no Dijkstra" 7
    (Igp.Spf_engine.stats engine).spf_runs;
  check_against_oracle net (pfx "blue")

(* Work-counter guard on the refill's scaling in the prefix count: a
   cold warm of GEANT carrying 4 000 prefixes may allocate at most 2.5x
   what the same warm allocates with 2 000 (a refill linear in P gives
   2x, a quadratic one 4x). *)
let test_engine_warm_linear_in_prefixes () =
  let warm_bytes n =
    let g = (Netgraph.Zoo.geant ()).Netgraph.Zoo.graph in
    let net = Igp.Network.create g in
    let prng = Kit.Prng.create ~seed:23 in
    let nodes = Array.of_list (G.nodes g) in
    List.iter
      (fun p -> Igp.Network.announce_prefix net p ~origin:(Kit.Prng.pick prng nodes) ~cost:0)
      (Igp.Prefix.synthesize prng ~n);
    let before = Gc.allocated_bytes () in
    Igp.Network.warm net;
    Gc.allocated_bytes () -. before
  in
  let small = warm_bytes 2_000 in
  let large = warm_bytes 4_000 in
  if large > 2.5 *. small then
    Alcotest.failf "warm allocation grew %.2fx from 2000 to 4000 prefixes (%.0f -> %.0f bytes)"
      (large /. small) small large

(* The incremental engine must be invisible: after any churn sequence,
   every router's FIB for every prefix equals a from-scratch SPF on the
   augmented graph (the independent oracle). Exercises the sequential
   fake rule (installs, retracts, supersessions), the single-weight-change
   rule, and the generic full-invalidation fallback (link removals).
   Prefixes are anycast (2-3 origins at costs 0-2) and fakes are often
   attached at an origin or installed in equal-cost groups sharing one
   forwarding neighbour, so stage 2's tie rules (local, multiplicity,
   via_fakes) are exercised. *)
let prop_engine_matches_scratch =
  QCheck.Test.make ~name:"incremental engine = from-scratch SPF" ~count:500
    QCheck.(pair (int_range 0 1000000) (int_range 1 8))
    (fun (seed, ops) ->
      let prng = Kit.Prng.create ~seed in
      let zoo = Netgraph.Zoo.all () in
      let entry = List.nth zoo (Kit.Prng.int prng (List.length zoo)) in
      let g = entry.Netgraph.Zoo.graph in
      let n = G.node_count g in
      let net = Igp.Network.create g in
      let prefixes = [| pfx "p0"; pfx "p1" |] in
      let origins = Array.make 2 [] in
      Array.iteri
        (fun i p ->
          for _ = 1 to 2 + Kit.Prng.int prng 2 do
            let origin = Kit.Prng.int prng n in
            origins.(i) <- origin :: origins.(i);
            Igp.Network.announce_prefix net p ~origin ~cost:(Kit.Prng.int prng 3)
          done)
        prefixes;
      (* Install [k] fakes for one prefix at one attachment (often one
         of the prefix's origins), all with the same costs and the same
         forwarding neighbour. Ids are reused, so supersessions happen. *)
      let install k =
        let i = Kit.Prng.int prng 2 in
        let attachment =
          if Kit.Prng.bool prng then
            List.nth origins.(i) (Kit.Prng.int prng (List.length origins.(i)))
          else Kit.Prng.int prng n
        in
        let attachment_cost = 1 + Kit.Prng.int prng 3
        and announced_cost = Kit.Prng.int prng 6 in
        match G.succ g attachment with
        | [] -> () (* link removals isolated it *)
        | succ ->
          let forwarding = fst (List.nth succ (Kit.Prng.int prng (List.length succ))) in
          for _ = 1 to k do
            Igp.Network.inject_fake net
              {
                fake_id = Printf.sprintf "f%d" (Kit.Prng.int prng 6);
                attachment;
                attachment_cost;
                prefix = prefixes.(i);
                announced_cost;
                forwarding;
              }
          done
      in
      let churn () =
        match Kit.Prng.int prng 10 with
        | 0 | 1 | 2 -> install 1
        | 3 -> install (2 + Kit.Prng.int prng 2)
        | 4 | 5 -> (
          match Igp.Network.fakes net with
          | [] -> ()
          | fakes ->
            let f = List.nth fakes (Kit.Prng.int prng (List.length fakes)) in
            Igp.Network.retract_fake net ~fake_id:f.Igp.Lsa.fake_id)
        | 6 | 7 | 8 -> (
          match G.edges g with
          | [] -> ()
          | edges ->
            let u, v, _ = List.nth edges (Kit.Prng.int prng (List.length edges)) in
            Igp.Network.set_weight net u v ~weight:(1 + Kit.Prng.int prng 8))
        | _ -> (
          (* Remove a link out of band: only a generic touch reaches the
             engine, forcing the full-invalidation path. *)
          match G.edges g with
          | [] -> ()
          | edges ->
            let u, v, _ = List.nth edges (Kit.Prng.int prng (List.length edges)) in
            G.remove_edge g u v;
            Igp.Lsdb.touch ~origin:u (Igp.Network.lsdb net))
      in
      let agrees () =
        let view = Spf_oracle.view (Igp.Network.lsdb net) in
        (* p0 through per-router lookups, p1 through the batched
           table ([compute_all]), so both engine paths are checked. *)
        let table1 = Igp.Network.fib_table net (pfx "p1") in
        List.for_all
          (fun router ->
            Igp.Network.fib net ~router (pfx "p0")
            = Spf_oracle.compute_prefix view ~router (pfx "p0")
            && table1.(router) = Spf_oracle.compute_prefix view ~router (pfx "p1"))
          (G.nodes g)
      in
      (* A third of the steps check nothing and refill at most one
         router, so flagged and dirty routers meet later deltas. *)
      let rec go k =
        if k = 0 then agrees ()
        else begin
          churn ();
          (if Kit.Prng.int prng 3 = 0 then begin
             ignore (Igp.Network.fib net ~router:(Kit.Prng.int prng n) (pfx "p0"));
             true
           end
           else agrees ())
          && go (k - 1)
        end
      in
      agrees () && go ops)

(* A cold network rebuilt from [net]'s graph, announcements and fakes:
   the oracle every what-if clone must agree with. *)
let replay net =
  let cold = Igp.Network.create (G.copy (Igp.Network.graph net)) in
  List.iter
    (fun (p, origin, cost) -> Igp.Network.announce_prefix cold p ~origin ~cost)
    (Igp.Lsdb.prefixes (Igp.Network.lsdb net));
  List.iter (Igp.Network.inject_fake cold) (Igp.Network.fakes net);
  cold

(* Warm clones share their parent's stage-1 trees and compute rows on
   demand. Random mutation sequences run on a parent and on clones of it
   (clones of clones too), often cloning while the mutated network's
   deltas are still unsynced. After a mutation, the mutated network
   answers exactly what its cold replay answers (checked on two steps
   in three, so unchecked state meets later deltas), and every other
   network answers exactly what it answered before. *)
let prop_clone_matches_replay =
  QCheck.Test.make ~name:"warm clone = cold replay" ~count:300
    QCheck.(pair (int_range 0 1000000) (int_range 1 14))
    (fun (seed, steps) ->
      let prng = Kit.Prng.create ~seed in
      let zoo = Netgraph.Zoo.all () in
      let entry = List.nth zoo (Kit.Prng.int prng (List.length zoo)) in
      let parent = Igp.Network.create (G.copy entry.Netgraph.Zoo.graph) in
      let n = G.node_count (Igp.Network.graph parent) in
      (* p2 is announced only by a later step: until then every row of
         it is the unknown-prefix [None]. *)
      let prefixes = [ pfx "p0"; pfx "p1"; pfx "p2" ] in
      let announce net p =
        Igp.Network.announce_prefix net p ~origin:(Kit.Prng.int prng n)
          ~cost:(Kit.Prng.int prng 3)
      in
      List.iter (fun p -> announce parent p; announce parent p) [ pfx "p0"; pfx "p1" ];
      (* p0 through per-router lookups, the others through whole tables. *)
      let answers net =
        List.map
          (fun p ->
            if Igp.Prefix.equal p (pfx "p0") then
              Array.init n (fun router -> Igp.Network.fib net ~router p)
            else Igp.Network.fib_table net p)
          prefixes
      in
      let pick l = List.nth l (Kit.Prng.int prng (List.length l)) in
      let install net =
        let g = Igp.Network.graph net in
        let announced = Igp.Lsdb.prefix_list (Igp.Network.lsdb net) in
        let attachment = Kit.Prng.int prng n in
        match G.succ g attachment with
        | [] -> ()
        | succ ->
          Igp.Network.inject_fake net
            {
              fake_id = Printf.sprintf "f%d" (Kit.Prng.int prng 5);
              attachment;
              attachment_cost = 1 + Kit.Prng.int prng 3;
              prefix = pick announced;
              announced_cost = Kit.Prng.int prng 6;
              forwarding = fst (pick succ);
            }
      in
      let mutate net =
        let g = Igp.Network.graph net in
        match Kit.Prng.int prng 10 with
        | 0 -> announce net (pick prefixes)
        | 1 | 2 | 3 -> install net
        | 4 | 5 -> (
          match Igp.Network.fakes net with
          | [] -> install net
          | fakes -> Igp.Network.retract_fake net ~fake_id:(pick fakes).Igp.Lsa.fake_id)
        | 6 | 7 | 8 -> (
          match G.edges g with
          | [] -> ()
          | edges ->
            let u, v, _ = pick edges in
            Igp.Network.set_weight net u v ~weight:(1 + Kit.Prng.int prng 8))
        | _ -> (
          (* A link failure, as the planner models it: graph surgery and
             a generic touch. Links carrying a fake stay, so that the
             replay can install every fake. *)
          let carries u v (f : Igp.Lsa.fake) =
            (f.attachment = u && f.forwarding = v) || (f.attachment = v && f.forwarding = u)
          in
          match
            List.filter
              (fun (u, v, _) -> not (List.exists (carries u v) (Igp.Network.fakes net)))
              (G.edges g)
          with
          | [] -> ()
          | edges ->
            let u, v, _ = pick edges in
            G.remove_edge g u v;
            G.remove_edge g v u;
            Igp.Lsdb.touch ~origin:u (Igp.Network.lsdb net))
      in
      let matches_replay net = answers net = answers (replay net) in
      let rec go k nets =
        if k = 0 then List.for_all matches_replay nets
        else
          match Kit.Prng.int prng 6 with
          | 0 when List.length nets < 4 ->
            (* Clone any network, its deltas possibly unsynced. *)
            go (k - 1) (nets @ [ Igp.Network.clone (pick nets) ])
          | 1 ->
            (* Read one row unchecked: a clone then holds a partial
               row cache when the next delta arrives. *)
            ignore
              (Igp.Network.fib (pick nets) ~router:(Kit.Prng.int prng n) (pick prefixes));
            go (k - 1) nets
          | _ ->
            let target = pick nets in
            let others = List.filter (fun net -> net != target) nets in
            let before = List.map answers others in
            mutate target;
            List.map answers others = before
            && (Kit.Prng.int prng 3 = 0 || matches_replay target)
            && go (k - 1) nets
      in
      go steps [ parent ])

(* A clone reads its parent's announcer index by reference and owns a
   copy of its fake index. After cloning, mutations interleave on both
   sides: the parent announces (a fresh announcer index), installs and
   retracts fakes of prefixes the clone also reads, and changes weights;
   the clone installs and retracts fakes. After every step, each side
   answers, for every prefix, what a cold replay of its own LSDB
   answers. *)
let prop_clone_isolated =
  QCheck.Test.make ~name:"clone isolated from parent" ~count:200
    QCheck.(pair (int_range 0 1000000) (int_range 1 16))
    (fun (seed, steps) ->
      let prng = Kit.Prng.create ~seed in
      let zoo = Netgraph.Zoo.all () in
      let entry = List.nth zoo (Kit.Prng.int prng (List.length zoo)) in
      let parent = Igp.Network.create (G.copy entry.Netgraph.Zoo.graph) in
      let n = G.node_count (Igp.Network.graph parent) in
      let pick l = List.nth l (Kit.Prng.int prng (List.length l)) in
      let announce p =
        Igp.Network.announce_prefix parent p ~origin:(Kit.Prng.int prng n)
          ~cost:(Kit.Prng.int prng 3)
      in
      List.iter announce [ pfx "p0"; pfx "p1"; pfx "p1" ];
      let install net =
        let attachment = Kit.Prng.int prng n in
        match G.succ (Igp.Network.graph net) attachment with
        | [] -> ()
        | succ ->
          Igp.Network.inject_fake net
            {
              fake_id = Printf.sprintf "f%d" (Kit.Prng.int prng 4);
              attachment;
              attachment_cost = 1 + Kit.Prng.int prng 3;
              prefix = pick [ pfx "p0"; pfx "p1" ];
              announced_cost = Kit.Prng.int prng 6;
              forwarding = fst (pick succ);
            }
      in
      let retract net =
        match Igp.Network.fakes net with
        | [] -> install net
        | fakes -> Igp.Network.retract_fake net ~fake_id:(pick fakes).Igp.Lsa.fake_id
      in
      if Kit.Prng.bool prng then install parent;
      let prefixes () = pfx "p9" :: Igp.Lsdb.prefix_list (Igp.Network.lsdb parent) in
      let answers net = List.map (Igp.Network.fib_table net) (prefixes ()) in
      ignore (answers parent);
      let clone = Igp.Network.clone parent in
      ignore (answers clone);
      let fresh = ref 2 in
      let step () =
        match Kit.Prng.int prng 8 with
        | 0 ->
          incr fresh;
          announce (if Kit.Prng.bool prng then pfx (Printf.sprintf "p%d" !fresh) else pfx "p1")
        | 1 -> install parent
        | 2 -> retract parent
        | 3 -> (
          match G.edges (Igp.Network.graph parent) with
          | [] -> ()
          | edges ->
            let u, v, _ = pick edges in
            Igp.Network.set_weight parent u v ~weight:(1 + Kit.Prng.int prng 8))
        | 4 | 5 -> install clone
        | _ -> retract clone
      in
      let rec go k =
        k = 0
        ||
        (step ();
         answers parent = answers (replay parent)
         && answers clone = answers (replay clone)
         && go (k - 1))
      in
      go steps)

(* The dirty log is sound at row granularity. Random sequences of fake
   installs, retracts and supersessions, single weight changes, link
   failures and announcements run on one network; after each, the
   changes are synced by a lookup at one router, by an explicit sync, by
   a what-if clone (which syncs its parent), or not yet. Lookups of one
   router leave the others flagged, so a later lie often reaches a router
   that already waits for other rows. Cursors are taken at random points,
   each with the answers of random (router, prefix) pairs looked up then.
   At the end, every recorded pair the cursor's dirt does not cover must
   answer what it answered at cursor time. *)
(* The announcement book against the list it replaces: a reference
   keeps [(prefix, origin, cost)] newest last, superseding a pair by
   filtering it out and appending. Random announcements, most of them
   superseding one, on an LSDB and on clones taken along the way, each
   announcing on its own afterwards: [prefixes],
   [announcers], [prefix_known] (through [install_fake], which raises
   on an unknown prefix) and [prefix_list] agree with each side's own
   reference. *)
let prop_announcements_match_list =
  QCheck.Test.make ~name:"announcement book = reference list, clones included" ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(int_range 0 300) (pair (int_range 0 15) (int_range 0 9))))
    (fun (seed, ops) ->
      let d = T.demo () in
      let prng = Kit.Prng.create ~seed in
      let origins = [| d.a; d.b; d.c; d.r1 |] in
      let names = [| "p0"; "p1"; "p2"; "p3"; "p4" |] in
      let announce (lsdb, reference) p origin cost =
        Igp.Lsdb.announce_prefix lsdb p ~origin ~cost;
        reference :=
          List.filter (fun (p', o, _) -> not (Igp.Prefix.equal p p' && o = origin)) !reference
          @ [ (p, origin, cost) ]
      in
      let agrees (lsdb, reference) =
        let known p =
          match
            Igp.Lsdb.install_fake lsdb
              {
                fake_id = "k";
                attachment = d.a;
                attachment_cost = 1;
                prefix = p;
                announced_cost = 0;
                forwarding = d.b;
              }
          with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        Igp.Lsdb.prefixes lsdb = !reference
        && Igp.Lsdb.prefix_list lsdb
           = List.sort_uniq compare (List.map (fun (p, _, _) -> p) !reference)
        && Array.for_all
             (fun name ->
               let p = pfx name in
               Igp.Lsdb.announcers lsdb p
               = List.filter_map (fun (p', o, _) -> if p' = p then Some o else None) !reference
               && known p = List.exists (fun (p', _, _) -> p' = p) !reference)
             names
      in
      let parent = (Igp.Lsdb.create d.graph, ref []) in
      let sides = ref [ parent ] in
      List.for_all
        (fun (side, cost) ->
          let lsdb, reference = List.nth !sides (side mod List.length !sides) in
          if side = 15 then sides := (Igp.Lsdb.clone lsdb d.graph, ref !reference) :: !sides
          else
            announce (lsdb, reference)
              (pfx names.(Kit.Prng.int prng (Array.length names)))
              origins.(Kit.Prng.int prng (Array.length origins))
              cost;
          List.for_all agrees !sides)
        ops)

(* The watchdog's partial sweep checks [Lsdb.announced_among] of its
   rows and failing prefixes: the same prefixes, in the same order, as
   filtering the full sorted [prefix_list] by membership, duplicates and
   unannounced prefixes in the input included. *)
let prop_partial_sweep_order =
  QCheck.Test.make ~name:"partial sweep = filtered full sweep" ~count:300
    QCheck.(pair (list (pair (int_range 0 40) (int_range 0 3))) (list (int_range 0 50)))
    (fun (announced, asked) ->
      let d = T.demo () in
      let lsdb = Igp.Lsdb.create d.graph in
      (* Host routes and wider CIDR blocks, interleaved. *)
      let prefix i =
        if i mod 2 = 0 then pfx (Printf.sprintf "p%d" i)
        else Igp.Prefix.make ~addr:(i lsl 24) ~len:(8 + (i mod 17))
      in
      List.iter
        (fun (i, origin) -> Igp.Lsdb.announce_prefix lsdb (prefix i) ~origin ~cost:i)
        announced;
      let asked = List.map prefix asked in
      Igp.Lsdb.announced_among lsdb asked
      = List.filter (fun p -> List.mem p asked) (Igp.Lsdb.prefix_list lsdb))

let prop_dirty_log_sound =
  QCheck.Test.make ~name:"dirtied_since covers every changed row" ~count:400
    QCheck.(pair (int_range 0 1000000) (int_range 1 16))
    (fun (seed, steps) ->
      let prng = Kit.Prng.create ~seed in
      let zoo = Netgraph.Zoo.all () in
      let g = G.copy (List.nth zoo (Kit.Prng.int prng (List.length zoo))).Netgraph.Zoo.graph in
      let n = G.node_count g in
      let net = Igp.Network.create g in
      let engine = Igp.Network.engine net in
      let prefixes = [ pfx "p0"; pfx "p1"; pfx "p2" ] in
      let pick l = List.nth l (Kit.Prng.int prng (List.length l)) in
      let announce p =
        Igp.Network.announce_prefix net p ~origin:(Kit.Prng.int prng n)
          ~cost:(Kit.Prng.int prng 3)
      in
      List.iter announce prefixes;
      let install () =
        let attachment = Kit.Prng.int prng n in
        match G.succ g attachment with
        | [] -> ()
        | succ ->
          Igp.Network.inject_fake net
            {
              fake_id = Printf.sprintf "f%d" (Kit.Prng.int prng 4);
              attachment;
              attachment_cost = 1 + Kit.Prng.int prng 3;
              prefix = pick prefixes;
              announced_cost = Kit.Prng.int prng 4;
              forwarding = fst (pick succ);
            }
      in
      let mutate () =
        match Kit.Prng.int prng 10 with
        | 0 | 1 | 2 | 3 -> install ()
        | 4 | 5 -> (
          match Igp.Network.fakes net with
          | [] -> install ()
          | fakes -> Igp.Network.retract_fake net ~fake_id:(pick fakes).Igp.Lsa.fake_id)
        | 6 | 7 -> (
          match G.edges g with
          | [] -> ()
          | edges ->
            let u, v, _ = pick edges in
            Igp.Network.set_weight net u v ~weight:(1 + Kit.Prng.int prng 8))
        | 8 -> announce (pick prefixes)
        | _ -> (
          match G.edges g with
          | [] -> ()
          | edges ->
            let u, v, _ = pick edges in
            G.remove_edge g u v;
            G.remove_edge g v u;
            Igp.Lsdb.touch ~origin:u (Igp.Network.lsdb net))
      in
      let settle () =
        match Kit.Prng.int prng 4 with
        | 0 -> ignore (Igp.Network.fib net ~router:(Kit.Prng.int prng n) (pick prefixes))
        | 1 -> Igp.Spf_engine.sync engine
        | 2 -> ignore (Igp.Network.clone net)
        | _ -> ()
      in
      let take () =
        let cursor = Igp.Spf_engine.dirty_cursor engine in
        let recorded =
          List.concat_map
            (fun router ->
              List.filter_map
                (fun p ->
                  if Kit.Prng.int prng 3 = 0 then
                    Some ((router, p), Igp.Network.fib net ~router p)
                  else None)
                prefixes)
            (G.nodes g)
        in
        (cursor, recorded)
      in
      let rec go k cursors =
        if k = 0 then cursors
        else begin
          mutate ();
          settle ();
          go (k - 1) (if Kit.Prng.int prng 3 = 0 then take () :: cursors else cursors)
        end
      in
      let cursors = go steps [ take () ] in
      (* Every cursor's dirt, read before any check's lookup refills. *)
      let dirt = List.map (fun (cursor, _) -> Igp.Spf_engine.dirtied_since engine ~cursor) cursors in
      let covers dirt (router, p) =
        List.exists
          (function
            | Igp.Spf_engine.Full_dirt -> true
            | Routers_dirt rs -> List.mem router rs
            | Rows_dirt (q, rs) -> Igp.Prefix.equal p q && List.mem router rs)
          dirt
      in
      List.for_all2
        (fun (_, recorded) dirt ->
          match dirt with
          | None -> true
          | Some dirt ->
            List.for_all
              (fun (((router, p) as pair), answer) ->
                covers dirt pair || Igp.Network.fib net ~router p = answer)
              recorded)
        cursors dirt)

(* A what-if clone of a warm network reads one prefix for the price of
   one row per router: no Dijkstra, and none of the other prefixes'
   rows. *)
let test_clone_reads_one_prefix () =
  let g = (Netgraph.Zoo.geant ()).Netgraph.Zoo.graph in
  let routers = G.node_count g in
  let net = Igp.Network.create g in
  let prng = Kit.Prng.create ~seed:17 in
  let nodes = Array.of_list (G.nodes g) in
  let prefixes = Igp.Prefix.synthesize prng ~n:522 in
  List.iter
    (fun p -> Igp.Network.announce_prefix net p ~origin:(Kit.Prng.pick prng nodes) ~cost:0)
    prefixes;
  Igp.Network.warm net;
  let parent = Igp.Spf_engine.stats (Igp.Network.engine net) in
  let clone = Igp.Network.clone net in
  let p = List.nth prefixes 100 in
  let attachment = nodes.(3) in
  Igp.Network.inject_fake clone
    {
      fake_id = "f";
      attachment;
      attachment_cost = 1;
      prefix = p;
      announced_cost = 0;
      forwarding = fst (List.hd (G.succ g attachment));
    };
  let table = Igp.Network.fib_table clone p in
  let s = Igp.Spf_engine.stats (Igp.Network.engine clone) in
  Alcotest.(check int) "22 routers" 22 routers;
  Alcotest.(check int) "no Dijkstra in the clone" 0 s.spf_runs;
  Alcotest.(check int) "one row per router" routers s.rows_written;
  let via_fake = function
    | Some (f : Igp.Fib.t) -> List.exists (fun (e : Igp.Fib.entry) -> e.via_fakes <> []) f.entries
    | None -> false
  in
  Alcotest.(check bool) "the lie took effect" true (Array.exists via_fake table);
  Alcotest.(check bool) "= cold replay" true (table = Igp.Network.fib_table (replay clone) p);
  Alcotest.(check int) "parent untouched" parent.rows_written
    (Igp.Spf_engine.stats (Igp.Network.engine net)).rows_written

(* ---------- Convergence ---------- *)

let test_convergence_schedule_ordering () =
  let d = T.demo () in
  let schedule =
    Igp.Convergence.installation_schedule
      { flood_per_hop = 0.01; spf_delay = 0.15; jitter = 0.02 } d.graph
      ~origin:d.b
  in
  Alcotest.(check int) "every router scheduled" 7 (List.length schedule);
  let times = List.map snd schedule in
  Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare times) times;
  (* The origin's own installation has no flooding delay. *)
  let origin_time = List.assoc d.b schedule in
  Alcotest.(check bool) "origin among the earliest" true
    (origin_time <= List.fold_left min infinity times +. 0.2)

let test_convergence_fake_injection_loop_free () =
  (* The demo's fB: only B's FIB changes, and the mixed window is safe
     throughout — Fibbing's equal-cost additions have no micro-loops. *)
  let d, net = demo_net () in
  let after = Igp.Network.clone net in
  Igp.Network.inject_fake after (fake ~id:"fB" ~at:d.b ~cost:2 ~fwd:d.r3);
  let report =
    Igp.Convergence.analyze ~before:net ~after ~origin:d.b ~prefix:(pfx "blue") ()
  in
  Alcotest.(check int) "one router changes" 1 report.states;
  Alcotest.(check int) "no unsafe state" 0 report.unsafe_states;
  Alcotest.(check bool) "no problem" true (report.first_problem = None)

(* The textbook micro-loop: chain C-B-A-T with a C-T backup; degrading
   A-T makes the new routes A->B->C->T, and if A installs before B the
   pair A/B point at each other. *)
let microloop_nets () =
  let g = G.create () in
  let a = G.add_node g ~name:"A" in
  let b = G.add_node g ~name:"B" in
  let c = G.add_node g ~name:"C" in
  let t = G.add_node g ~name:"T" in
  G.add_link g c t ~weight:5;
  G.add_link g c b ~weight:1;
  G.add_link g b a ~weight:1;
  G.add_link g a t ~weight:1;
  let before = Igp.Network.create g in
  Igp.Network.announce_prefix before (pfx "p") ~origin:t ~cost:0;
  let after = Igp.Network.clone before in
  Igp.Network.set_weight after a t ~weight:10;
  Igp.Network.set_weight after t a ~weight:10;
  (before, after, a, b)

let test_convergence_weight_change_microloops () =
  let before, after, a, _ = microloop_nets () in
  let report =
    Igp.Convergence.analyze ~before ~after ~origin:a ~prefix:(pfx "p") ()
  in
  Alcotest.(check bool) "several routers change" true (report.states >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "micro-loop detected (%d unsafe states)" report.unsafe_states)
    true
    (report.unsafe_states >= 1);
  Alcotest.(check bool) "window has positive duration" true
    (report.unsafe_window > 0.);
  match report.first_problem with
  | Some (_, description) ->
    Alcotest.(check bool) "describes a loop" true
      (String.length description > 0)
  | None -> Alcotest.fail "expected a problem description"

(* ---------- Safety (the one loop/blackhole analysis) ---------- *)

(* A hand-made one-hop FIB: [router] forwards [blue] to [next_hop]. *)
let hop router next_hop =
  Some
    {
      Igp.Fib.router;
      prefix = pfx "blue";
      distance = 1;
      local = false;
      entries = [ { next_hop; multiplicity = 1; via_fakes = [] } ];
    }

let test_safety_verdict_direct () =
  let d, net = demo_net () in
  (match Igp.Safety.verdict net ~prefix:(pfx "blue") with
  | Igp.Safety.Safe -> ()
  | Igp.Safety.Loop _ | Igp.Safety.Blackhole _ ->
    Alcotest.fail "baseline must be safe");
  (* A hand-made two-node loop. *)
  let looped = Array.make (G.node_count d.graph) None in
  looped.(d.a) <- hop d.a d.b;
  looped.(d.b) <- hop d.b d.a;
  match Igp.Safety.analyze looped with
  | Igp.Safety.Loop routers ->
    Alcotest.(check (list int)) "both on the loop" [ d.a; d.b ]
      (List.sort compare routers)
  | Igp.Safety.Safe | Igp.Safety.Blackhole _ ->
    Alcotest.fail "loop not found"

let test_safety_blackhole_verdict () =
  let d, _ = demo_net () in
  let fibs = Array.make (G.node_count d.graph) None in
  (* B has no route: A forwards into the void. *)
  fibs.(d.a) <- hop d.a d.b;
  match Igp.Safety.analyze fibs with
  | Igp.Safety.Blackhole router -> Alcotest.(check int) "at A" d.a router
  | Igp.Safety.Safe | Igp.Safety.Loop _ ->
    Alcotest.fail "blackhole not found"

(* ---------- Codec (wire format) ---------- *)

let roundtrip lsa =
  let packet = { Igp.Codec.lsa; sequence = 42 } in
  let encoded = Igp.Codec.encode packet in
  Alcotest.(check int) "wire_length agrees" (Bytes.length encoded)
    (Igp.Codec.wire_length packet);
  match Igp.Codec.decode encoded with
  | Ok decoded ->
    Alcotest.(check bool) "lsa roundtrips" true (decoded.lsa = lsa);
    Alcotest.(check int) "sequence roundtrips" 42 decoded.sequence
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_roundtrip_router () =
  roundtrip (Igp.Lsa.Router { origin = 3; links = [ (1, 10); (2, 65535); (7, 1) ] });
  roundtrip (Igp.Lsa.Router { origin = 0; links = [] })

let test_codec_roundtrip_prefix () =
  roundtrip (Igp.Lsa.Prefix { origin = 6; prefix = pfx "blue"; cost = 0 });
  roundtrip (Igp.Lsa.Prefix { origin = 1; prefix = pfx "10.1.0.0/16"; cost = 0xFFFFFF });
  roundtrip (Igp.Lsa.Prefix { origin = 1; prefix = pfx "0.0.0.0/0"; cost = 1 });
  (* The empty string is no longer a legal prefix: construction rejects it. *)
  Alcotest.(check bool) "empty prefix rejected" true
    (match Igp.Prefix.of_string "" with Error _ -> true | Ok _ -> false)

let test_codec_roundtrip_fake () =
  roundtrip
    (Igp.Lsa.Fake
       {
         fake_id = "fib:blue/B>R3#1";
         attachment = 1;
         attachment_cost = 1;
         prefix = pfx "blue";
         announced_cost = 1;
         forwarding = 4;
       })

let test_codec_age_field () =
  let packet =
    { Igp.Codec.lsa = Igp.Lsa.Prefix { origin = 1; prefix = pfx "p"; cost = 3 };
      sequence = 7 }
  in
  let encoded = Igp.Codec.encode packet in
  Alcotest.(check int) "originated at age 0" 0 (Bytes.get_uint16_be encoded 0);
  (* Age is outside the checksum: relays may bump it in place. *)
  Bytes.set_uint16_be encoded 0 1201;
  Alcotest.(check bool) "aged packet still decodes" true
    (Result.is_ok (Igp.Codec.decode encoded))

let test_codec_detects_corruption () =
  let packet =
    { Igp.Codec.lsa = Igp.Lsa.Prefix { origin = 1; prefix = pfx "blue"; cost = 3 };
      sequence = 7 }
  in
  let encoded = Igp.Codec.encode packet in
  (* Change one payload byte: the checksum must catch it. (A 0x00 -> 0xff
     flip is invisible to Fletcher-16 — 0 and 255 are congruent mod 255 —
     so perturb by +1 instead, as a real bit error usually would.) *)
  let corrupted = Bytes.copy encoded in
  let target = Bytes.length corrupted - 1 in
  Bytes.set_uint8 corrupted target ((Bytes.get_uint8 corrupted target + 1) land 0xff);
  (match Igp.Codec.decode corrupted with
  | Error reason ->
    Alcotest.(check bool) "mentions checksum" true
      (String.length reason > 0)
  | Ok _ -> Alcotest.fail "corruption undetected");
  (* Truncation. *)
  (match Igp.Codec.decode (Bytes.sub encoded 0 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation undetected");
  (* Length-field lie. *)
  let lied = Bytes.copy encoded in
  Bytes.set_uint16_be lied 12 (Bytes.length lied - 1);
  match Igp.Codec.decode lied with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "length mismatch undetected"

let test_codec_rejects_oversize_fields () =
  Alcotest.(check bool) "24-bit metric overflow" true
    (try
       ignore
         (Igp.Codec.encode
            { lsa = Igp.Lsa.Prefix { origin = 1; prefix = pfx "p"; cost = 1 lsl 24 };
              sequence = 0 });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "long name" true
    (try
       ignore
         (Igp.Codec.encode
            { lsa = Igp.Lsa.Prefix { origin = 1; prefix = pfx (String.make 300 'x'); cost = 1 };
              sequence = 0 });
       false
     with Invalid_argument _ -> true)

(* Flows aimed at arbitrary destinations find their governing
   announcement through [resolve]: fake churn must not change the
   answer, and a later, more-specific announcement takes over its
   range. *)
let test_network_resolve () =
  let d = T.demo () in
  let net = Igp.Network.create d.graph in
  List.iter
    (fun s -> Igp.Network.announce_prefix net (pfx s) ~origin:d.c ~cost:0)
    [ "10.0.0.0/8"; "10.1.0.0/16" ];
  let resolves label dest want =
    Alcotest.(check (option string)) label want
      (Option.map Igp.Prefix.to_string (Igp.Network.resolve net (pfx dest)))
  in
  resolves "exact" "10.1.0.0/16" (Some "10.1.0.0/16");
  resolves "covering block" "10.1.2.3/32" (Some "10.1.0.0/16");
  resolves "outer block" "10.2.0.1/32" (Some "10.0.0.0/8");
  resolves "no cover" "192.168.0.1/32" None;
  Igp.Network.inject_fake net
    { fake_id = "f16"; attachment = d.b; attachment_cost = 1;
      prefix = pfx "10.1.0.0/16"; announced_cost = 1; forwarding = d.r3 };
  resolves "under a fake" "10.1.2.3/32" (Some "10.1.0.0/16");
  Igp.Network.retract_fake net ~fake_id:"f16";
  resolves "after retraction" "10.1.2.3/32" (Some "10.1.0.0/16");
  Igp.Network.announce_prefix net (pfx "10.1.2.0/24") ~origin:d.a ~cost:0;
  resolves "later more-specific" "10.1.2.3/32" (Some "10.1.2.0/24");
  resolves "sibling keeps its block" "10.1.3.1/32" (Some "10.1.0.0/16")

(* Property: arbitrary LSAs roundtrip through the wire format. *)
let lsa_gen =
  let open QCheck.Gen in
  let name_gen = string_size ~gen:(char_range 'a' 'z') (0 -- 20) in
  (* Prefixes are now structured: exercise both named prefixes and raw
     CIDR blocks through the codec. *)
  let prefix_gen =
    oneof
      [
        (string_size ~gen:(char_range 'a' 'z') (1 -- 20) >|= Igp.Prefix.v);
        ( 0 -- 32 >>= fun len ->
          0 -- 0xFFFFFF >|= fun bits ->
          let addr = (bits lsl 8) land 0xFFFFFFFF in
          let addr = if len = 0 then 0 else addr land (0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF) in
          Igp.Prefix.make ~addr ~len );
      ]
  in
  let node_gen = 0 -- 1000 in
  oneof
    [
      (node_gen >>= fun origin ->
       list_size (0 -- 8) (pair node_gen (1 -- 65535)) >|= fun links ->
       Igp.Lsa.Router { origin; links });
      (node_gen >>= fun origin ->
       prefix_gen >>= fun prefix ->
       0 -- 0xFFFFFF >|= fun cost -> Igp.Lsa.Prefix { origin; prefix; cost });
      (name_gen >>= fun fake_id ->
       node_gen >>= fun attachment ->
       1 -- 65535 >>= fun attachment_cost ->
       prefix_gen >>= fun prefix ->
       0 -- 0xFFFFFF >>= fun announced_cost ->
       node_gen >|= fun forwarding ->
       Igp.Lsa.Fake
         { fake_id; attachment; attachment_cost; prefix; announced_cost; forwarding });
    ]

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips arbitrary LSAs" ~count:300
    (QCheck.make lsa_gen) (fun lsa ->
      let packet = { Igp.Codec.lsa; sequence = 123456 } in
      match Igp.Codec.decode (Igp.Codec.encode packet) with
      | Ok decoded -> decoded.lsa = lsa && decoded.sequence = 123456
      | Error _ -> false)

let prop_codec_single_bitflip_detected =
  QCheck.Test.make ~name:"codec detects single byte corruption" ~count:200
    QCheck.(pair (QCheck.make lsa_gen) (int_range 2 1000))
    (fun (lsa, position) ->
      let packet = { Igp.Codec.lsa; sequence = 1 } in
      let encoded = Igp.Codec.encode packet in
      (* Corrupt a checksummed byte (skip the age field at 0-1). *)
      let target = 2 + (position mod (Bytes.length encoded - 2)) in
      let corrupted = Bytes.copy encoded in
      Bytes.set_uint8 corrupted target (Bytes.get_uint8 corrupted target lxor 0x5a);
      match Igp.Codec.decode corrupted with
      | Error _ -> true
      | Ok decoded ->
        (* A flip in the length field may still decode if consistent —
           but then the content must differ. Anything else is a miss. *)
        decoded.lsa <> lsa)

(* Decoding is total: hostile input yields Error, never an exception.
   Plain random bytes mostly stop at the header checks, so the generator
   also mutates valid encodings (and random bodies behind a well-formed
   header) and then repairs the length field and Fletcher-16 checksum:
   those inputs reach the body parser. Whatever decodes must survive
   re-encoding. *)
(* Fletcher-16 over [buf.[pos .. pos + len)], written out independently
   of the codec's. *)
let fletcher16 buf ~pos ~len =
  let sum1 = ref 0 and sum2 = ref 0 in
  for i = pos to pos + len - 1 do
    sum1 := (!sum1 + Char.code (Bytes.get buf i)) mod 255;
    sum2 := (!sum2 + !sum1) mod 255
  done;
  (!sum2 lsl 8) lor !sum1

let repair_header buf =
  let len = Bytes.length buf in
  if len >= 16 then begin
    Bytes.set_uint16_be buf 12 (len land 0xffff);
    Bytes.set_uint16_be buf 14 0;
    Bytes.set_uint16_be buf 14 (fletcher16 buf ~pos:2 ~len:(len - 2))
  end;
  buf

let mutate buf = function
  | `Set (i, byte) ->
    let b = Bytes.copy buf in
    if Bytes.length b > 0 then Bytes.set_uint8 b (i mod Bytes.length b) byte;
    b
  | `Truncate n -> Bytes.sub buf 0 (n mod (Bytes.length buf + 1))
  | `Insert (i, s) ->
    let i = i mod (Bytes.length buf + 1) in
    Bytes.cat (Bytes.sub buf 0 i)
      (Bytes.cat (Bytes.of_string s) (Bytes.sub buf i (Bytes.length buf - i)))
  | `Delete (i, k) ->
    let i = i mod (Bytes.length buf + 1) in
    let k = min k (Bytes.length buf - i) in
    Bytes.cat (Bytes.sub buf 0 i) (Bytes.sub buf (i + k) (Bytes.length buf - i - k))

let fuzz_input_gen =
  let open QCheck.Gen in
  let mutation =
    frequency
      [
        (4, pair nat (0 -- 255) >|= fun m -> `Set m);
        (1, nat >|= fun n -> `Truncate n);
        (1, pair nat (string_size (1 -- 8)) >|= fun m -> `Insert m);
        (1, pair nat (1 -- 8) >|= fun m -> `Delete m);
      ]
  in
  oneof
    [
      (string_size (0 -- 200) >|= Bytes.of_string);
      ( oneofl [ 1; 5; 9 ] >>= fun lsa_type ->
        string_size (16 -- 120) >|= fun junk ->
        let buf = Bytes.of_string junk in
        Bytes.set_uint8 buf 2 2;
        Bytes.set_uint8 buf 3 lsa_type;
        repair_header buf );
      ( lsa_gen >>= fun lsa ->
        list_size (1 -- 4) mutation >|= fun mutations ->
        repair_header
          (List.fold_left mutate (Igp.Codec.encode { lsa; sequence = 7 }) mutations)
      );
    ]

let prop_codec_decode_total =
  QCheck.Test.make ~name:"codec decode never raises on garbage" ~count:2000
    (QCheck.make
       ~print:(fun b -> String.escaped (Bytes.to_string b))
       fuzz_input_gen)
    (fun buf ->
      match Igp.Codec.decode buf with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok packet -> Igp.Codec.decode (Igp.Codec.encode packet) = Ok packet)

(* ---------- Prefix: parsing, printing, containment ---------- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_prefix_parse_roundtrip () =
  List.iter
    (fun s ->
      match Igp.Prefix.of_string s with
      | Error e -> Alcotest.failf "%S rejected: %s" s e
      | Ok p -> Alcotest.(check string) s s (Igp.Prefix.to_string p))
    [ "10.0.0.0/8"; "192.168.1.0/24"; "0.0.0.0/0"; "255.255.255.255";
      "172.16.128.0/17"; "blue"; "p07"; "some_name-2" ];
  (* A /32 parses from and prints as a bare host address. *)
  (match Igp.Prefix.of_string "192.168.1.7/32" with
  | Ok p ->
    Alcotest.(check int) "host len" 32 (Igp.Prefix.len p);
    Alcotest.(check string) "host print" "192.168.1.7" (Igp.Prefix.to_string p)
  | Error e -> Alcotest.failf "host route rejected: %s" e)

let test_prefix_parse_rejects () =
  let rejects s fragment =
    match Igp.Prefix.of_string s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error %S mentions %S" s e fragment)
        true
        (contains_sub e fragment)
  in
  rejects "" "empty";
  rejects "10.0.0.256/8" "octet";
  rejects "10.0.0/8" "four dot-separated octets";
  rejects "010.0.0.0/8" "leading zero";
  rejects "10.0.0.0/33" "mask length";
  rejects "10.0.0.0/" "empty mask length";
  rejects "10.0.1.0/8" "host bits";
  rejects "2blue" "not a CIDR";
  rejects "10.0.0.x/8" "not a number"

let test_prefix_named_deterministic () =
  let p = pfx "blue" and q = pfx "blue" in
  Alcotest.(check bool) "same packing" true (Igp.Prefix.equal p q);
  Alcotest.(check string) "prints name" "blue" (Igp.Prefix.to_string p);
  Alcotest.(check int) "host route" 32 (Igp.Prefix.len p);
  (* Named prefixes live in class E so they never collide with real CIDRs. *)
  Alcotest.(check bool) "class E" true (Igp.Prefix.addr p lsr 28 = 0xF);
  Alcotest.(check bool) "distinct names distinct" false
    (Igp.Prefix.equal (pfx "blue") (pfx "red"))

(* Containment as longest-prefix match sees it: an address resolves to
   the most specific covering route, and /0 covers everything. *)
let test_prefix_containment () =
  let t = Igp.Fib_trie.create ~eq:String.equal in
  List.iter
    (fun s -> Igp.Fib_trie.update t (pfx s) s)
    [ "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16" ];
  let p16 = pfx "10.1.0.0/16" in
  let route a = Option.map snd (Igp.Fib_trie.lookup t a) in
  let check name expected a = Alcotest.(check (option string)) name expected (route a) in
  check "first addr in /16" (Some "10.1.0.0/16") (Igp.Prefix.first_addr p16);
  check "last addr in /16" (Some "10.1.0.0/16") (Igp.Prefix.last_addr p16);
  check "/8 covers beyond /16" (Some "10.0.0.0/8") (Igp.Prefix.last_addr p16 + 1);
  check "/0 covers a disjoint /8" (Some "0.0.0.0/0")
    (Igp.Prefix.first_addr (pfx "11.0.0.0/8"))

let test_prefix_synthesize () =
  let prng = Kit.Prng.create ~seed:42 in
  let ps = Igp.Prefix.synthesize prng ~n:500 in
  Alcotest.(check int) "count" 500 (List.length ps);
  let seen = Hashtbl.create 512 in
  List.iter
    (fun p ->
      Alcotest.(check bool) "unique" false (Hashtbl.mem seen p);
      Hashtbl.replace seen p ();
      Alcotest.(check bool) "plausible len" true
        (Igp.Prefix.len p >= 1 && Igp.Prefix.len p <= 32))
    ps;
  (* Zipf-nested: a healthy share of prefixes sits under another one. *)
  let nested =
    List.length
      (List.filter
         (fun p ->
           List.exists
             (fun q ->
               (not (Igp.Prefix.equal p q))
               && Igp.Prefix.first_addr q <= Igp.Prefix.first_addr p
               && Igp.Prefix.last_addr p <= Igp.Prefix.last_addr q)
             ps)
         ps)
  in
  Alcotest.(check bool)
    (Printf.sprintf "nesting present (%d/500)" nested)
    true (nested > 50)

(* ---------- Fib_trie: LPM edge cases and aggregation ---------- *)

let trie_of bindings =
  let t = Igp.Fib_trie.create ~eq:Int.equal in
  List.iter (fun (s, v) -> Igp.Fib_trie.update t (pfx s) v) bindings;
  t

let lookup_v t addr = Option.map snd (Igp.Fib_trie.lookup t addr)
let lookup_av t addr = Option.map snd (Igp.Fib_trie.lookup_aggregated t addr)

let addr_of s = Igp.Prefix.first_addr (pfx s)

let test_trie_default_route () =
  let t = trie_of [ ("0.0.0.0/0", 1); ("10.0.0.0/8", 2) ] in
  Alcotest.(check (option int)) "inside /8" (Some 2) (lookup_v t (addr_of "10.9.9.9"));
  Alcotest.(check (option int)) "outside /8 falls to /0" (Some 1)
    (lookup_v t (addr_of "11.0.0.1"));
  Alcotest.(check (option int)) "0.0.0.0 matches /0" (Some 1) (lookup_v t 0);
  Alcotest.(check (option int)) "255.255.255.255 matches /0" (Some 1)
    (lookup_v t 0xFFFFFFFF);
  let empty = Igp.Fib_trie.create ~eq:Int.equal in
  Alcotest.(check (option int)) "no routes: no match" None (lookup_v empty 42)

let test_trie_host_route () =
  let t = trie_of [ ("10.0.0.0/8", 1); ("10.1.2.3/32", 2) ] in
  Alcotest.(check (option int)) "host exact" (Some 2) (lookup_v t (addr_of "10.1.2.3"));
  Alcotest.(check (option int)) "neighbor address" (Some 1) (lookup_v t (addr_of "10.1.2.4"));
  Igp.Fib_trie.remove t (pfx "10.1.2.3/32");
  Alcotest.(check (option int)) "host removed" (Some 1) (lookup_v t (addr_of "10.1.2.3"))

let test_trie_nested_overlap () =
  (* Fake on the more-specific: /16 diverges from its /8 parent, then is
     retracted and the parent's value shows through again. *)
  let t = trie_of [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 1) ] in
  (* Same behavior: child aggregates away. *)
  Alcotest.(check int) "aggregated to one" 1 (Igp.Fib_trie.stats t).installed;
  Alcotest.(check int) "two routes kept" 2 (Igp.Fib_trie.stats t).routes;
  Alcotest.(check (option int)) "flat" (Some 1) (lookup_v t (addr_of "10.1.2.3"));
  Alcotest.(check (option int)) "aggregated" (Some 1) (lookup_av t (addr_of "10.1.2.3"));
  (* A fake steers the /16 only: it must reappear as a barrier. *)
  Igp.Fib_trie.update t (pfx "10.1.0.0/16") 7;
  Alcotest.(check int) "barrier installed" 2 (Igp.Fib_trie.stats t).installed;
  Alcotest.(check (option int)) "steered inside" (Some 7) (lookup_av t (addr_of "10.1.2.3"));
  Alcotest.(check (option int)) "outside untouched" (Some 1) (lookup_av t (addr_of "10.2.0.1"));
  (* Retract: aggregation collapses again. *)
  Igp.Fib_trie.update t (pfx "10.1.0.0/16") 1;
  Alcotest.(check int) "collapsed" 1 (Igp.Fib_trie.stats t).installed

let test_trie_sibling_barriers () =
  (* Two siblings with different values under a common parent: both stay
     installed (differing next-hop sets are aggregation barriers). *)
  let t =
    trie_of
      [ ("10.0.0.0/8", 1); ("10.0.0.0/9", 2); ("10.128.0.0/9", 3) ]
  in
  Alcotest.(check int) "all barriers" 3 (Igp.Fib_trie.stats t).installed;
  Alcotest.(check (option int)) "low half" (Some 2) (lookup_av t (addr_of "10.1.0.0"));
  Alcotest.(check (option int)) "high half" (Some 3) (lookup_av t (addr_of "10.200.0.0"));
  (* Make one sibling equal to the parent: only it aggregates away. *)
  Igp.Fib_trie.update t (pfx "10.0.0.0/9") 1;
  Alcotest.(check int) "one aggregates" 2 (Igp.Fib_trie.stats t).installed;
  Alcotest.(check (option int)) "low half now parent" (Some 1)
    (lookup_av t (addr_of "10.1.0.0"));
  Alcotest.(check (option int)) "high half kept" (Some 3)
    (lookup_av t (addr_of "10.200.0.0"))

let test_trie_lookup_within () =
  let t = trie_of [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2) ] in
  let governing s =
    Option.map
      (fun (p, _) -> Igp.Prefix.to_string p)
      (Igp.Fib_trie.lookup_within t (pfx s))
  in
  Alcotest.(check (option string)) "exact" (Some "10.1.0.0/16") (governing "10.1.0.0/16");
  Alcotest.(check (option string)) "nested under /16" (Some "10.1.0.0/16")
    (governing "10.1.2.0/24");
  Alcotest.(check (option string)) "only /8 covers" (Some "10.0.0.0/8")
    (governing "10.2.0.0/16");
  Alcotest.(check (option string)) "nothing covers" None (governing "11.0.0.0/8")

(* ---------- Fib: canonical weights, invariant ---------- *)

let entry next_hop multiplicity : Igp.Fib.entry =
  { next_hop; multiplicity; via_fakes = [] }

let test_fib_equal_forwarding_canonical () =
  (* Regression: entry order and duplicate next-hop splits used to make
     behaviorally identical FIBs compare unequal. *)
  let base = { Igp.Fib.router = 0; prefix = pfx "blue"; distance = 3;
               local = false; entries = [ entry 1 2; entry 2 1 ] } in
  let reordered = { base with entries = [ entry 2 1; entry 1 2 ] } in
  let split = { base with entries = [ entry 1 1; entry 2 1; entry 1 1 ] } in
  Alcotest.(check bool) "reordered equal" true
    (Igp.Fib.equal_forwarding base reordered);
  Alcotest.(check bool) "duplicate split equal" true
    (Igp.Fib.equal_forwarding base split);
  Alcotest.(check bool) "weights canonical" true
    (Igp.Fib.weights split = [ (1, 2); (2, 1) ]);
  Alcotest.(check bool) "different weights differ" false
    (Igp.Fib.equal_forwarding base { base with entries = [ entry 1 1; entry 2 1 ] })

let test_fib_make_rejects () =
  let mk entries =
    Igp.Fib.make ~router:0 ~prefix:(pfx "blue") ~distance:1 ~local:false entries
  in
  let rejects label entries =
    Alcotest.(check bool) label true
      (try ignore (mk entries); false with Invalid_argument _ -> true)
  in
  rejects "zero multiplicity" [ entry 1 0 ];
  rejects "negative multiplicity" [ entry 1 (-3) ];
  rejects "unsorted" [ entry 2 1; entry 1 1 ];
  rejects "duplicate next hop" [ entry 1 1; entry 1 1 ];
  (* Canonical input is accepted and satisfies the invariant. *)
  let fib = mk [ entry 1 2; entry 2 1 ] in
  Alcotest.(check bool) "invariant holds" true (Igp.Fib.invariant fib = Ok ());
  let bad = { fib with entries = [ entry 1 0 ] } in
  Alcotest.(check bool) "invariant catches" true (Igp.Fib.invariant bad <> Ok ())

let test_codec_rejects_malformed_prefix () =
  (* Forge a Prefix LSA whose on-wire name is not a valid prefix: decode
     must fail with the offset and reason, not deliver the garbage. *)
  let packet =
    { Igp.Codec.lsa = Igp.Lsa.Prefix { origin = 1; prefix = pfx "blue"; cost = 1 };
      sequence = 7 }
  in
  let buf = Igp.Codec.encode packet in
  (* Body starts at 16; the prefix string is u8 length + bytes. *)
  Bytes.set buf 17 '2' (* "blue" -> "2lue": neither name nor CIDR *);
  let sum = fletcher16 (let c = Bytes.copy buf in Bytes.set_uint16_be c 14 0; c)
      ~pos:2 ~len:(Bytes.length buf - 2) in
  Bytes.set_uint16_be buf 14 sum;
  match Igp.Codec.decode buf with
  | Ok _ -> Alcotest.fail "malformed prefix decoded"
  | Error e ->
    let has frag = contains_sub e frag in
    Alcotest.(check bool) (Printf.sprintf "%S names the field" e) true (has "prefix");
    Alcotest.(check bool) (Printf.sprintf "%S carries the offset" e) true (has "offset");
    Alcotest.(check bool) (Printf.sprintf "%S carries the token" e) true (has "2lue")

(* ---------- Aggregated trie == flat FIB under churn (QCheck) ---------- *)

(* The prefix pool deliberately mixes nesting depths so churn creates and
   destroys aggregation barriers; values stand in for next-hop sets. *)
let churn_pool =
  [| "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/9"; "10.128.0.0/9"; "10.1.0.0/16";
     "10.1.2.0/24"; "10.1.2.3/32"; "10.2.0.0/16"; "11.0.0.0/8"; "172.16.0.0/12";
     "172.16.5.0/24"; "192.168.0.0/16"; "192.168.1.0/24"; "192.168.1.7/32" |]

let prop_trie_matches_flat =
  QCheck.Test.make ~name:"aggregated trie == flat FIB under churn" ~count:250
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound (Array.length churn_pool - 1)) (int_bound 4)))
    (fun ops ->
      let t = Igp.Fib_trie.create ~eq:Int.equal in
      let breakpoints =
        Array.to_list churn_pool
        |> List.concat_map (fun s ->
               let p = pfx s in
               [ Igp.Prefix.first_addr p; Igp.Prefix.last_addr p;
                 (Igp.Prefix.last_addr p + 1) land 0xFFFFFFFF ])
      in
      List.for_all
        (fun (i, v) ->
          let p = pfx churn_pool.(i) in
          (* v = 0 is a retraction; otherwise install/steer to value v. *)
          if v = 0 then Igp.Fib_trie.remove t p else Igp.Fib_trie.update t p v;
          (Igp.Fib_trie.stats t).installed <= (Igp.Fib_trie.stats t).routes
          && List.for_all
               (fun a -> lookup_v t a = lookup_av t a)
               breakpoints)
        ops)

let prop_prefix_fuzz =
  Fuzz.total_and_round_trips ~name:"Prefix.of_string is total and round-trips"
    ~parse:Igp.Prefix.of_string ~print:Igp.Prefix.to_string
    [ "10.0.0.0/8"; "192.168.1.7"; "0.0.0.0/0"; "255.255.255.255/32"; "blue"; "p07"; "a_b-c" ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "igp"
    [
      ( "prefix",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_prefix_parse_roundtrip;
          Alcotest.test_case "parse rejects" `Quick test_prefix_parse_rejects;
          Alcotest.test_case "named deterministic" `Quick test_prefix_named_deterministic;
          Alcotest.test_case "containment" `Quick test_prefix_containment;
          Alcotest.test_case "synthesize" `Quick test_prefix_synthesize;
        ] );
      ( "fib-trie",
        [
          Alcotest.test_case "default route" `Quick test_trie_default_route;
          Alcotest.test_case "host route" `Quick test_trie_host_route;
          Alcotest.test_case "nested overlap" `Quick test_trie_nested_overlap;
          Alcotest.test_case "sibling barriers" `Quick test_trie_sibling_barriers;
          Alcotest.test_case "lookup within" `Quick test_trie_lookup_within;
        ] );
      ( "lsa",
        [
          Alcotest.test_case "total cost" `Quick test_lsa_total_cost;
        ] );
      ( "lsdb",
        [
          Alcotest.test_case "announce/view" `Quick test_lsdb_announce_and_view;
          Alcotest.test_case "fake validation" `Quick test_lsdb_install_fake_validation;
          Alcotest.test_case "supersede" `Quick test_lsdb_supersede_fake;
          Alcotest.test_case "retract" `Quick test_lsdb_retract;
          Alcotest.test_case "versions" `Quick test_lsdb_version_bumps;
          Alcotest.test_case "anycast" `Quick test_lsdb_anycast;
        ] );
      ( "spf-fib",
        [
          Alcotest.test_case "baseline routes (Fig 1a)" `Quick test_spf_baseline_routes;
          Alcotest.test_case "fake ECMP (Fig 1c, fB)" `Quick test_spf_fake_creates_ecmp;
          Alcotest.test_case "fake multiplicity (Fig 1c, fA)" `Quick
            test_spf_fake_multiplicity;
          Alcotest.test_case "surgical lies" `Quick test_spf_fake_does_not_change_others;
          Alcotest.test_case "cheaper fake overrides" `Quick
            test_spf_cheaper_fake_overrides;
          Alcotest.test_case "expensive fake ignored" `Quick
            test_spf_expensive_fake_ignored;
          Alcotest.test_case "fake is not transit" `Quick test_spf_fake_not_transit;
          Alcotest.test_case "unknown prefix" `Quick test_spf_unknown_prefix;
          Alcotest.test_case "unreachable prefix" `Quick test_spf_unreachable_prefix;
          Alcotest.test_case "local has no fractions" `Quick
            test_fib_fractions_empty_when_local;
          Alcotest.test_case "distance only" `Quick test_spf_distance_only;
          Alcotest.test_case "all prefixes" `Quick test_spf_compute_all_prefixes;
          Alcotest.test_case "origin and fakes tie" `Quick test_spf_origin_and_fakes_tie;
          Alcotest.test_case "announce cost" `Quick test_prefix_cost_matters;
        ] );
      ( "flooding",
        [
          Alcotest.test_case "counts" `Quick test_flooding_counts;
          Alcotest.test_case "partition" `Quick test_flooding_partition;
          Alcotest.test_case "add" `Quick test_flooding_add;
        ] );
      ( "network",
        [
          Alcotest.test_case "control cost" `Quick test_network_control_cost_accounting;
          Alcotest.test_case "clone independent" `Quick test_network_clone_independent;
          Alcotest.test_case "clone carries fakes" `Quick test_network_clone_carries_fakes;
          Alcotest.test_case "clone matches replay" `Quick test_network_clone_matches_replay;
          Alcotest.test_case "weight reconvergence" `Quick
            test_network_set_weight_reconverges;
          Alcotest.test_case "refresh cost" `Quick test_network_refresh_cost;
          Alcotest.test_case "retract all" `Quick test_network_retract_all;
          Alcotest.test_case "resolve" `Quick test_network_resolve;
        ] );
      ( "spf-engine",
        [
          Alcotest.test_case "incremental invalidation" `Quick
            test_engine_incremental_keeps_routers;
          Alcotest.test_case "warm linear in prefixes" `Quick
            test_engine_warm_linear_in_prefixes;
          Alcotest.test_case "clone reads one prefix" `Quick test_clone_reads_one_prefix;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "schedule ordering" `Quick test_convergence_schedule_ordering;
          Alcotest.test_case "fake injection loop-free" `Quick
            test_convergence_fake_injection_loop_free;
          Alcotest.test_case "weight change micro-loops" `Quick
            test_convergence_weight_change_microloops;
          Alcotest.test_case "loop verdict" `Quick test_safety_verdict_direct;
          Alcotest.test_case "blackhole verdict" `Quick test_safety_blackhole_verdict;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip router" `Quick test_codec_roundtrip_router;
          Alcotest.test_case "roundtrip prefix" `Quick test_codec_roundtrip_prefix;
          Alcotest.test_case "roundtrip fake" `Quick test_codec_roundtrip_fake;
          Alcotest.test_case "age field" `Quick test_codec_age_field;
          Alcotest.test_case "corruption detected" `Quick test_codec_detects_corruption;
          Alcotest.test_case "oversize fields" `Quick test_codec_rejects_oversize_fields;
          Alcotest.test_case "malformed prefix rejected" `Quick
            test_codec_rejects_malformed_prefix;
        ] );
      ( "fib-canonical",
        [
          Alcotest.test_case "equal_forwarding canonical" `Quick
            test_fib_equal_forwarding_canonical;
          Alcotest.test_case "make rejects" `Quick test_fib_make_rejects;
        ] );
      qsuite "prefix-props" [ prop_prefix_fuzz ];
      qsuite "codec-props"
        [
          prop_codec_roundtrip;
          prop_codec_single_bitflip_detected;
          prop_codec_decode_total;
        ];
      qsuite "igp-props"
        [
          prop_equal_cost_fake_is_surgical;
          prop_fakes_never_increase_distance;
          prop_engine_matches_scratch;
          prop_clone_matches_replay;
          prop_clone_isolated;
          prop_announcements_match_list;
          prop_partial_sweep_order;
          prop_dirty_log_sound;
          prop_trie_matches_flat;
        ];
    ]
