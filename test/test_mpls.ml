let pfx = Igp.Prefix.v
(* Tests for the MPLS RSVP-TE baseline: CSPF, tunnels, overhead
   accounting and the stateful head-end splitter. *)

module G = Netgraph.Graph
module T = Netgraph.Topologies

let checkf = Alcotest.(check (float 1e-6))

let demo () = T.demo ()

let caps value = Netsim.Link.capacities ~default:value

(* ---------- Cspf ---------- *)

let test_cspf_follows_igp_when_free () =
  let d = demo () in
  let path =
    Mpls.Cspf.path d.graph ~capacities:(caps 100.) ~reserved:(fun _ -> 0.)
      ~bandwidth:10. ~src:d.a ~dst:d.c
  in
  Alcotest.(check (option (list int))) "IGP shortest" (Some [ d.a; d.b; d.r2; d.c ]) path

let test_cspf_avoids_reserved_links () =
  let d = demo () in
  (* Reserve most of B-R2: CSPF must detour. *)
  let reserved link = if link = (d.b, d.r2) then 95. else 0. in
  let path =
    Mpls.Cspf.path d.graph ~capacities:(caps 100.) ~reserved ~bandwidth:10.
      ~src:d.a ~dst:d.c
  in
  match path with
  | Some p ->
    Alcotest.(check bool) "avoids B-R2" true
      (let rec uses = function
         | u :: (v :: _ as rest) -> ((u, v) = (d.b, d.r2)) || uses rest
         | _ -> false
       in
       not (uses p))
  | None -> Alcotest.fail "a detour exists"

let test_cspf_none_when_saturated () =
  let d = demo () in
  let path =
    Mpls.Cspf.path d.graph ~capacities:(caps 5.) ~reserved:(fun _ -> 0.)
      ~bandwidth:10. ~src:d.a ~dst:d.c
  in
  Alcotest.(check (option (list int))) "no capacity anywhere" None path

(* ---------- Tunnels ---------- *)

let test_tunnel_establish_and_state () =
  let d = demo () in
  let t = Mpls.Tunnels.create d.graph (caps 100.) in
  (match Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:10. with
  | Ok tunnel ->
    Alcotest.(check (list int)) "shortest path" [ d.a; d.b; d.r2; d.c ] tunnel.path;
    (* 3 hops: 3 Path + 3 Resv. *)
    Alcotest.(check int) "signaling" 6 (Mpls.Tunnels.signaling_messages t);
    (* 4 routers keep state. *)
    Alcotest.(check int) "state entries" 4 (Mpls.Tunnels.total_state t)
  | Error e -> Alcotest.failf "establish failed: %s" e)

let test_tunnel_second_takes_detour () =
  let d = demo () in
  let t = Mpls.Tunnels.create d.graph (caps 15.) in
  (match Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:10. with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first: %s" e);
  match Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:10. with
  | Ok tunnel ->
    Alcotest.(check bool) "different path" true
      (tunnel.path <> [ d.a; d.b; d.r2; d.c ])
  | Error e -> Alcotest.failf "second: %s" e

let test_tunnel_rejects_when_full () =
  let d = demo () in
  let t = Mpls.Tunnels.create d.graph (caps 12.) in
  ignore (Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:10.);
  ignore (Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:10.);
  (* Both of A's exits are consumed now. *)
  match Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:10. with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "third tunnel should not fit"

let test_tunnel_refresh_overhead_grows () =
  let d = demo () in
  let t = Mpls.Tunnels.create d.graph (caps 100.) in
  ignore (Mpls.Tunnels.establish t ~head:d.a ~tail:d.c ~bandwidth:1.);
  ignore (Mpls.Tunnels.establish t ~head:d.b ~tail:d.c ~bandwidth:1.);
  let one_minute = Mpls.Tunnels.refresh_messages t ~period:30. ~duration:60. in
  let two_minutes = Mpls.Tunnels.refresh_messages t ~period:30. ~duration:120. in
  Alcotest.(check bool) "positive" true (one_minute > 0);
  Alcotest.(check int) "linear in time" (2 * one_minute) two_minutes

let test_tunnel_encap_overhead () =
  let d = demo () in
  let t = Mpls.Tunnels.create d.graph (caps 100.) in
  (* 1500-byte packets, 4-byte label, 1.5 MB of traffic: 1000 packets. *)
  checkf "4000 bytes" 4000.
    (Mpls.Tunnels.encap_overhead_bytes t ~packet_size:1500 ~label_bytes:4
       ~volume:1_500_000.)

(* The paper's argument in numbers: achieving the demo's load balancing
   with RSVP-TE costs strictly more control messages than the 3 fake
   LSAs Fibbing floods. *)
let test_overhead_comparison_fibbing_wins () =
  let d = demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;
  (* Fibbing: the demo's three fakes. *)
  let reqs =
    Fibbing.Requirements.make ~prefix:(pfx "blue")
      [
        (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
        (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
      ]
  in
  (match Fibbing.Augmentation.compile ~max_entries:4 net reqs with
  | Ok plan -> Fibbing.Augmentation.apply net plan
  | Error e -> Alcotest.failf "compile: %s" e);
  let fibbing_messages = (Igp.Network.control_cost net).messages in
  (* MPLS: same traffic split needs 3 tunnels (B->R2, B->R3 paths and
     the A->R1 detour) plus ongoing refreshes. *)
  let t = Mpls.Tunnels.create d.graph (caps 1000.) in
  List.iter
    (fun (head, tail) ->
      match Mpls.Tunnels.establish t ~head ~tail ~bandwidth:1. with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "tunnel: %s" e)
    [ (d.b, d.c); (d.b, d.c); (d.a, d.c) ];
  let mpls_setup = Mpls.Tunnels.signaling_messages t in
  let mpls_refresh = Mpls.Tunnels.refresh_messages t ~period:30. ~duration:3600. in
  Alcotest.(check bool)
    (Printf.sprintf "fibbing %d <= mpls setup+1h refresh %d" fibbing_messages
       (mpls_setup + mpls_refresh))
    true
    (fibbing_messages <= mpls_setup + mpls_refresh);
  (* And MPLS keeps per-router state while Fibbing keeps none. *)
  Alcotest.(check bool) "mpls state > 0" true (Mpls.Tunnels.total_state t > 0)

let () =
  Alcotest.run "mpls"
    [
      ( "cspf",
        [
          Alcotest.test_case "follows IGP" `Quick test_cspf_follows_igp_when_free;
          Alcotest.test_case "avoids reserved" `Quick test_cspf_avoids_reserved_links;
          Alcotest.test_case "saturated" `Quick test_cspf_none_when_saturated;
        ] );
      ( "tunnels",
        [
          Alcotest.test_case "establish/state" `Quick test_tunnel_establish_and_state;
          Alcotest.test_case "detour" `Quick test_tunnel_second_takes_detour;
          Alcotest.test_case "rejects when full" `Quick test_tunnel_rejects_when_full;
          Alcotest.test_case "refresh overhead" `Quick test_tunnel_refresh_overhead_grows;
          Alcotest.test_case "encap overhead" `Quick test_tunnel_encap_overhead;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "fibbing cheaper (TOVH)" `Quick
            test_overhead_comparison_fibbing_wins;
        ] );
    ]
