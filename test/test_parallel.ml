let pfx = Igp.Prefix.v
(* Parallel-equivalence tests: the worker-pool width must be
   unobservable in results. SPF/FIB tables and chaos verdicts/timelines
   are computed at domains 1, 2 and 4 and compared byte-for-byte
   (serialized FIB dumps, captured timeline JSON). *)

module G = Netgraph.Graph
module T = Netgraph.Topologies

let widths = [ 2; 4 ]

(* ---------- SPF / FIB ---------- *)

(* Serialize every (router, prefix) FIB, fakes and multiplicities
   included: byte equality of dumps is the strongest form of "same
   routing". *)
let fib_dump net =
  let g = Igp.Network.graph net in
  let prefixes =
    List.sort compare (Igp.Lsdb.prefix_list (Igp.Network.lsdb net))
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun prefix ->
      Array.iteri
        (fun router fib ->
          match fib with
          | None -> Buffer.add_string buf (Printf.sprintf "%d/%s -\n" router (Igp.Prefix.to_string prefix))
          | Some fib ->
            Buffer.add_string buf
              (Format.asprintf "%d/%s %a@." router (Igp.Prefix.to_string prefix)
                 (Igp.Fib.pp ~names:(G.name g))
                 fib))
        (Igp.Network.fib_table net prefix))
    prefixes;
  Buffer.contents buf

(* Replay a random churn sequence (fake injections/retractions, new
   prefix announcements) on a network built with [domains] workers,
   dumping the full FIB table after every reconvergence. *)
let replay_churn ~seed ~ops domains =
  let prng = Kit.Prng.create ~seed in
  let g = T.random prng ~n:12 ~extra_edges:12 ~max_weight:4 in
  let net = Igp.Network.create ~domains g in
  Igp.Network.announce_prefix net (pfx "p0") ~origin:0 ~cost:0;
  let n = G.node_count g in
  let installed = ref [] in
  let dumps = Buffer.create 4096 in
  List.iteri
    (fun i op ->
      (match op mod 3 with
      | 0 -> (
        let at = op mod n in
        match G.succ g at with
        | [] -> ()
        | (fwd, _) :: _ ->
          let fake_id = Printf.sprintf "f%d" i in
          Igp.Network.inject_fake net
            {
              fake_id;
              attachment = at;
              attachment_cost = 1;
              prefix = pfx "p0";
              announced_cost = 0;
              forwarding = fwd;
            };
          installed := fake_id :: !installed)
      | 1 -> (
        match !installed with
        | [] -> ()
        | fake_id :: rest ->
          Igp.Network.retract_fake net ~fake_id;
          installed := rest)
      | _ ->
        Igp.Network.announce_prefix net (pfx (Printf.sprintf "q%d" i)) ~origin:(op mod n)
          ~cost:0);
      Igp.Network.warm net;
      Buffer.add_string dumps (fib_dump net))
    ops;
  Buffer.contents dumps

let prop_spf_fib_width_independent =
  QCheck.Test.make ~name:"SPF/FIB dumps identical at domains 1/2/4" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (small_list (int_range 0 99)))
    (fun (seed, ops) ->
      let reference = replay_churn ~seed ~ops 1 in
      List.for_all (fun d -> replay_churn ~seed ~ops d = reference) widths)

(* ---------- Chaos sweeps ---------- *)

let sweep domains =
  Scenarios.Chaos.sweep
    ~pool:(Kit.Pool.create ~domains ())
    ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~until:16. ()

let test_chaos_sweep_width_independent () =
  Obs.reset ();
  Obs.enable ();
  let reference = sweep 1 in
  let same = List.for_all (fun d -> sweep d = reference) widths in
  let shared_ring_events = Obs.Timeline.events ~include_spans:false () in
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check bool) "verdicts and timelines identical" true same;
  Alcotest.(check bool) "every run captured a non-empty timeline" true
    (List.for_all
       (fun (_, tl) -> match tl with Some s -> String.length s > 0 | None -> false)
       reference);
  (* Captured runs must not leak onto the shared timeline ring. *)
  Alcotest.(check int) "shared ring untouched by the sweep" 0
    (List.length shared_ring_events)

let test_chaos_sweep_matches_run () =
  (* The sweep is just [run] per seed: verdicts agree with direct calls. *)
  let direct =
    List.map
      (fun seed -> Scenarios.Chaos.run ~domains:1 ~seed ~until:16. ())
      [ 1; 2; 3 ]
  in
  let swept =
    List.map fst
      (Scenarios.Chaos.sweep
         ~pool:(Kit.Pool.create ~domains:4 ())
         ~seeds:[ 1; 2; 3 ] ~until:16. ())
  in
  Alcotest.(check bool) "sweep = per-seed run" true (swept = direct)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "parallel"
    [
      ("spf", qsuite [ prop_spf_fib_width_independent ]);
      ( "chaos",
        [
          Alcotest.test_case "sweep width-independent" `Quick
            test_chaos_sweep_width_independent;
          Alcotest.test_case "sweep matches run" `Quick
            test_chaos_sweep_matches_run;
        ] );
    ]
