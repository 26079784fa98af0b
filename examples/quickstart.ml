let pfx = Igp.Prefix.v
(* Quickstart: build the paper's network, look at the IGP's routes,
   state a forwarding requirement, and let Fibbing compile and inject
   the fake LSAs that realize it.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. The topology of the paper's Fig. 1a, with the blue prefix
     announced by router C. *)
  let d = Netgraph.Topologies.demo () in
  let net = Igp.Network.create d.graph in
  Igp.Network.announce_prefix net (pfx "blue") ~origin:d.c ~cost:0;

  let names = Netgraph.Graph.name d.graph in
  let show_fibs header =
    Format.printf "@.%s@." header;
    List.iter
      (fun (_, fib) -> Format.printf "  %a@." (Igp.Fib.pp ~names) fib)
      (Igp.Network.fibs net (pfx "blue"))
  in
  show_fibs "IGP routes to 'blue' (plain OSPF, Fig. 1a):";

  (* 2. Say what we want: B should split evenly over R2 and R3, and A
     should send 1/3 via B and 2/3 via R1 (the paper's Fig. 1d). *)
  let reqs =
    Fibbing.Requirements.make ~prefix:(pfx "blue")
      [
        (d.b, [ (d.r2, 0.5); (d.r3, 0.5) ]);
        (d.a, [ (d.b, 1. /. 3.); (d.r1, 2. /. 3.) ]);
      ]
  in
  Format.printf "@.Requirements:@.  %a" (Fibbing.Requirements.pp ~names) reqs;
  let baseline = Igp.Network.fibs net (pfx "blue") in

  (* 3. Compile to fake LSAs. [compile] verifies the candidate plan on a
     clone of the network before returning it. *)
  (match Fibbing.Augmentation.compile ~max_entries:4 net reqs with
  | Error e -> Format.printf "compilation failed: %s@." e
  | Ok plan ->
    Format.printf "@.Compiled plan (%d fake LSAs):@."
      (Fibbing.Augmentation.fake_count plan);
    List.iter
      (fun fake -> Format.printf "  %a@." (Igp.Lsa.pp ~names) (Fake fake))
      plan.fakes;

    (* 4. Inject. Every router recomputes its routes to the lied-about prefix. *)
    Fibbing.Augmentation.apply net plan;
    show_fibs "Routes after Fibbing (Fig. 1c/1d):";

    (* 5. The whole-network verification that the controller also runs. *)
    let report =
      Fibbing.Verify.check net ~prefix:(pfx "blue") ~expected:plan.expected ~baseline
    in
    Format.printf "@.Verification: %s@."
      (if report.ok then "every FIB is exactly as required" else "FAILED");

    (* 6. What did the lie cost? A handful of LSA floods. *)
    let cost = Igp.Network.control_cost net in
    Format.printf "Control-plane cost: %d LSA messages, %d flooding rounds@."
      cost.messages cost.rounds)
