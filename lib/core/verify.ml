module Graph = Netgraph.Graph

type kind = [ `Requirement | `Collateral ]

type issue = { router : Graph.node; kind : kind; detail : string }

type report = { ok : bool; issues : issue list }

let pp_weights ~names fmt weights =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    (fun fmt (nh, m) -> Format.fprintf fmt "%s x%d" (names nh) m)
    fmt weights

let check net ~prefix ~expected ~baseline =
  let g = Igp.Network.graph net in
  let names = Graph.name g in
  let issues = ref [] in
  let issue router kind fmt =
    Format.kasprintf (fun detail -> issues := { router; kind; detail } :: !issues) fmt
  in
  (* Required routers: exact weight match. *)
  List.iter
    (fun (router, want) ->
      let want = List.sort compare want in
      match Igp.Network.fib net ~router prefix with
      | None -> issue router `Requirement "prefix became unreachable"
      | Some fib ->
        let got = List.sort compare (Igp.Fib.weights fib) in
        if got <> want then
          issue router `Requirement "wanted [%a] but forwards to [%a]"
            (pp_weights ~names) want (pp_weights ~names) got)
    expected;
  (* Everyone else: identical forwarding to the baseline. *)
  let is_required router = List.mem_assoc router expected in
  List.iter
    (fun (router, before) ->
      if not (is_required router) then begin
        match Igp.Network.fib net ~router prefix with
        | None -> issue router `Collateral "prefix became unreachable"
        | Some after ->
          if not (Igp.Fib.equal_forwarding before after) then
            issue router `Collateral "forwarding changed from [%a] to [%a]"
              (pp_weights ~names) (Igp.Fib.weights before)
              (pp_weights ~names) (Igp.Fib.weights after)
      end)
    baseline;
  (* Routers that newly gained reachability are also collateral. *)
  List.iter
    (fun (router, _) ->
      if (not (is_required router)) && not (List.mem_assoc router baseline) then
        issue router `Collateral "prefix became newly reachable")
    (Igp.Network.fibs net prefix);
  let issues = List.rev !issues in
  { ok = issues = []; issues }

let pp_report ~names fmt report =
  if report.ok then Format.pp_print_string fmt "verified: all FIBs as intended"
  else
    List.iter
      (fun { router; kind; detail } ->
        Format.fprintf fmt "%s %s: %s@."
          (match kind with `Requirement -> "[req]" | `Collateral -> "[collateral]")
          (names router) detail)
      report.issues
