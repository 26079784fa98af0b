let verifies net (reqs : Requirements.t) (plan : Augmentation.plan) ~baseline =
  let scratch = Igp.Network.clone net in
  Augmentation.apply scratch plan;
  (Verify.check scratch ~prefix:reqs.prefix ~expected:plan.expected ~baseline)
    .Verify.ok

let minimize net (reqs : Requirements.t) (plan : Augmentation.plan) =
  let baseline = Igp.Network.fibs net reqs.prefix in
  if not (verifies net reqs plan ~baseline) then plan
  else begin
    (* Try to drop fakes one at a time, most expensive lies first (they
       are the most likely to be redundant with cheaper ones). *)
    let order =
      List.sort
        (fun (a : Igp.Lsa.fake) (b : Igp.Lsa.fake) ->
          compare (Igp.Lsa.total_cost b) (Igp.Lsa.total_cost a))
        plan.fakes
    in
    let drop_one kept candidate =
      let remaining =
        List.filter
          (fun (f : Igp.Lsa.fake) ->
            not (String.equal f.fake_id candidate.Igp.Lsa.fake_id))
          kept
      in
      let trial = { plan with fakes = remaining } in
      if verifies net reqs trial ~baseline then remaining else kept
    in
    let fakes = List.fold_left drop_one plan.fakes order in
    { plan with fakes }
  end
