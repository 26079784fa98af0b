(* Domain-based fork/join worker pool.

   Domains are spawned per [map] call and always joined before it
   returns, so the pool holds no long-lived resources and needs no
   shutdown protocol. OCaml domain spawn is cheap relative to a chaos
   scenario, and ephemeral domains sidestep the hazards of a persistent
   pool (domains outliving the main domain at exit, deadlocks on
   teardown).

   Work distribution is a shared atomic cursor claimed in chunks: each
   participant — helper domains plus the calling domain itself — grabs
   the next [chunk] consecutive indices with one fetch-and-add, so a
   batch of n items costs O(n / chunk) atomic operations instead of n.
   The chunk is sized so every participant still makes ~8 claims,
   which keeps uneven per-item cost balanced. The first exception
   raised by any participant is captured and re-raised on the caller
   after all domains have been joined; remaining indices may or may
   not have been processed when that happens. *)

type t = { domains : int }

(* Process-wide default width, consulted by [create] when [?domains]
   is absent: an explicit [set_default_domains] override wins, then the
   FIBBING_DOMAINS environment variable, then the runtime's
   recommendation. *)
let default_override : int option Atomic.t = Atomic.make None

let env_domains () =
  match Sys.getenv_opt "FIBBING_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some d
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "FIBBING_DOMAINS=%S: expected a positive integer" s))

let set_default_domains d =
  Atomic.set default_override (Option.map (max 1) d)

let default_domain_count () =
  match Atomic.get default_override with
  | Some d -> d
  | None -> (
    match env_domains () with
    | Some d -> d
    | None -> Domain.recommended_domain_count ())

let create ?domains () =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> default_domain_count ()
  in
  { domains }

(* ~8 claims per participant amortizes the atomic traffic while leaving
   enough chunks for load balancing under uneven per-item cost. *)
let claims_per_participant = 8

let iter t ~n f =
  if n <= 0 then ()
  else begin
    let helpers = min (t.domains - 1) (n - 1) in
    if helpers <= 0 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let participants = helpers + 1 in
      let chunk = max 1 (n / (participants * claims_per_participant)) in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let work () =
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next chunk in
          if start >= n then continue := false
          else begin
            let stop = min n (start + chunk) in
            try
              for i = start to stop - 1 do
                f i
              done
            with exn ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (exn, bt)));
              continue := false
          end
        done
      in
      let spawned = List.init helpers (fun _ -> Domain.spawn work) in
      work ();
      List.iter Domain.join spawned;
      match Atomic.get failure with
      | None -> ()
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    end
  end

let map t ~n f =
  if n <= 0 then [||]
  else begin
    let results = Array.make n None in
    iter t ~n (fun i -> results.(i) <- Some (f i));
    Array.map
      (function Some v -> v | None -> assert false (* iter covers [0, n) *))
      results
  end
