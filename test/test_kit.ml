(* Unit and property tests for the Kit support library. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Kit.Prng.create ~seed:42 in
  let b = Kit.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Kit.Prng.bits64 a) (Kit.Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Kit.Prng.create ~seed:1 in
  let b = Kit.Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true
    (Kit.Prng.bits64 a <> Kit.Prng.bits64 b)

let test_prng_copy_independent () =
  (* Two generators from one seed carry separate state. *)
  let a = Kit.Prng.create ~seed:7 in
  let b = Kit.Prng.create ~seed:7 in
  ignore (Kit.Prng.bits64 a);
  ignore (Kit.Prng.bits64 b);
  let xa = Kit.Prng.bits64 a in
  let xb = Kit.Prng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  ignore (Kit.Prng.bits64 a);
  (* b unaffected by advancing a *)
  let xa2 = Kit.Prng.bits64 a in
  let xb2 = Kit.Prng.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal draws" true (xa2 <> xb2 || xa = xb)

let test_prng_int_bounds () =
  let t = Kit.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Kit.Prng.int t 7 in
    Alcotest.(check bool) "0 <= x < 7" true (x >= 0 && x < 7)
  done

let test_prng_float_bounds () =
  let t = Kit.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Kit.Prng.float t 3.5 in
    Alcotest.(check bool) "0 <= x < 3.5" true (x >= 0. && x < 3.5)
  done

let test_prng_int_covers_range () =
  let t = Kit.Prng.create ~seed:9 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Kit.Prng.int t 5) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_prng_exponential_mean () =
  let t = Kit.Prng.create ~seed:11 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Kit.Prng.exponential t ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.3f close to 2.0" mean)
    true
    (abs_float (mean -. 2.0) < 0.1)

let test_prng_shuffle_permutation () =
  let t = Kit.Prng.create ~seed:3 in
  let a = Array.init 20 Fun.id in
  Kit.Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 20 Fun.id) sorted

(* ---------- Heap ---------- *)

let test_heap_ordering () =
  let h = Kit.Heap.create () in
  List.iter (fun p -> Kit.Heap.push h ~priority:p (int_of_float p))
    [ 5.; 1.; 4.; 2.; 3. ];
  let order = List.init 5 (fun _ -> match Kit.Heap.pop h with
    | Some (_, v) -> v
    | None -> Alcotest.fail "heap empty early")
  in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] order

let test_heap_empty () =
  let h : int Kit.Heap.t = Kit.Heap.create () in
  Alcotest.(check bool) "pop none" true (Kit.Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Kit.Heap.peek h = None)

let test_heap_peek_does_not_remove () =
  let h = Kit.Heap.create () in
  Kit.Heap.push h ~priority:1. "x";
  Alcotest.(check bool) "peek" true (Kit.Heap.peek h = Some (1., "x"));
  Alcotest.(check bool) "still there" true (Kit.Heap.pop h = Some (1., "x"))

let test_heap_duplicates () =
  let h = Kit.Heap.create () in
  Kit.Heap.push h ~priority:1. "a";
  Kit.Heap.push h ~priority:1. "b";
  Kit.Heap.push h ~priority:1. "c";
  let popped = List.init 3 (fun _ -> match Kit.Heap.pop h with
    | Some (_, v) -> v
    | None -> Alcotest.fail "missing")
  in
  Alcotest.(check (list string)) "all present" [ "a"; "b"; "c" ]
    (List.sort compare popped)

(* A popped value is left to the GC: no slot of the heap still refers to
   it, neither the one the pop vacated nor those past the end that the
   heap's growth filled. 20 pushes grow the heap twice. *)
let test_heap_pop_releases_value () =
  let n = 20 and popped = 5 in
  let h = Kit.Heap.create () and weak = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    Kit.Heap.push h ~priority:(float_of_int i) v
  done;
  let pop () = ignore (Sys.opaque_identity (Kit.Heap.pop h)) in
  for _ = 1 to popped do
    pop ()
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "value %d held" i) (i >= popped) (Weak.check weak i)
  done;
  for _ = popped + 1 to n do
    pop ()
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "value %d released" i) false (Weak.check weak i)
  done;
  Kit.Heap.push h ~priority:0. (ref 0);
  Alcotest.(check bool) "usable after emptying" true (Kit.Heap.pop h <> None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun priorities ->
      let h = Kit.Heap.create () in
      List.iteri (fun i p -> Kit.Heap.push h ~priority:p i) priorities;
      let rec drain acc =
        match Kit.Heap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare priorities)

(* Random push/pop/peek interleavings over four priorities, so most
   entries tie: the heap must answer every operation exactly as the
   swap-based heap it replaced ([Heap_oracle]), values included, which
   pins the order among equal priorities. *)
let heap_ops = QCheck.(list (pair (int_range 0 2) (int_range 0 3)))

let prop_heap_matches_swap_heap =
  QCheck.Test.make ~name:"heap = swap-based heap, ties included" ~count:300 heap_ops
    (fun ops ->
      let h = Kit.Heap.create () and oracle = Heap_oracle.create () in
      List.for_all
        (fun (i, (op, p)) ->
          match op with
          | 0 ->
            let priority = float_of_int p in
            Kit.Heap.push h ~priority i;
            Heap_oracle.push oracle ~priority i;
            true
          | 1 -> Kit.Heap.pop h = Heap_oracle.pop oracle
          | _ -> Kit.Heap.peek h = Heap_oracle.peek oracle)
        (List.mapi (fun i op -> (i, op)) ops))

(* The same for [Heap.Int], against the float oracle over the same small
   integers (their float comparisons are the integer ones). *)
let prop_int_heap_matches_swap_heap =
  QCheck.Test.make ~name:"int heap = swap-based heap, ties included" ~count:300 heap_ops
    (fun ops ->
      let h = Kit.Heap.Int.create () and oracle = Heap_oracle.create () in
      List.for_all
        (fun (i, (op, p)) ->
          if op = 0 then begin
            Kit.Heap.Int.push h ~priority:p i;
            Heap_oracle.push oracle ~priority:(float_of_int p) i;
            true
          end
          else
            Kit.Heap.Int.pop h
            = Option.map (fun (p, v) -> (int_of_float p, v)) (Heap_oracle.pop oracle))
        (List.mapi (fun i op -> (i, op)) ops))

(* ---------- Heap.Int ---------- *)

let test_int_heap_ordering () =
  let h = Kit.Heap.Int.create () in
  List.iter (fun p -> Kit.Heap.Int.push h ~priority:p (p * 10))
    [ 5; 1; 4; 2; 3 ];
  let order = List.init 5 (fun _ -> match Kit.Heap.Int.pop h with
    | Some (_, v) -> v
    | None -> Alcotest.fail "heap empty early")
  in
  Alcotest.(check (list int)) "ascending" [ 10; 20; 30; 40; 50 ] order

let test_int_heap_empty_and_clear () =
  let h = Kit.Heap.Int.create ~capacity:4 () in
  Alcotest.(check bool) "pop none" true (Kit.Heap.Int.pop h = None);
  Kit.Heap.Int.push h ~priority:3 7;
  Kit.Heap.Int.push h ~priority:1 9;
  Alcotest.(check bool) "pop min" true (Kit.Heap.Int.pop h = Some (1, 9));
  Alcotest.(check bool) "pop next" true (Kit.Heap.Int.pop h = Some (3, 7));
  Alcotest.(check bool) "drained" true (Kit.Heap.Int.pop h = None)

let test_int_heap_duplicates () =
  (* Lazy deletion: the same value may sit in the heap several times with
     different priorities; every copy surfaces. *)
  let h = Kit.Heap.Int.create () in
  Kit.Heap.Int.push h ~priority:4 1;
  Kit.Heap.Int.push h ~priority:2 1;
  Kit.Heap.Int.push h ~priority:2 2;
  let popped = List.init 3 (fun _ -> match Kit.Heap.Int.pop h with
    | Some pv -> pv
    | None -> Alcotest.fail "missing")
  in
  Alcotest.(check (list (pair int int))) "ordered with duplicates"
    [ (2, 1); (2, 2); (4, 1) ]
    (List.sort compare popped)

let prop_int_heap_sorts =
  QCheck.Test.make ~name:"int heap pops in priority order" ~count:200
    QCheck.(list (int_range 0 100000))
    (fun priorities ->
      let h = Kit.Heap.Int.create () in
      List.iteri (fun i p -> Kit.Heap.Int.push h ~priority:p i) priorities;
      let rec drain acc =
        match Kit.Heap.Int.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare priorities)

(* ---------- Pool ---------- *)

let test_pool_map_covers_all () =
  let pool = Kit.Pool.create ~domains:4 () in
  let n = 1000 in
  let hits = Array.make n 0 in
  (* Disjoint slots: each index is claimed exactly once. *)
  let ids = Kit.Pool.map pool ~n (fun i -> hits.(i) <- hits.(i) + 1; i) in
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits);
  Alcotest.(check (array int)) "results in index order" (Array.init n Fun.id) ids

let test_pool_map_results () =
  let pool = Kit.Pool.create ~domains:3 () in
  let squares = Kit.Pool.map pool ~n:50 (fun i -> i * i) in
  Alcotest.(check (array int)) "squares" (Array.init 50 (fun i -> i * i)) squares

let test_pool_sequential_degenerate () =
  let pool = Kit.Pool.create ~domains:1 () in
  let sum = ref 0 in
  ignore (Kit.Pool.map pool ~n:100 (fun i -> sum := !sum + i));
  Alcotest.(check int) "sequential sum" 4950 !sum;
  Alcotest.(check int) "no work, no results" 0
    (Array.length (Kit.Pool.map pool ~n:0 (fun _ -> Alcotest.fail "no work expected")))

let test_pool_propagates_exception () =
  let pool = Kit.Pool.create ~domains:4 () in
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore (Kit.Pool.map pool ~n:64 (fun i -> if i = 13 then failwith "boom")))

let test_pool_uneven_chunks () =
  (* n smaller than, equal to, and not divisible by the claim
     granularity: chunked claiming must still cover every index once. *)
  let pool = Kit.Pool.create ~domains:4 () in
  List.iter
    (fun n ->
      let hits = Array.make (max n 1) 0 in
      ignore (Kit.Pool.map pool ~n (fun i -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check int)
        (Printf.sprintf "n=%d covered exactly once" n)
        n
        (Array.fold_left ( + ) 0 hits))
    [ 1; 3; 7; 32; 33; 1001 ]

let test_pool_default_domains_override () =
  let initial = Kit.Pool.default_domain_count () in
  Alcotest.(check bool) "default is positive" true (initial >= 1);
  Kit.Pool.set_default_domains (Some 3);
  Alcotest.(check int) "override wins" 3 (Kit.Pool.default_domain_count ());
  (* At width 1 no helper is spawned: every index runs on the caller. *)
  Kit.Pool.set_default_domains (Some 1);
  let self = Domain.self () in
  Alcotest.(check bool) "create picks up override" true
    (Array.for_all (( = ) self) (Kit.Pool.map (Kit.Pool.create ()) ~n:64 (fun _ -> Domain.self ())));
  Kit.Pool.set_default_domains None;
  Alcotest.(check int) "override cleared" initial
    (Kit.Pool.default_domain_count ())

(* A malformed or non-positive FIBBING_DOMAINS is an error naming the
   variable, not a silent fallback. The variable cannot be unset again,
   so an unset one is restored to the width it stood for. *)
let test_pool_env_domains_rejected () =
  let initial = Kit.Pool.default_domain_count () in
  let restore =
    Option.value (Sys.getenv_opt "FIBBING_DOMAINS") ~default:(string_of_int initial)
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "FIBBING_DOMAINS" restore)
    (fun () ->
      List.iter
        (fun v ->
          Unix.putenv "FIBBING_DOMAINS" v;
          Alcotest.check_raises (Printf.sprintf "FIBBING_DOMAINS=%s" v)
            (Invalid_argument
               (Printf.sprintf "FIBBING_DOMAINS=%S: expected a positive integer" v))
            (fun () -> ignore (Kit.Pool.default_domain_count ())))
        [ "abc"; "0"; "-3"; "" ]);
  Alcotest.(check int) "restored" initial (Kit.Pool.default_domain_count ())

(* ---------- Stats ---------- *)

let test_stats_mean () =
  check_float "mean" 2.5 (Kit.Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "empty mean" 0. (Kit.Stats.mean [])

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "p50" 5. (Kit.Stats.percentile 50. xs);
  check_float "p100" 10. (Kit.Stats.percentile 100. xs);
  check_float "p10" 1. (Kit.Stats.percentile 10. xs)

let test_stats_percentile_empty () =
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Kit.Stats.percentile 50. []))

let test_stats_minmax () =
  (* The extreme nearest-rank percentiles are the sample's min and max. *)
  check_float "min" (-3.) (Kit.Stats.percentile 0. [ 2.; -3.; 7. ]);
  check_float "max" 7. (Kit.Stats.percentile 100. [ 2.; -3.; 7. ])

let test_stats_ewma () =
  check_float "alpha=1 takes sample" 10. (Kit.Stats.ewma ~alpha:1. 4. 10.);
  check_float "alpha=0 keeps previous" 4. (Kit.Stats.ewma ~alpha:0. 4. 10.);
  check_float "midpoint" 7. (Kit.Stats.ewma ~alpha:0.5 4. 10.)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.))
    (fun xs ->
      let m = Kit.Stats.mean xs in
      m >= List.fold_left min infinity xs -. 1e-9
      && m <= List.fold_left max neg_infinity xs +. 1e-9)

(* ---------- Ratio ---------- *)

let test_ratio_thirds () =
  let m = Kit.Ratio.approximate ~max_total:4 [| 1. /. 3.; 2. /. 3. |] in
  Alcotest.(check (array int)) "1:2" [| 1; 2 |] m

let test_ratio_even () =
  let m = Kit.Ratio.approximate ~max_total:16 [| 0.5; 0.5 |] in
  Alcotest.(check bool) "equal multiplicities" true (m.(0) = m.(1))

let test_ratio_realized_sums_to_one () =
  (* 3:5:2 realizes exactly 0.3/0.5/0.2: the shares are normalized. *)
  check_float "exact" 0. (Kit.Ratio.max_error [| 0.3; 0.5; 0.2 |] [| 3; 5; 2 |])

let test_ratio_wider_fib_is_finer () =
  let fractions = [| 0.36; 0.64 |] in
  let narrow = Kit.Ratio.approximate ~max_total:3 fractions in
  let wide = Kit.Ratio.approximate ~max_total:32 fractions in
  Alcotest.(check bool) "wider FIB at least as accurate" true
    (Kit.Ratio.max_error fractions wide
    <= Kit.Ratio.max_error fractions narrow +. 1e-12)

let test_ratio_rejects_bad_input () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Ratio.approximate: empty fractions") (fun () ->
      ignore (Kit.Ratio.approximate ~max_total:4 [||]));
  Alcotest.check_raises "too many hops"
    (Invalid_argument "Ratio.approximate: more next hops than max_total")
    (fun () -> ignore (Kit.Ratio.approximate ~max_total:2 [| 0.3; 0.3; 0.4 |]));
  Alcotest.check_raises "not normalized"
    (Invalid_argument "Ratio.approximate: fractions must sum to 1") (fun () ->
      ignore (Kit.Ratio.approximate ~max_total:4 [| 0.5; 0.2 |]))

let ratio_gen =
  (* Random normalized fraction vectors of length 2..6. *)
  QCheck.make
    ~print:(fun a -> String.concat ";" (List.map string_of_float (Array.to_list a)))
    QCheck.Gen.(
      int_range 2 6 >>= fun k ->
      list_repeat k (float_range 0.05 1.) >|= fun raw ->
      let total = List.fold_left ( +. ) 0. raw in
      Array.of_list (List.map (fun x -> x /. total) raw))

let prop_ratio_respects_bounds =
  QCheck.Test.make ~name:"ratio multiplicities within bounds" ~count:300
    ratio_gen (fun fractions ->
      let m = Kit.Ratio.approximate ~max_total:16 fractions in
      Array.length m = Array.length fractions
      && Array.for_all (fun x -> x >= 1) m
      && Array.fold_left ( + ) 0 m <= 16)

let prop_ratio_beats_uniform_error =
  QCheck.Test.make ~name:"ratio error bounded by quantum" ~count:300 ratio_gen
    (fun fractions ->
      let m = Kit.Ratio.approximate ~max_total:16 fractions in
      let total = Array.fold_left ( + ) 0 m in
      (* Largest-remainder with the best denominator keeps the error
         below one FIB quantum. *)
      Kit.Ratio.max_error fractions m <= 1. /. float_of_int total +. 1e-9)

(* ---------- Timeseries ---------- *)

let test_timeseries_basic () =
  let ts = Kit.Timeseries.create ~name:"x" in
  Kit.Timeseries.add ts ~time:0. 1.;
  Kit.Timeseries.add ts ~time:1. 2.;
  Kit.Timeseries.add ts ~time:2. 3.;
  Alcotest.(check int) "length" 3 (List.length (Kit.Timeseries.samples ts));
  Alcotest.(check (list string)) "step resampling"
    [ "time,x"; "0,1"; "0.5,1"; "1,2"; "1.5,2"; "2,3"; "" ]
    (String.split_on_char '\n' (Kit.Timeseries.to_csv ~step:0.5 [ ts ]))

let test_timeseries_monotonic () =
  let ts = Kit.Timeseries.create ~name:"x" in
  Kit.Timeseries.add ts ~time:5. 1.;
  Alcotest.check_raises "non-monotonic"
    (Invalid_argument "Timeseries.add: non-monotonic time") (fun () ->
      Kit.Timeseries.add ts ~time:4. 1.)

let test_timeseries_to_csv () =
  let a = Kit.Timeseries.create ~name:"x" in
  let b = Kit.Timeseries.create ~name:"y" in
  Kit.Timeseries.add a ~time:0. 1.;
  Kit.Timeseries.add a ~time:1. 2.;
  Kit.Timeseries.add b ~time:0. 5.;
  let csv = Kit.Timeseries.to_csv ~step:1. [ a; b ] in
  Alcotest.(check (list string)) "rows"
    [ "time,x,y"; "0,1,5"; "1,2,5"; "" ]
    (String.split_on_char '\n' csv)

(* ---------- Json ---------- *)

let prop_json_fuzz =
  Fuzz.total_and_round_trips ~name:"Json.parse is total and round-trips"
    ~parse:Kit.Json.parse ~print:Kit.Json.to_string
    [
      {|{"tag":"a","track":"t","alloc_words":1000,"wall_ms":5.25}|};
      {|[1,-2.5e3,0.1,true,false,null,"x\"\\\u00e9\n"]|};
      {|{"a":{"b":[{},[]]},"c":""}|};
      {|"\ud83d\ude00"|};
      "  -0.000123E+07 ";
    ]

(* A literal past the float range would parse to an infinity that
   [to_string] cannot print back as a number; it is an [Error]. *)
let test_json_number_out_of_range () =
  List.iter
    (fun s ->
      match Kit.Json.parse s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%S parsed to %s" s (Kit.Json.to_string v))
    [ "1e999"; "  -0.000123E+607 "; "[1,-1e400]" ];
  Alcotest.(check bool) "in range still parses" true
    (Kit.Json.parse "1e308" = Ok (Kit.Json.Num 1e308))

(* [Series.window_mean], which the scenario tests read Fig. 2 phases
   with, over a series' samples. *)
let test_timeseries_window_mean () =
  let ts = Kit.Timeseries.create ~name:"x" in
  List.iter (fun (t, v) -> Kit.Timeseries.add ts ~time:t v)
    [ (0., 1.); (1., 2.); (2., 3.); (3., 100.) ];
  check_float "window [0,3)" 2. (Series.window_mean ts ~from:0. ~until:3.);
  check_float "empty window" 0. (Series.window_mean ts ~from:10. ~until:20.)

(* ---------- Int_set ---------- *)

(* Random insert/mem sequences over a mix of wide ints, dense runs of
   consecutive ints from a random base (one 32-int block filling up,
   then the next), multiples of 32 (each a block's bit 0), negative ids
   and the edge values [min_int] and [max_int], which sit in the first
   and last block; after every operation and at the end, membership
   agrees with a [Hashtbl]. *)
let prop_int_set_matches_hashtbl =
  let edge = QCheck.oneofl [ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1; -32; 31; 32 ] in
  let run =
    QCheck.map
      (fun (base, len) -> List.init len (fun i -> base + i))
      QCheck.(pair (oneof [ int; int_range (-200) 200; edge ]) (int_range 0 100))
  in
  let single =
    QCheck.map (fun x -> [ x ])
      QCheck.(
        oneof
          [ int; int_range (-64) 64; map (fun k -> 32 * k) (int_range (-50) 50); map (fun k -> -k) (int_range 0 5000); edge ])
  in
  QCheck.Test.make ~name:"Int_set = Hashtbl on insert/mem sequences" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (pair bool (oneof [ single; run ])))
    (fun ops ->
      let set = Kit.Int_set.create () and tbl = Hashtbl.create 16 in
      List.for_all
        (fun (insert, xs) ->
          List.for_all
            (fun x ->
              if insert then begin
                Kit.Int_set.add set x;
                Hashtbl.replace tbl x ()
              end;
              Kit.Int_set.mem set x = Hashtbl.mem tbl x)
            xs)
        ops
      && Hashtbl.fold (fun x () ok -> ok && Kit.Int_set.mem set x) tbl true
      && List.for_all
           (fun x -> Kit.Int_set.mem set x = Hashtbl.mem tbl x)
           [ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1; 31; 32; -32; -33; 65; -65 ])

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "kit"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers_range;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek" `Quick test_heap_peek_does_not_remove;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "pop releases value" `Quick test_heap_pop_releases_value;
        ] );
      ( "heap-int",
        [
          Alcotest.test_case "ordering" `Quick test_int_heap_ordering;
          Alcotest.test_case "empty/clear" `Quick test_int_heap_empty_and_clear;
          Alcotest.test_case "duplicates" `Quick test_int_heap_duplicates;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map covers all" `Quick test_pool_map_covers_all;
          Alcotest.test_case "map results" `Quick test_pool_map_results;
          Alcotest.test_case "sequential degenerate" `Quick
            test_pool_sequential_degenerate;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "uneven chunk coverage" `Quick
            test_pool_uneven_chunks;
          Alcotest.test_case "default domains override" `Quick
            test_pool_default_domains_override;
          Alcotest.test_case "malformed FIBBING_DOMAINS rejected" `Quick
            test_pool_env_domains_rejected;
        ] );
      qsuite "heap-props"
        [
          prop_heap_sorts;
          prop_int_heap_sorts;
          prop_heap_matches_swap_heap;
          prop_int_heap_matches_swap_heap;
        ];
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile empty" `Quick test_stats_percentile_empty;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "ewma" `Quick test_stats_ewma;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds ];
      qsuite "int-set" [ prop_int_set_matches_hashtbl ];
      ( "ratio",
        [
          Alcotest.test_case "thirds" `Quick test_ratio_thirds;
          Alcotest.test_case "even" `Quick test_ratio_even;
          Alcotest.test_case "realized normalized" `Quick test_ratio_realized_sums_to_one;
          Alcotest.test_case "wider is finer" `Quick test_ratio_wider_fib_is_finer;
          Alcotest.test_case "bad input" `Quick test_ratio_rejects_bad_input;
        ] );
      qsuite "ratio-props" [ prop_ratio_respects_bounds; prop_ratio_beats_uniform_error ];
      ( "json",
        [ Alcotest.test_case "number out of range" `Quick test_json_number_out_of_range ] );
      qsuite "json-props" [ prop_json_fuzz ];
      ( "timeseries",
        [
          Alcotest.test_case "basic" `Quick test_timeseries_basic;
          Alcotest.test_case "monotonic" `Quick test_timeseries_monotonic;
          Alcotest.test_case "to_csv" `Quick test_timeseries_to_csv;
          Alcotest.test_case "window mean" `Quick test_timeseries_window_mean;
        ] );
    ]
