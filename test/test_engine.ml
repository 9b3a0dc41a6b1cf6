(* The mineq_engine subsystem: worker pool semantics, deterministic
   seed splitting, memo cache coherence, and the headline batch
   guarantee — results bit-identical across jobs counts and (for
   classify) to the sequential oracle. *)

open Helpers
module Pool = Mineq_engine.Pool
module Seeds = Mineq_engine.Seeds
module Memo = Mineq_engine.Memo
module Batch = Mineq_engine.Batch

(* pool ----------------------------------------------------------------

   Parallel pool tests pass ~clamp:false so real worker domains spawn
   even on a single-core host (the default clamp would silently turn
   them into sequential runs there). *)

let test_map_order () =
  List.iter
    (fun jobs ->
      let got =
        Pool.run ~clamp:false ~jobs (fun p ->
            Pool.map_list p (fun x -> x * x) (List.init 50 Fun.id))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "squares in order at jobs=%d" jobs)
        (List.init 50 (fun x -> x * x))
        got)
    [ 1; 2; 4 ]

let test_map_chunked () =
  List.iter
    (fun chunk ->
      let got =
        Pool.run ~clamp:false ~jobs:3 (fun p ->
            Pool.map_list ~chunk p (fun x -> x + 1) (List.init 23 Fun.id))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "chunk=%d preserves order" chunk)
        (List.init 23 (fun x -> x + 1))
        got)
    [ 1; 4; 7; 100 ]

let test_map_array () =
  Pool.run ~clamp:false ~jobs:4 (fun p ->
      Alcotest.(check (array int))
        "map_array preserves slots"
        (Array.init 100 (fun i -> 2 * i))
        (Pool.map_array p (fun x -> 2 * x) (Array.init 100 Fun.id));
      Alcotest.(check (array int)) "empty array" [||] (Pool.map_array p (fun x -> x) [||]);
      Alcotest.(check (array int))
        "singleton array" [| 9 |]
        (Pool.map_array p (fun x -> x * x) [| 3 |]))

let test_exception_propagation () =
  (* The surfaced exception must be the lowest-index failure — the one
     a sequential run hits first — at every jobs value and chunking. *)
  List.iter
    (fun jobs ->
      match
        Pool.run ~clamp:false ~jobs (fun p ->
            Pool.map_list ~chunk:2 p
              (fun x -> if x >= 3 then failwith (Printf.sprintf "task-boom-%d" x) else x)
              (List.init 24 Fun.id))
      with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "earliest exception surfaces at jobs=%d" jobs)
            "task-boom-3" msg)
    [ 1; 4 ]

let test_uneven_load_stealing () =
  (* Work concentrated in a few heavy items: stealing must rebalance
     without perturbing slot order. *)
  let spin x =
    let rounds = if x mod 16 = 0 then 20_000 else 10 in
    let acc = ref x in
    for i = 1 to rounds do
      acc := (!acc * 31) + i
    done;
    !acc
  in
  let xs = Array.init 256 Fun.id in
  let expected = Array.map spin xs in
  Pool.run ~clamp:false ~jobs:4 (fun p ->
      Alcotest.(check (array int))
        "uneven load keeps slots" expected
        (Pool.map_array p spin xs))

let test_jobs_validation () =
  (match Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument for jobs=0"
  | exception Invalid_argument _ -> ());
  (match Pool.create ~jobs:(-3) () with
  | _ -> Alcotest.fail "expected Invalid_argument for negative jobs"
  | exception Invalid_argument _ -> ());
  let p = Pool.create ~jobs:64 () in
  check_true "default clamps to recommended width" (Pool.jobs p <= Pool.default_jobs ());
  Pool.shutdown p;
  let q = Pool.create ~clamp:false ~jobs:3 () in
  check_int "clamp:false keeps the requested width" 3 (Pool.jobs q);
  Pool.shutdown q

let test_map_after_shutdown () =
  List.iter
    (fun jobs ->
      let p = Pool.create ~clamp:false ~jobs () in
      Pool.shutdown p;
      match Pool.map_list p (fun x -> x) [ 1; 2 ] with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ 1; 2 ]

let pool_suite =
  [ quick "map_list preserves order" test_map_order;
    quick "chunked map_list preserves order" test_map_chunked;
    quick "map_array primitive" test_map_array;
    quick "earliest exception re-raises in the submitter" test_exception_propagation;
    quick "stealing rebalances uneven loads" test_uneven_load_stealing;
    quick "jobs rejected below 1, clamped above cores" test_jobs_validation;
    quick "map after shutdown rejected" test_map_after_shutdown
  ]

(* seeds --------------------------------------------------------------- *)

let draws rng = List.init 8 (fun _ -> Random.State.bits rng)

let test_derive_deterministic () =
  Alcotest.(check (list int))
    "same (root, index) gives the same stream"
    (draws (Seeds.derive ~root:42 7))
    (draws (Seeds.derive ~root:42 7))

let test_derive_distinct () =
  let streams = List.init 20 (fun i -> draws (Seeds.derive ~root:42 i)) in
  check_int "20 indices give 20 distinct streams" 20
    (List.length (List.sort_uniq compare streams))

let test_fold_mixes () =
  let roots = List.init 20 (fun label -> Seeds.fold 42 label) in
  check_int "20 labels give 20 distinct roots" 20
    (List.length (List.sort_uniq compare roots));
  List.iter (fun r -> check_true "folded roots stay non-negative" (r >= 0)) roots

let seeds_suite =
  [ quick "derivation is deterministic" test_derive_deterministic;
    quick "indices decorrelate" test_derive_distinct;
    quick "fold separates stream families" test_fold_mixes
  ]

(* memo ---------------------------------------------------------------- *)

let test_memo_verdicts () =
  let m = Memo.create () in
  let g = Mineq.Classical.network Omega ~n:4 in
  let fresh = Mineq.Equivalence.by_characterization g in
  let v1 = Memo.find_or_compute m g Mineq.Equivalence.by_characterization in
  let v2 = Memo.find_or_compute m g Mineq.Equivalence.by_characterization in
  check_bool "cached verdict equals fresh" true (v1 = fresh && v2 = fresh);
  check_int "one miss" 1 (Memo.misses m);
  check_int "one hit" 1 (Memo.hits m);
  check_int "one entry" 1 (Memo.size m);
  (* A structurally different network gets its own entry. *)
  let h = Mineq.Baseline.network 4 in
  ignore (Memo.find_or_compute m h Mineq.Equivalence.by_characterization);
  check_int "two entries" 2 (Memo.size m);
  Memo.reset m;
  check_int "reset clears entries" 0 (Memo.size m);
  check_int "reset clears hits" 0 (Memo.hits m)

let test_memo_key_structural () =
  (* Two independently built copies share hash and equality, so they
     share a cache entry. *)
  let a = Mineq.Baseline.network 4 and b = Mineq.Baseline.network 4 in
  check_true "independent builds are structurally equal" (Memo.structural_equal a b);
  check_int "and hash alike" (Memo.structural_hash a) (Memo.structural_hash b);
  (* The (f, g) split is each cell's port assignment.  Swapping it
     keeps the digraph but not the network: swapped at one cell, Omega
     is no longer a destination-tag (delta) network, so a cached
     blocking survey would be wrong for it.  The key must see the
     swap. *)
  let swapped =
    Mineq.Mi_digraph.map_gaps a (fun i c -> if i = 1 then Mineq.Connection.swap c else c)
  in
  check_true "a whole-gap swap keeps the digraph" (Mineq.Mi_digraph.equal a swapped);
  check_false "but is a different key" (Memo.structural_equal a swapped);
  let omega = Mineq.Classical.network Omega ~n:4 in
  let one_cell = swap_ports omega ~gap:2 ~cell:0 in
  check_true "a one-cell swap keeps the digraph" (Mineq.Mi_digraph.equal omega one_cell);
  check_true "omega routes by destination tag"
    (Option.is_some (Mineq_route.Bit_follow.of_network omega));
  check_true "the one-cell swap does not"
    (Option.is_none (Mineq_route.Bit_follow.of_network one_cell));
  check_false "so the key separates them" (Memo.structural_equal omega one_cell)

let memo_key_props =
  (* Agreement with digraph equality: equal builds key equally,
     different stage counts never do. *)
  let net seed ~n = Mineq.Link_spec.random_network (Seeds.derive ~root:seed 0) ~n in
  [ qcheck "structural key agrees with the digraph equality" ~count:40 seed_gen (fun seed ->
        let a = net seed ~n:3 in
        let again = net seed ~n:3 in
        let other = net seed ~n:4 in
        (* equal pair: same build, equal digraphs, equal keys *)
        Mineq.Mi_digraph.equal a again
        && Memo.structural_equal a again
        && Memo.structural_hash a = Memo.structural_hash again
        (* unequal pair (different stage counts): separated *)
        && (not (Mineq.Mi_digraph.equal a other))
        && not (Memo.structural_equal a other));
    qcheck "classical networks key distinctly" ~count:8
      QCheck.(make ~print:string_of_int Gen.(int_range 3 5))
      (fun n ->
        let nets = List.map snd (all_classical ~n) in
        let rec pairs = function
          | [] -> true
          | g :: rest ->
              List.for_all
                (fun h ->
                  Mineq.Mi_digraph.equal g h = Memo.structural_equal g h
                  && ((not (Memo.structural_equal g h))
                     || Memo.structural_hash g = Memo.structural_hash h))
                rest
              && pairs rest
        in
        pairs nets)
  ]

let test_memo_parallel () =
  let m = Memo.create () in
  let nets = all_classical ~n:4 in
  let table = Batch.pairwise ~jobs:4 ~memo:m nets in
  check_int "full table" 36 (List.length table);
  check_true "every cell equivalent" (List.for_all (fun (_, _, e) -> e) table);
  check_int "six distinct networks computed once each" 6 (Memo.misses m);
  check_true "the other 66 probes hit" (Memo.hits m = 66)

let test_memo_fingerprint_keying () =
  (* The fingerprint keying identifies the whole isomorphism class:
     the six classical networks at a given n are pairwise isomorphic,
     so one miss computes for all of them, where the structural
     keying misses once per network. *)
  let nets = List.map snd (all_classical ~n:4) in
  let mf = Memo.create ~keying:Memo.Fingerprint () in
  List.iter
    (fun g -> ignore (Memo.find_or_compute mf g Mineq.Equivalence.by_characterization))
    nets;
  check_int "one miss for the whole class" 1 (Memo.misses mf);
  check_int "the other five probes hit" 5 (Memo.hits mf);
  check_int "one stored entry" 1 (Memo.size mf);
  check_bool "keying is reported" true (Memo.keying mf = Memo.Fingerprint);
  check_bool "default keying is structural" true (Memo.keying (Memo.create ()) = Memo.Structural)

let memo_keying_props =
  [ qcheck "keyings agree on iso-invariant verdicts" ~count:15 seed_gen (fun seed ->
        (* The same probe mix — random draws plus a relabelled copy of
           each — through both keyings: every returned verdict must be
           identical (by_characterization is iso-invariant), and the
           fingerprint keying must hit at least as often (its key
           identifies strictly coarser classes). *)
        let rng = rng_of seed in
        let draws = List.init 6 (fun _ -> Mineq.Link_spec.random_pipid_network rng ~n:3) in
        let probes =
          draws @ List.map (fun g -> Mineq.Counterexample.relabelled_equivalent rng g) draws
        in
        let run keying =
          let m = Memo.create ~keying () in
          let vs =
            List.map
              (fun g -> Memo.find_or_compute m g Mineq.Equivalence.by_characterization)
              probes
          in
          (vs, Memo.hits m)
        in
        let vs_s, hits_s = run Memo.Structural in
        let vs_f, hits_f = run Memo.Fingerprint in
        List.for_all2
          (fun (a : Mineq.Equivalence.verdict) b ->
            a.Mineq.Equivalence.equivalent = b.Mineq.Equivalence.equivalent
            && a.Mineq.Equivalence.banyan = b.Mineq.Equivalence.banyan)
          vs_s vs_f
        && hits_f >= hits_s)
  ]

let memo_export_props =
  [ qcheck "export/fold/import agree with the shard counters" ~count:20 seed_gen
      (fun seed ->
        (* Warm a cache of either keying, then check the consistent
           cut: export length and fold count equal the per-shard size
           sum, a fresh same-keying cache adopts every entry (and then
           serves them without recomputation), re-import is a no-op
           (resident entries win), and a mismatched keying adopts
           nothing. *)
        let rng = rng_of seed in
        let keying = if seed land 1 = 0 then Memo.Structural else Memo.Fingerprint in
        let other =
          match keying with
          | Memo.Structural -> Memo.Fingerprint
          | Memo.Fingerprint -> Memo.Structural
        in
        let m = Memo.create ~keying () in
        let nets = List.init 8 (fun _ -> Mineq.Link_spec.random_pipid_network rng ~n:3) in
        List.iter
          (fun g -> ignore (Memo.find_or_compute m g Mineq.Equivalence.by_characterization))
          nets;
        let entries = Memo.export m in
        let folded = Memo.fold (fun acc _ -> acc + 1) 0 m in
        let fresh = Memo.create ~keying () in
        let adopted = Memo.import fresh entries in
        let reprobed =
          List.for_all
            (fun g ->
              let direct = Mineq.Equivalence.by_characterization g in
              let cached =
                Memo.find_or_compute fresh g (fun _ -> Alcotest.fail "recomputed")
              in
              cached.Mineq.Equivalence.equivalent = direct.Mineq.Equivalence.equivalent
              && cached.Mineq.Equivalence.banyan = direct.Mineq.Equivalence.banyan)
            nets
        in
        Array.length entries = Memo.size m
        && folded = Memo.size m
        && adopted = Memo.size m
        && Memo.size fresh = Memo.size m
        && reprobed
        && Memo.import fresh entries = 0
        && Memo.import (Memo.create ~keying:other ()) entries = 0)
  ]

let memo_hash_cache_props =
  [ qcheck "cached structural hash equals a fresh equal build's" ~count:40 seed_gen
      (fun seed ->
        (* The first call fills the record's slot and later calls read
           it; a second build from the same seed, and a Marshal copy
           (how snapshot keys arrive), must hash the same. *)
        let build () = Mineq.Link_spec.random_network (rng_of seed) ~n:(3 + (seed mod 3)) in
        let g = build () in
        let h = Memo.structural_hash g in
        let fresh = build () in
        let copy : Mineq.Mi_digraph.t = Marshal.from_string (Marshal.to_string g []) 0 in
        Mineq.Mi_digraph.structural_hash_cache g = Some h
        && Memo.structural_hash g = h
        && Option.is_none (Mineq.Mi_digraph.structural_hash_cache fresh)
        && Memo.structural_hash fresh = h
        && Memo.structural_hash copy = h
        && Memo.structural_equal g g
        && Memo.structural_equal g fresh)
  ]

let test_memo_rebind () =
  (* An imported key is a different record from the one later probes
     use; the first hit rebinds the entry to the probing record, so
     the table holds what its callers hold. *)
  let m = Memo.create () in
  let first = Mineq.Baseline.network 4 in
  ignore (Memo.find_or_compute m first Mineq.Equivalence.by_characterization);
  let fresh = Memo.create () in
  check_int "one entry adopted" 1 (Memo.import fresh (Memo.export m));
  let prober = Mineq.Baseline.network 4 in
  ignore (Memo.find_or_compute fresh prober (fun _ -> Alcotest.fail "recomputed"));
  ignore (Memo.find_or_compute fresh prober (fun _ -> Alcotest.fail "recomputed"));
  check_int "both probes hit" 2 (Memo.hits fresh);
  check_true "the stored key is now the probing record"
    (match Memo.export fresh with [| Memo.Skey (k, _) |] -> k == prober | _ -> false)

let test_memo_raising_compute () =
  (* A raising computation leaves no entry behind (in particular no
     marker a later probe would wait on): the next probe computes. *)
  let m = Memo.create () in
  let g = Mineq.Baseline.network 3 in
  (match Memo.find_or_compute m g (fun _ -> failwith "kernel") with
  | _ -> Alcotest.fail "the exception was swallowed"
  | exception Failure _ -> ());
  check_int "nothing stored" 0 (Memo.size m);
  check_true "the next probe computes"
    (Memo.find_or_compute m g Mineq.Equivalence.by_characterization).Mineq.Equivalence.equivalent;
  check_int "two misses, one entry" 2 (Memo.misses m);
  check_int "one entry" 1 (Memo.size m)

let memo_suite =
  [ quick "verdict caching" test_memo_verdicts;
    quick "a raising computation stores nothing" test_memo_raising_compute;
    quick "structural keys" test_memo_key_structural;
    quick "a hit rebinds the stored key" test_memo_rebind;
    quick "shared across parallel workers" test_memo_parallel;
    quick "fingerprint keying collapses iso classes" test_memo_fingerprint_keying
  ]
  @ memo_key_props @ memo_hash_cache_props @ memo_keying_props @ memo_export_props

(* batch --------------------------------------------------------------- *)

let classified_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.Mineq.Census.members = y.Mineq.Census.members
         && Mineq.Mi_digraph.equal x.Mineq.Census.representative
              y.Mineq.Census.representative)
       a b

let random_tagged_networks seed =
  (* A mix of Banyans, classical networks and duplicates, tagged by
     position — enough class structure to exercise the grouping. *)
  let rng = rng_of seed in
  let nets =
    List.filter_map Fun.id
      (List.init 14 (fun _ -> Mineq.Counterexample.random_banyan rng ~n:3 ~attempts:200))
    @ [ Mineq.Classical.network Omega ~n:3; Mineq.Baseline.network 3 ]
  in
  List.mapi (fun i g -> (g, i)) nets

let test_survey_matches_serial () =
  Alcotest.(check bool)
    "survey rows identical at jobs 1 vs 4" true
    (Batch.survey ~jobs:1 ~n:4 = Batch.survey ~jobs:4 ~n:4)

let batch_props =
  [ qcheck "classify matches the sequential Census oracle" ~count:6 seed_gen (fun seed ->
        let tagged = random_tagged_networks seed in
        classified_equal (Mineq.Census.classify tagged) (Batch.classify ~jobs:4 tagged));
    qcheck "sample_census is jobs-invariant" ~count:4 seed_gen (fun seed ->
        let census jobs = Batch.sample_census ~jobs ~root:seed ~n:3 ~samples:25 ~attempts:200 in
        classified_equal (census 1) (census 4)
        && List.for_all2
             (fun a b -> a.Mineq.Census.members = b.Mineq.Census.members)
             (census 1) (census 2));
    qcheck "census and sweep are stealing-invariant on real domains" ~count:3 seed_gen
      (fun seed ->
        (* The ~jobs wrappers clamp to the recommended width, which on
           a single-core host means no domains at all — so drive the
           _in variants through an unclamped 4-domain pool to pin the
           bit-identical guarantee under actual stealing anywhere. *)
        let census_seq = Batch.sample_census ~jobs:1 ~root:seed ~n:3 ~samples:25 ~attempts:200 in
        let c = Mineq.Cascade.of_mi_digraph (Mineq.Baseline.network 4) in
        let sweep_seq = Batch.fault_survival ~jobs:1 ~root:seed c ~faults:[ 1; 2 ] ~samples:120 in
        Pool.run ~clamp:false ~jobs:4 (fun pool ->
            classified_equal census_seq
              (Batch.sample_census_in pool ~root:seed ~n:3 ~samples:25 ~attempts:200)
            && sweep_seq
               = Batch.fault_survival_in pool ~root:seed c ~faults:[ 1; 2 ] ~samples:120));
    qcheck "fault survival is jobs-invariant" ~count:4 seed_gen (fun seed ->
        let c = Mineq.Cascade.of_mi_digraph (Mineq.Baseline.network 4) in
        let sweep jobs =
          Batch.fault_survival ~jobs ~root:seed c ~faults:[ 0; 1; 2; 4 ] ~samples:150
        in
        sweep 1 = sweep 2 && sweep 1 = sweep 4);
    qcheck "simulator replications are jobs-invariant" ~count:4 seed_gen (fun seed ->
        let g = Mineq.Classical.network Omega ~n:4 in
        let runs jobs = Batch.simulate_runs ~jobs ~root:seed ~replications:5 g in
        runs 1 = runs 4);
    qcheck "replicate summarizes identically across jobs" ~count:4 seed_gen (fun seed ->
        let g = Mineq.Classical.network Omega ~n:4 in
        let metric rng =
          Mineq_sim.Network_sim.throughput (Mineq_sim.Network_sim.run rng g)
        in
        let summary jobs = Batch.replicate ~jobs ~root:seed ~replications:5 metric in
        Mineq_sim.Summary.mean (summary 1) = Mineq_sim.Summary.mean (summary 4)
        && Mineq_sim.Summary.stddev (summary 1) = Mineq_sim.Summary.stddev (summary 4))
  ;
    qcheck "tally is jobs-invariant" ~count:6 seed_gen (fun seed ->
        (* each task throws 40 seeded darts at 8 bins; totals must not
           depend on the worker count *)
        let body rng bins =
          for _ = 1 to 40 do
            let k = Random.State.int rng (Array.length bins) in
            bins.(k) <- bins.(k) + 1
          done
        in
        let run jobs = Batch.tally ~jobs ~root:seed ~tasks:7 ~bins:8 body in
        let a = run 1 in
        a = run 3
        && a = run 4
        && Array.fold_left ( + ) 0 a = 7 * 40)
  ]

let batch_suite = quick "survey parallel = survey serial" test_survey_matches_serial :: batch_props

(* stream census ------------------------------------------------------- *)

module Stream = Mineq_engine.Stream_census

let summary_equal (a : Stream.summary) (b : Stream.summary) =
  a.Stream.specs = b.Stream.specs
  && a.Stream.buckets = b.Stream.buckets
  && a.Stream.collisions = b.Stream.collisions
  && List.length a.Stream.classes = List.length b.Stream.classes
  && List.for_all2
       (fun (x : Stream.class_row) (y : Stream.class_row) ->
         x.Stream.first_index = y.Stream.first_index
         && x.Stream.count = y.Stream.count
         && x.Stream.baseline = y.Stream.baseline
         && Option.is_some (Mineq.Iso_min.find x.Stream.representative y.Stream.representative))
       a.Stream.classes b.Stream.classes

let test_stream_generators () =
  List.iter
    (fun gen ->
      let s = Stream.run ~jobs:1 ~root:11 ~n:3 ~specs:120 ~generator:gen in
      let counted =
        List.fold_left (fun acc (c : Stream.class_row) -> acc + c.Stream.count) 0
          s.Stream.classes
      in
      check_int
        (Printf.sprintf "every %s spec lands in a class" (Stream.generator_name gen))
        s.Stream.specs counted;
      check_true "buckets never exceed classes"
        (s.Stream.buckets <= List.length s.Stream.classes);
      check_int "collisions are the bucket deficit"
        (List.length s.Stream.classes - s.Stream.buckets)
        s.Stream.collisions;
      (* first_index strictly increases: first-appearance order. *)
      let rec increasing = function
        | (a : Stream.class_row) :: (b : Stream.class_row) :: rest ->
            a.Stream.first_index < b.Stream.first_index && increasing (b :: rest)
        | _ -> true
      in
      check_true "classes in first-appearance order" (increasing s.Stream.classes))
    Stream.all_generators

let test_stream_affine_baseline () =
  (* Affine (independent-connection) Banyans are the paper's Theorem 3
     territory: the Baseline class must show up in a modest stream. *)
  let s = Stream.run ~jobs:1 ~root:3 ~n:3 ~specs:60 ~generator:Stream.Affine in
  check_true "baseline class present in an affine stream"
    (List.exists (fun (c : Stream.class_row) -> c.Stream.baseline) s.Stream.classes)

let test_stream_generator_names () =
  List.iter
    (fun gen ->
      check_bool
        (Printf.sprintf "generator name %S round-trips" (Stream.generator_name gen))
        true
        (Stream.generator_of_string (Stream.generator_name gen) = Some gen))
    Stream.all_generators;
  check_bool "unknown generator rejected" true (Stream.generator_of_string "oops" = None)

let stream_props =
  [ qcheck "stream census is jobs-invariant" ~count:5 seed_gen (fun seed ->
        let run jobs = Stream.run ~jobs ~root:seed ~n:3 ~specs:150 ~generator:Stream.Pipid in
        summary_equal (run 1) (run 2) && summary_equal (run 1) (run 4));
    qcheck "stream census is stealing-invariant on real domains" ~count:3 seed_gen
      (fun seed ->
        let serial = Stream.run ~jobs:1 ~root:seed ~n:3 ~specs:150 ~generator:Stream.Random_links in
        Pool.run ~clamp:false ~jobs:4 (fun pool ->
            summary_equal serial
              (Stream.run_in pool ~root:seed ~n:3 ~specs:150 ~generator:Stream.Random_links)));
    qcheck "stream agrees with the serial bucketed classify" ~count:4 seed_gen (fun seed ->
        (* Regenerate the identical spec stream and classify it through
           Census.classify: class count and member counts must match. *)
        let specs = 80 in
        let tagged =
          List.init specs (fun i ->
              (Mineq.Link_spec.random_pipid_network (Seeds.derive ~root:seed i) ~n:3, i))
        in
        let serial = Mineq.Census.classify tagged in
        let s = Stream.run ~jobs:1 ~root:seed ~n:3 ~specs ~generator:Stream.Pipid in
        List.length serial = List.length s.Stream.classes
        && List.for_all2
             (fun (c : _ Mineq.Census.classified) (r : Stream.class_row) ->
               List.length c.Mineq.Census.members = r.Stream.count
               && List.hd c.Mineq.Census.members = r.Stream.first_index)
             serial s.Stream.classes)
  ]

let stream_suite =
  [ quick "generators stream and count consistently" test_stream_generators;
    quick "affine stream finds the baseline class" test_stream_affine_baseline;
    quick "generator names round-trip" test_stream_generator_names
  ]
  @ stream_props
