(* Census bench artifact: canonical-fingerprint throughput and the
   bucketed-vs-pairwise census speedup, written to BENCH_census.json.

   Three self-gates, checked on exit:
   - the fingerprint refinement pass must allocate nothing after
     warmup ([fp_minor_w] exactly 0.0 on every row);
   - on the classical-inventory census rows at n >= 5 the
     fingerprint-bucketed classify must beat the pairwise Iso_min
     baseline by at least 5x (skipped under --smoke: one-rep timings
     are noise);
   - both classifications must report identical class structures —
     the bucketing is an optimization, not a different answer.

   Run with --smoke for a tiny-budget crash/format check.  All
   measurements here are serial (the stream row pins --jobs 1), so
   the artifact is never marked degraded: 1-core containers measure
   the same thing CI's multi-core runner does. *)

module Fp = Mineq.Fingerprint
module Census = Mineq.Census
module Cx = Mineq.Counterexample
module L = Mineq.Link_spec
module Memo = Mineq_engine.Memo
module Stream = Mineq_engine.Stream_census

let smoke = Bench_util.smoke_requested ()

(* Fingerprint throughput ------------------------------------------- *)

type fp_row = {
  f_n : int;
  f_nodes : int;
  f_us : float;
  f_minor_w : float;
}

let fp_row ~n ~reps =
  let g = Mineq.Classical.network Omega ~n in
  let p = Mineq.Mi_digraph.packed g in
  let scratch = Fp.scratch_for p in
  let op () = Fp.into scratch p in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  let minor_w = Bench_util.minor_words_per_op ~reps op in
  Printf.printf "fingerprint_n%-2d  %8.1f us/fp      %10.0f fps/s     minor %.1f w\n%!" n us
    (1e6 /. us) minor_w;
  { f_n = n; f_nodes = n * (1 lsl (n - 1)); f_us = us; f_minor_w = minor_w }

(* Bucketed vs pairwise census -------------------------------------- *)

(* The classical inventory plus the spec families the generators
   draw: relabelled classical copies (isomorphic, so pairwise pays an
   Iso_min *success* per copy), PIPID and buddy draws (a few classes
   each) and raw random-link networks (almost every one its own
   class, so pairwise pays a quadratic number of Iso_min
   *refutations* — the expensive outcome the fingerprint removes). *)
let inventory ~n ~relabels ~pipid ~randoms ~buddies =
  let rng = Random.State.make [| 0xce2505; n |] in
  let classical = List.map snd (Mineq.Classical.all_networks ~n) in
  let relabelled =
    List.concat_map
      (fun g -> List.init relabels (fun _ -> Cx.relabelled_equivalent rng g))
      classical
  in
  let pipids = List.init pipid (fun _ -> L.random_pipid_network rng ~n) in
  let randoms = List.init randoms (fun _ -> L.random_network rng ~n) in
  let buddies = List.init buddies (fun _ -> Cx.random_buddy_network rng ~n) in
  List.mapi (fun i g -> (g, i)) (classical @ relabelled @ pipids @ randoms @ buddies)

(* Fingerprints memoise on the network record, which would let the
   second classify ride on the first one's cache; rebuild fresh
   records (same conns arrays, new caches) so both sides pay their
   full cost. *)
let strip_caches tagged =
  List.map
    (fun (g, tag) -> (Mineq.Mi_digraph.create (Mineq.Mi_digraph.connections g), tag))
    tagged

type census_row = {
  k_n : int;
  k_items : int;
  k_classes : int;
  k_buckets : int;
  k_pair_ms : float;
  k_bucket_ms : float;
  k_agree : bool;
}

(* The pairwise baseline: one constant-key bucket, so each network
   runs Iso_min against every class found so far. *)
let census_row ~n ~relabels ~pipid ~randoms ~buddies =
  let tagged = inventory ~n ~relabels ~pipid ~randoms ~buddies in
  let pair_result, pair_ms =
    Bench_util.time_ms (fun () ->
        Census.classify_keyed ~key:(fun _ -> ()) (strip_caches tagged))
  in
  let bucket_result, bucket_ms =
    Bench_util.time_ms (fun () -> Census.classify (strip_caches tagged))
  in
  let agree =
    List.length pair_result = List.length bucket_result
    && List.for_all2
         (fun (a : _ Census.classified) (b : _ Census.classified) ->
           a.members = b.members
           && Option.is_some (Mineq.Iso_min.find a.representative b.representative))
         pair_result bucket_result
  in
  let buckets, classes = Census.bucket_stats tagged in
  Printf.printf
    "census_n%-2d       %4d items  %3d classes  %3d buckets  pairwise %8.1f ms  bucketed \
     %8.1f ms  %5.1fx\n%!"
    n (List.length tagged) classes buckets pair_ms bucket_ms (pair_ms /. bucket_ms);
  { k_n = n;
    k_items = List.length tagged;
    k_classes = classes;
    k_buckets = buckets;
    k_pair_ms = pair_ms;
    k_bucket_ms = bucket_ms;
    k_agree = agree
  }

(* Streaming census ------------------------------------------------- *)

type stream_row = {
  m_n : int;
  m_gen : string;
  m_specs : int;
  m_classes : int;
  m_buckets : int;
  m_ms : float;
}

let stream_row ~n ~specs ~generator =
  let specs = if smoke then min specs 64 else specs in
  let s = ref None in
  let _, ms =
    Bench_util.time_ms (fun () ->
        s := Some (Stream.run ~jobs:1 ~root:7 ~n ~specs ~generator))
  in
  let s = Option.get !s in
  Printf.printf "stream_%s_n%-2d %6d specs   %3d classes  %3d buckets  %8.1f ms  %8.0f \
                 specs/s\n%!"
    (Stream.generator_name generator)
    n specs
    (List.length s.Stream.classes)
    s.Stream.buckets ms
    (float_of_int specs /. ms *. 1e3);
  { m_n = n;
    m_gen = Stream.generator_name generator;
    m_specs = specs;
    m_classes = List.length s.Stream.classes;
    m_buckets = s.Stream.buckets;
    m_ms = ms
  }

(* Memo keyings ----------------------------------------------------- *)

type memo_row = {
  o_keying : string;
  o_probes : int;
  o_hits : int;
  o_misses : int;
}

(* The same Zipf-flavoured probe mix for both keyings: the classical
   networks plus relabelled copies, probed twice.  The structural key
   only hits on exact repeats; the fingerprint key identifies the
   whole isomorphism class, so every relabelled copy after the first
   classical probe hits too. *)
let memo_rows ~n =
  let rng = Random.State.make [| 0x3e30; n |] in
  let classical = List.map snd (Mineq.Classical.all_networks ~n) in
  let probes =
    classical
    @ List.concat_map (fun g -> List.init 3 (fun _ -> Cx.relabelled_equivalent rng g)) classical
  in
  let probes = probes @ probes in
  let row keying =
    let memo = Memo.create ~keying () in
    List.iter
      (fun g ->
        ignore (Memo.find_or_compute memo g Mineq.Equivalence.by_characterization))
      (strip_caches (List.map (fun g -> (g, ())) probes) |> List.map fst);
    let r =
      { o_keying = Memo.keying_name keying;
        o_probes = List.length probes;
        o_hits = Memo.hits memo;
        o_misses = Memo.misses memo
      }
    in
    Printf.printf "memo_%-12s %4d probes  %4d hits  %4d misses  hit rate %.2f\n%!" r.o_keying
      r.o_probes r.o_hits r.o_misses
      (float_of_int r.o_hits /. float_of_int (r.o_hits + r.o_misses));
    r
  in
  (* explicit lets: a list literal evaluates right to left, which
     would reverse the printed progress *)
  let structural = row Memo.Structural in
  let fingerprint = row Memo.Fingerprint in
  [ structural; fingerprint ]

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "census bench%s\n%!" (if smoke then " (smoke)" else "");
  let f4 = fp_row ~n:4 ~reps:20000 in
  let f5 = fp_row ~n:5 ~reps:8000 in
  let f6 = fp_row ~n:6 ~reps:2000 in
  let f7 = fp_row ~n:7 ~reps:400 in
  let f8 = fp_row ~n:8 ~reps:100 in
  let fps = [ f4; f5; f6; f7; f8 ] in
  let scale k = if smoke then max 1 (k / 8) else k in
  let c3 = census_row ~n:3 ~relabels:(scale 3) ~pipid:(scale 16) ~randoms:(scale 8) ~buddies:(scale 4) in
  let c4 = census_row ~n:4 ~relabels:(scale 3) ~pipid:(scale 16) ~randoms:(scale 8) ~buddies:(scale 4) in
  let c5 = census_row ~n:5 ~relabels:(scale 3) ~pipid:(scale 12) ~randoms:(scale 8) ~buddies:(scale 4) in
  let censuses = [ c3; c4; c5 ] in
  let s4 = stream_row ~n:4 ~specs:2000 ~generator:Stream.Pipid in
  let s5 = stream_row ~n:5 ~specs:500 ~generator:Stream.Pipid in
  let s4a = stream_row ~n:4 ~specs:1000 ~generator:Stream.Affine in
  let streams = [ s4; s5; s4a ] in
  let memos = memo_rows ~n:5 in
  let zero_alloc = List.for_all (fun r -> r.f_minor_w <= 0.0) fps in
  let agree = List.for_all (fun r -> r.k_agree) censuses in
  let min_speedup_n5 =
    List.fold_left
      (fun acc r -> if r.k_n >= 5 then min acc (r.k_pair_ms /. r.k_bucket_ms) else acc)
      infinity censuses
  in
  let speedup_ok = smoke || min_speedup_n5 >= 5.0 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()));
  (* Serial measurements throughout (the stream row pins jobs=1), so
     a 1-core container is never a degraded capture. *)
  Buffer.add_string buf "  \"degraded\": false,\n";
  Buffer.add_string buf "  \"fingerprint\": [\n";
  let last = List.length fps - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"nodes\": %d, \"us_per_fp\": %.2f, \"fps_per_sec\": %.0f, \
            \"fp_minor_w\": %.1f}%s\n"
           r.f_n r.f_nodes r.f_us (1e6 /. r.f_us) r.f_minor_w
           (if i = last then "" else ",")))
    fps;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"census\": [\n";
  let last = List.length censuses - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"items\": %d, \"classes\": %d, \"buckets\": %d, \
            \"collisions\": %d, \"collision_rate\": %.4f, \"pairwise_ms\": %.2f, \
            \"bucketed_ms\": %.2f, \"speedup\": %.2f, \"agree\": %b}%s\n"
           r.k_n r.k_items r.k_classes r.k_buckets (r.k_classes - r.k_buckets)
           (float_of_int (r.k_classes - r.k_buckets) /. float_of_int r.k_classes)
           r.k_pair_ms r.k_bucket_ms (r.k_pair_ms /. r.k_bucket_ms) r.k_agree
           (if i = last then "" else ",")))
    censuses;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"stream\": [\n";
  let last = List.length streams - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"generator\": %S, \"specs\": %d, \"classes\": %d, \"buckets\": \
            %d, \"ms\": %.1f, \"specs_per_sec\": %.0f}%s\n"
           r.m_n r.m_gen r.m_specs r.m_classes r.m_buckets r.m_ms
           (float_of_int r.m_specs /. r.m_ms *. 1e3)
           (if i = last then "" else ",")))
    streams;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"memo\": [\n";
  let last = List.length memos - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"keying\": %S, \"probes\": %d, \"hits\": %d, \"misses\": %d, \"hit_rate\": \
            %.4f}%s\n"
           r.o_keying r.o_probes r.o_hits r.o_misses
           (float_of_int r.o_hits /. float_of_int (r.o_hits + r.o_misses))
           (if i = last then "" else ",")))
    memos;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"gates\": {\"fp_zero_alloc\": %b, \"census_agree\": %b, \"min_speedup_n5plus\": \
        %s, \"speedup_ok\": %b}\n"
       zero_alloc agree
       (if min_speedup_n5 = infinity then "null" else Printf.sprintf "%.2f" min_speedup_n5)
       speedup_ok);
  Buffer.add_string buf "}\n";
  let path = Bench_util.output_path ~default:"BENCH_census.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if not agree then begin
    Printf.eprintf "FAIL: bucketed census disagrees with the pairwise baseline\n%!";
    exit 1
  end;
  if not zero_alloc then begin
    Printf.eprintf "FAIL: the fingerprint pass allocates (see fp_minor_w)\n%!";
    exit 1
  end;
  if not speedup_ok then begin
    Printf.eprintf "FAIL: bucketed census speedup %.2fx at n>=5 is below the 5x gate\n%!"
      min_speedup_n5;
    exit 1
  end
