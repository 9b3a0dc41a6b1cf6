open Helpers
module F = Mineq.Fingerprint
module C = Mineq.Census
module Cx = Mineq.Counterexample
module L = Mineq.Link_spec

let fp = F.of_network

(* Pairwise classification: one constant-key bucket, so every network
   runs the Iso_min search against each class found so far. *)
let classify_pairwise tagged = C.classify_keyed ~key:(fun _ -> ()) tagged

let test_classical_one_fingerprint () =
  (* The six classical networks are pairwise isomorphic (the paper's
     point), so they must share one fingerprint at every n — and
     different n must not share it. *)
  let per_n =
    List.map
      (fun n ->
        let fps = List.map (fun (_, g) -> fp g) (all_classical ~n) in
        let first = List.hd fps in
        check_true
          (Printf.sprintf "classical inventory shares a fingerprint at n=%d" n)
          (List.for_all (F.equal first) fps);
        first)
      [ 2; 3; 4; 5; 6 ]
  in
  let rec distinct = function
    | [] -> true
    | x :: rest -> (not (List.exists (F.equal x) rest)) && distinct rest
  in
  check_true "fingerprints differ across n" (distinct per_n)

let test_discriminates () =
  (* Networks Iso_min refutes get different fingerprints in practice:
     the known counterexample families against the Baseline. *)
  let rng = rng_of 900 in
  let base = Mineq.Baseline.network 4 in
  match Cx.find_non_equivalent rng ~n:4 ~attempts:5000 ~require_buddy:true with
  | None -> Alcotest.fail "need a non-equivalent instance"
  | Some other ->
      check_false "non-equivalent banyan fingerprints apart" (F.equal (fp base) (fp other));
      check_true "matching verdict from the prefiltered decider"
        (not (Mineq.Equivalence.by_isomorphism other).Mineq.Equivalence.equivalent)

let test_scratch_reuse () =
  let g1 = Mineq.Classical.network Omega ~n:5 in
  let g2 = Mineq.Baseline.network 5 in
  let p1 = Mineq.Mi_digraph.packed g1 and p2 = Mineq.Mi_digraph.packed g2 in
  let scratch = F.scratch_for p1 in
  let a = F.of_packed ~scratch p1 in
  let b = F.of_packed ~scratch p2 in
  let a' = F.of_packed p1 and b' = F.of_packed p2 in
  check_true "scratch reuse does not change fingerprints" (F.equal a a' && F.equal b b');
  F.into scratch p2;
  check_true "into/result matches of_packed" (F.equal (F.result scratch) b');
  let p3 = Mineq.Mi_digraph.packed (Mineq.Classical.network Omega ~n:3) in
  Alcotest.check_raises "shape mismatch rejected"
    (Invalid_argument "Fingerprint.run: scratch was built for a different network shape")
    (fun () -> F.into scratch p3)

let test_hex_and_hash () =
  let a = fp (Mineq.Classical.network Omega ~n:4) in
  let b = fp (Mineq.Baseline.network 5) in
  check_int "hex is 32 chars" 32 (String.length (F.to_hex a));
  check_true "hash is non-negative" (F.hash a >= 0 && F.hash b >= 0);
  check_true "equal implies same hex/hash on self"
    (F.to_hex a = F.to_hex a && F.hash a = F.hash a);
  check_true "distinct fingerprints render distinct hex" (F.to_hex a <> F.to_hex b)

let test_colour_classes () =
  let g = Mineq.Classical.network Omega ~n:4 in
  let p = Mineq.Mi_digraph.packed g in
  let k = F.colour_classes p in
  (* Stages are always separated (seeded by stage index), so at least
     n classes; never more than the node count. *)
  check_true "colour classes within [stages, nodes]"
    (k >= 4 && k <= Mineq.Mi_digraph.total_nodes g)

let test_collision_corpus () =
  (* Deliberate near-miss corpus: small-n random-link networks are
     where WL fingerprints actually collide (distinct iso classes,
     one bucket).  The bucketed classify must still agree exactly
     with the pairwise baseline — the collision path falls back to
     Iso_min.  Scan seeds until a corpus with a real collision shows
     up, so the fallback is genuinely exercised. *)
  let rec corpus_with_collision seed =
    if seed > 40 then Alcotest.fail "no colliding corpus found in 40 seeds"
    else begin
      let rng = rng_of seed in
      let tagged = List.init 60 (fun i -> (L.random_network rng ~n:3, i)) in
      let buckets, classes = C.bucket_stats tagged in
      if classes > buckets then (tagged, classes - buckets) else corpus_with_collision (seed + 1)
    end
  in
  let tagged, collisions = corpus_with_collision 0 in
  check_true "corpus has a genuine fingerprint collision" (collisions > 0);
  let bucketed = C.classify tagged in
  let pairwise = classify_pairwise tagged in
  check_int "same class count through the collision path" (List.length pairwise)
    (List.length bucketed);
  List.iter2
    (fun (a : _ C.classified) (b : _ C.classified) ->
      check_true "same members in the same order" (a.C.members = b.C.members);
      check_true "representatives isomorphic"
        (Option.is_some (Mineq.Iso_min.find a.C.representative b.C.representative)))
    pairwise bucketed

let test_cross_class_collision () =
  (* The fingerprint is a sound negative, not a complete invariant:
     this non-Banyan buddy network shares its fingerprint with a
     Banyan one, so the two cannot be isomorphic yet hash alike.
     A cache keyed on the fingerprint would answer one for the other
     (see Mineq_engine.Memo). *)
  let buddy seed = Cx.random_buddy_network (Mineq_engine.Seeds.state seed) ~n:4 in
  let other = buddy 543963097 in
  check_false "buddy:543963097 is not Banyan" (Mineq.Banyan.is_banyan other);
  List.iter
    (fun seed ->
      let banyan = buddy seed in
      check_true (Printf.sprintf "buddy:%d is Banyan" seed) (Mineq.Banyan.is_banyan banyan);
      check_true
        (Printf.sprintf "yet it shares buddy:543963097's fingerprint (buddy:%d)" seed)
        (F.equal (fp banyan) (fp other)))
    [ 202; 271; 318 ]

let gen_kind_gen =
  QCheck.make
    ~print:(fun k -> k)
    QCheck.Gen.(oneofl [ "pipid"; "random"; "affine"; "banyan" ])

let network_of_kind rng ~n = function
  | "pipid" -> L.random_pipid_network rng ~n
  | "random" -> L.random_network rng ~n
  | "affine" ->
      Mineq.Mi_digraph.create
        (List.init (n - 1) (fun _ -> Mineq.Connection.random_independent rng ~width:(n - 1)))
  | _ -> ( match Cx.random_banyan rng ~n ~attempts:100 with Some g -> g | None -> L.random_pipid_network rng ~n)

let props =
  [ qcheck "soundness: isomorphic networks share a fingerprint (relabel)" ~count:60
      (QCheck.triple small_n_gen seed_gen gen_kind_gen)
      (fun (n, seed, kind) ->
        let n = max 2 n in
        let rng = rng_of seed in
        let g = network_of_kind rng ~n kind in
        let h = Cx.relabelled_equivalent rng g in
        F.equal (fp g) (fp h));
    qcheck "soundness: Iso_min-isomorphic pairs share a fingerprint" ~count:40
      (QCheck.pair seed_gen seed_gen)
      (fun (s1, s2) ->
        (* Independent draws from the small n=3 PIPID space collide
           into the same class often enough to exercise the
           isomorphic-pair direction without relabelling. *)
        let a = random_banyan_pipid (rng_of s1) ~n:3 in
        let b = random_banyan_pipid (rng_of s2) ~n:3 in
        match Mineq.Iso_min.find a b with
        | Some _ -> F.equal (fp a) (fp b)
        | None -> true);
    qcheck "fast negative: distinct fingerprints refute isomorphism" ~count:30
      (QCheck.pair seed_gen seed_gen)
      (fun (s1, s2) ->
        let a = L.random_network (rng_of s1) ~n:4 in
        let b = L.random_network (rng_of s2) ~n:4 in
        F.equal (fp a) (fp b) || Mineq.Iso_min.find a b = None);
    qcheck "classify agrees with classify_pairwise" ~count:15
      (QCheck.pair small_n_gen seed_gen)
      (fun (n, seed) ->
        let n = min 4 (max 2 n) in
        let rng = rng_of seed in
        let tagged =
          List.init 14 (fun i ->
              let g =
                if i mod 3 = 0 then L.random_pipid_network rng ~n else L.random_network rng ~n
              in
              (g, i))
        in
        let a = C.classify tagged and b = classify_pairwise tagged in
        List.length a = List.length b
        && List.for_all2 (fun (x : _ C.classified) y -> x.C.members = y.C.members) a b);
    qcheck "equivalence prefilter: by_isomorphism agrees with by_characterization" ~count:25
      (QCheck.pair seed_gen seed_gen)
      (fun (s1, s2) ->
        let n = 3 + (s2 mod 2) in
        let g = random_banyan_pipid (rng_of s1) ~n in
        let iso = (Mineq.Equivalence.by_isomorphism g).Mineq.Equivalence.equivalent in
        let chr = (Mineq.Equivalence.by_characterization g).Mineq.Equivalence.equivalent in
        iso = chr)
  ]

let suite =
  [ quick "classical inventory: one fingerprint per n" test_classical_one_fingerprint;
    quick "counterexamples fingerprint apart" test_discriminates;
    quick "scratch reuse and shape validation" test_scratch_reuse;
    quick "hex rendering and hashing" test_hex_and_hash;
    quick "colour class diagnostics" test_colour_classes;
    quick "collision corpus falls back to Iso_min" test_collision_corpus;
    quick "a Banyan and a non-Banyan network collide" test_cross_class_collision
  ]
  @ props
