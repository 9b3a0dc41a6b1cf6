open Helpers
module E = Mineq.Equivalence
module M = Mineq.Mi_digraph

let baseline = Mineq.Baseline.network

let test_method_inventory () =
  check_int "three methods" 3 (List.length E.all_methods);
  Alcotest.(check (list string)) "names"
    [ "independence"; "characterization"; "isomorphism" ]
    (List.map E.method_name E.all_methods)

let test_baseline_passes_everything () =
  for n = 2 to 5 do
    let g = baseline n in
    List.iter
      (fun m ->
        let v = E.decide m g in
        check_true (Printf.sprintf "baseline %d via %s" n (E.method_name m)) v.equivalent;
        check_true "banyan flag" v.banyan)
      E.all_methods
  done

let test_classical_survey () =
  (* The paper's main corollary: the six classical networks are all
     Baseline-equivalent (Wu-Feng's result, one decider call each). *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun m ->
          check_true (name ^ " via " ^ E.method_name m) (E.decide m g).equivalent)
        E.all_methods)
    (all_classical ~n:4)

let test_non_banyan_fails_all () =
  let n = 3 in
  let g =
    Mineq.Link_spec.network_of_thetas ~n
      [ Mineq_perm.Perm.identity n; Mineq_perm.Pipid_family.perfect_shuffle ~width:n ]
  in
  List.iter
    (fun m ->
      let v = E.decide m g in
      check_false ("degenerate via " ^ E.method_name m) v.equivalent)
    E.all_methods;
  let v = E.by_independence g in
  check_false "banyan flag is false" v.banyan;
  check_true "detail mentions Banyan"
    (String.length v.detail >= 10 && String.sub v.detail 0 10 = "not Banyan")

let test_independence_is_only_sufficient () =
  (* Relabelling destroys independence but not equivalence: the
     independence decider must answer false (with a caveat in the
     detail) while the complete deciders answer true. *)
  let rng = rng_of 60 in
  let g = Mineq.Counterexample.relabelled_equivalent rng (Mineq.Classical.network Omega ~n:4) in
  let vi = E.by_independence g in
  let vc = E.by_characterization g in
  let viso = E.by_isomorphism g in
  check_true "still banyan" vi.banyan;
  check_false "independence says no" vi.equivalent;
  check_true "characterization says yes" vc.equivalent;
  check_true "isomorphism says yes" viso.equivalent

let test_non_equivalent_banyan_detected () =
  (* A deterministic buddy-Banyan non-equivalent instance found by
     seeded search; all complete deciders must reject it. *)
  let rng = rng_of 7 in
  match Mineq.Counterexample.find_non_equivalent rng ~n:4 ~attempts:5000 ~require_buddy:true with
  | None -> Alcotest.fail "seeded search must find the known instance"
  | Some g ->
      check_true "banyan" (Mineq.Banyan.is_banyan g);
      check_true "buddy" (Mineq.Properties.has_buddy_property g);
      check_false "characterization rejects" (E.by_characterization g).equivalent;
      check_false "isomorphism rejects" (E.by_isomorphism g).equivalent;
      check_false "independence does not claim it" (E.by_independence g).equivalent

let test_detail_strings () =
  let v = E.by_characterization (baseline 3) in
  check_true "detail non-empty" (String.length v.detail > 0);
  let rng = rng_of 61 in
  match Mineq.Counterexample.find_non_equivalent rng ~n:3 ~attempts:5000 ~require_buddy:false with
  | None -> Alcotest.fail "search must find a non-equivalent banyan"
  | Some g ->
      let v = E.by_characterization g in
      check_true "failure names a P property"
        (String.length v.detail >= 2 && String.sub v.detail 0 2 = "P(")

let test_any_split_decider () =
  (* The reverse of Omega: stored splits are arbitrary, so the plain
     independence decider typically fails, while the split-insensitive
     variant must succeed (Proposition 1 guarantees independent
     decompositions exist). *)
  let g = M.reverse (Mineq.Classical.network Omega ~n:4) in
  let plain = E.by_independence g in
  let canonical = E.by_independence_any_split g in
  check_true "canonical split decider passes on the reverse" canonical.equivalent;
  (* Not asserting plain fails -- reverse_any may occasionally pick an
     independent split -- but when it does fail, canonical must still
     pass, which is the point. *)
  ignore plain;
  (* Relabelled networks admit no independent decomposition: both
     variants say no, the characterization says yes (X5 stands). *)
  let rng = rng_of 62 in
  let h = Mineq.Counterexample.relabelled_equivalent rng (Mineq.Classical.network Omega ~n:4) in
  check_false "any-split also fails on relabelled" (E.by_independence_any_split h).equivalent;
  check_true "characterization still proves it" (E.by_characterization h).equivalent

let test_equivalent_networks () =
  let omega = Mineq.Classical.network Omega ~n:3 in
  let flip = Mineq.Classical.network Flip ~n:3 in
  List.iter
    (fun m ->
      check_true
        ("omega ~ flip via " ^ E.method_name m)
        (E.equivalent_networks m omega flip))
    E.all_methods

let props =
  [ qcheck "Theorem 3 against ground truth on random PIPID Banyans" ~count:40 n_and_seed
      (fun (n, seed) ->
        let g = random_banyan_pipid (rng_of seed) ~n in
        let vi = (E.by_independence g).equivalent in
        let vc = (E.by_characterization g).equivalent in
        vi && vc
        && if n <= 4 then (E.by_isomorphism g).equivalent else true);
    qcheck "deciders agree on non-Banyan networks" ~count:40 n_and_seed (fun (n, seed) ->
        let g = Mineq.Link_spec.random_network (rng_of seed) ~n in
        if Mineq.Banyan.is_banyan g then true
        else
          (not (E.by_independence g).equivalent)
          && not (E.by_characterization g).equivalent);
    qcheck "characterization = isomorphism on arbitrary Banyans (small n)" ~count:30
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 4) (int_bound 100000)))
      (fun (n, seed) ->
        match Mineq.Counterexample.random_banyan (rng_of seed) ~n ~attempts:500 with
        | None -> true
        | Some g ->
            (E.by_characterization g).equivalent = (E.by_isomorphism g).equivalent);
    qcheck "isomorphism decider answers non-Banyan networks without a fingerprint" ~count:40
      n_and_seed (fun (n, seed) ->
        let g = Mineq.Link_spec.random_network (rng_of seed) ~n in
        Mineq.Banyan.is_banyan g
        || E.by_isomorphism g = E.by_characterization g
           && Option.is_none (M.fingerprint_cache g));
    qcheck "equivalence invariant under reversal" ~count:30 n_and_seed (fun (n, seed) ->
        let g = random_banyan_pipid (rng_of seed) ~n in
        (E.by_characterization (M.reverse g)).equivalent)
  ]

let suite =
  [ quick "method inventory" test_method_inventory;
    quick "baseline passes everything" test_baseline_passes_everything;
    quick "classical survey (main corollary)" test_classical_survey;
    quick "non-Banyan fails all" test_non_banyan_fails_all;
    quick "independence is only sufficient (X5)" test_independence_is_only_sufficient;
    quick "non-equivalent Banyan detected (X2)" test_non_equivalent_banyan_detected;
    quick "detail strings" test_detail_strings;
    quick "split-insensitive decider" test_any_split_decider;
    quick "equivalent_networks" test_equivalent_networks
  ]
  @ props
