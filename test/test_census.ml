open Helpers
module C = Mineq.Census

let test_classify_classical () =
  (* All six classical networks land in a single class. *)
  let tagged = List.map (fun (name, g) -> (g, name)) (all_classical ~n:3) in
  let classes = C.classify tagged in
  check_int "one class" 1 (List.length classes);
  let cls = List.hd classes in
  check_int "six members" 6 (List.length cls.C.members);
  check_true "it is the baseline class" (C.contains_baseline cls)

let test_classify_mixed () =
  let rng = rng_of 800 in
  let baselineish = Mineq.Classical.network Omega ~n:3 in
  match Mineq.Counterexample.find_non_equivalent rng ~n:3 ~attempts:5000 ~require_buddy:false with
  | None -> Alcotest.fail "need a non-equivalent instance"
  | Some other ->
      let classes =
        C.classify [ (baselineish, "omega"); (other, "other"); (baselineish, "omega2") ]
      in
      check_int "two classes" 2 (List.length classes);
      let with_baseline = List.filter C.contains_baseline classes in
      check_int "exactly one baseline class" 1 (List.length with_baseline);
      check_int "baseline class has both omegas" 2
        (List.length (List.hd with_baseline).C.members)

let test_class_count () =
  check_int "identical networks collapse" 1
    (C.class_count [ Mineq.Baseline.network 3; Mineq.Baseline.network 3 ]);
  check_int "empty input" 0 (C.class_count [])

let test_sample_census () =
  let rng = rng_of 801 in
  let classes = C.sample_banyan_census rng ~n:3 ~samples:40 ~attempts:300 in
  let total = List.fold_left (fun acc c -> acc + List.length c.C.members) 0 classes in
  check_true "samples were drawn" (total > 10);
  check_true "several classes exist at n=3" (List.length classes >= 2);
  check_int "at most one baseline class" 1
    (max 1 (List.length (List.filter C.contains_baseline classes)));
  (* Tags are the sample indices, all distinct. *)
  let tags = List.concat_map (fun c -> c.C.members) classes in
  check_int "tags unique" total (List.length (List.sort_uniq compare tags))

let props =
  [ qcheck "classification is stable under duplication" ~count:10
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let g = random_banyan_pipid (rng_of seed) ~n:3 in
        C.class_count [ g; g; g ] = 1);
    qcheck "relabelled copies share a class" ~count:10
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let rng = rng_of seed in
        let g = random_banyan_pipid rng ~n:3 in
        let h = Mineq.Counterexample.relabelled_equivalent rng g in
        C.class_count [ g; h ] = 1)
  ]

let suite =
  [ quick "classical networks form one class" test_classify_classical;
    quick "mixed classification" test_classify_mixed;
    quick "class count" test_class_count;
    quick "sampled census at n=3 (X15)" test_sample_census
  ]
  @ props
