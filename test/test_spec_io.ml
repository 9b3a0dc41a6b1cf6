open Helpers
module S = Mineq.Spec_io
module M = Mineq.Mi_digraph

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_round_trip_classical () =
  List.iter
    (fun (name, g) ->
      let text = S.to_string g in
      check_true (name ^ " serialized as PIPID") (contains ~needle:"gap theta" text);
      match S.of_string text with
      | Ok h -> check_true (name ^ " round trips") (M.equal g h)
      | Error e -> Alcotest.fail (name ^ ": " ^ S.error_to_string e))
    (all_classical ~n:4)

let test_round_trip_raw () =
  (* A relabelled network is not PIPID: falls back to raw lines. *)
  let rng = rng_of 500 in
  let g = Mineq.Counterexample.relabelled_equivalent rng (Mineq.Baseline.network 3) in
  let text = S.to_string g in
  check_true "raw fallback used" (contains ~needle:"gap raw" text);
  match S.of_string text with
  | Ok h -> check_true "raw round trips" (M.equal g h)
  | Error e -> Alcotest.fail (S.error_to_string e)

let test_swapped_gap_keeps_ports () =
  (* Omega's gap 2 with f and g exchanged is still the PIPID digraph,
     but a theta line would reload it with Pipid_net's ports. *)
  let omega = Mineq.Classical.network Omega ~n:4 in
  let g = M.map_gaps omega (fun i c -> if i = 2 then Mineq.Connection.swap c else c) in
  let text = S.to_string g in
  check_true "swapped gap written raw" (contains ~needle:"gap raw" text);
  match S.of_string text with
  | Ok h ->
      check_true "ports survive the round trip" (Mineq_engine.Memo.structural_equal g h);
      check_true "and so do the port words"
        (Mineq.Routing.delta_schedule g = Mineq.Routing.delta_schedule h)
  | Error e -> Alcotest.fail (S.error_to_string e)

let test_comments_and_blanks () =
  let text =
    "# a comment\nmineq-spec 1\n\nstages 3   # three stages\ngap theta 2 0 1\ngap theta 1 2 0\n"
  in
  match S.of_string text with
  | Ok g -> check_int "parsed" 3 (M.stages g)
  | Error e -> Alcotest.fail (S.error_to_string e)

let expect_error text fragment =
  match S.of_string text with
  | Ok _ -> Alcotest.fail ("expected parse error mentioning " ^ fragment)
  | Error e ->
      check_true ("error mentions " ^ fragment)
        (contains ~needle:fragment (S.error_to_string e))

let test_parse_errors () =
  expect_error "nonsense\n" "header";
  expect_error "mineq-spec 1\nstages x\n" "integer";
  expect_error "mineq-spec 1\nstages 3\ngap theta 0 1\n" "theta needs n images";
  expect_error "mineq-spec 1\nstages 3\ngap theta 0 0 1\ngap theta 0 1 2\n" "repeated";
  expect_error "mineq-spec 1\nstages 3\ngap raw 0 1 2 3\n" "separator";
  expect_error "mineq-spec 1\nstages 3\ngap theta 2 0 1\n" "expected 2 gap lines";
  (* Degree violation caught at build time: constant raw gap. *)
  expect_error "mineq-spec 1\nstages 2\ngap raw 0 0 | 0 0\n" "in-degree"

let test_typed_error_lines () =
  (* The typed error carries the 1-based line of the offending input
     line; whole-file problems (gap-count mismatch, in-degree
     violations caught at build time) carry no line. *)
  let line_of text =
    match S.of_string text with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error e -> e.S.line
  in
  Alcotest.(check (option int)) "header error on line 1" (Some 1) (line_of "nonsense\n");
  Alcotest.(check (option int))
    "stages error on line 3" (Some 3)
    (line_of "# comment\nmineq-spec 1\nstages x\n");
  Alcotest.(check (option int))
    "theta error on line 4" (Some 4)
    (line_of "mineq-spec 1\nstages 3\ngap theta 2 0 1\ngap theta 0 1\n");
  Alcotest.(check (option int))
    "gap-count mismatch has no line" None
    (line_of "mineq-spec 1\nstages 3\ngap theta 2 0 1\n");
  Alcotest.(check (option int))
    "in-degree violation has no line" None
    (line_of "mineq-spec 1\nstages 2\ngap raw 0 0 | 0 0\n")

let test_save_load () =
  let g = Mineq.Classical.network Flip ~n:4 in
  let path = Filename.temp_file "mineq" ".spec" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.save path g;
      match S.load path with
      | Ok h -> check_true "file round trip" (M.equal g h)
      | Error e -> Alcotest.fail (S.error_to_string e));
  match S.load "/nonexistent/mineq.spec" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

let props =
  [ qcheck "round trip on random PIPID networks" ~count:30 n_and_seed (fun (n, seed) ->
        let g = random_banyan_pipid (rng_of seed) ~n in
        match S.of_string (S.to_string g) with Ok h -> M.equal g h | Error _ -> false);
    qcheck "round trip on random raw networks" ~count:20 n_and_seed (fun (n, seed) ->
        let g = Mineq.Link_spec.random_network (rng_of seed) ~n in
        match S.of_string (S.to_string g) with Ok h -> M.equal g h | Error _ -> false);
    qcheck "round trip keeps every port (random gaps swapped)" ~count:100
      (QCheck.make
         ~print:(fun (n, kind, seed) -> Printf.sprintf "n=%d kind=%d seed=%d" n kind seed)
         QCheck.Gen.(triple (int_range 2 6) (int_bound 2) (int_bound 1_000_000)))
      (fun (n, kind, seed) ->
        let rng = rng_of seed in
        let g =
          match kind with
          | 0 -> Mineq.Link_spec.random_network rng ~n
          | 1 -> Mineq.Link_spec.random_pipid_network rng ~n
          | _ -> Mineq.Counterexample.random_buddy_network rng ~n
        in
        let g =
          M.map_gaps g (fun _ c -> if Random.State.bool rng then Mineq.Connection.swap c else c)
        in
        match S.of_string (S.to_string g) with
        | Ok h -> Mineq_engine.Memo.structural_equal g h
        | Error _ -> false)
  ]

let suite =
  [ quick "classical round trip" test_round_trip_classical;
    quick "raw round trip" test_round_trip_raw;
    quick "a swapped PIPID gap keeps its ports" test_swapped_gap_keeps_ports;
    quick "comments and blanks" test_comments_and_blanks;
    quick "parse errors" test_parse_errors;
    quick "typed error line numbers" test_typed_error_lines;
    quick "save and load" test_save_load
  ]
  @ props
