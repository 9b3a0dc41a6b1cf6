open Helpers
module Rv = Mineq_radix.Rv
module Rc = Mineq_radix.Rconnection
module Rn = Mineq_radix.Rnetwork
module Rb = Mineq_radix.Rbuild
module Perm = Mineq_perm.Perm

let ctx3 = Rv.context ~radix:3 ~width:2

let shift3 =
  (* Radix-3 analogue of the Baseline first stage: child j of x is
     (x / 3) + j * 3. *)
  Rc.make ctx3 (fun j x -> (x / 3) + (j * 3))

let test_connection_basics () =
  check_int "radix" 3 (Rc.radix shift3);
  check_int "half" 9 (Rc.half shift3);
  Alcotest.(check (list int)) "children of 7" [ 2; 5; 8 ] (Rc.children shift3 7);
  Alcotest.(check (list int)) "parents of 2" [ 6; 7; 8 ] (List.sort compare (Rc.parents shift3 2));
  check_true "valid stage" (Rc.is_mi_stage shift3)

let test_connection_independence () =
  check_true "shift stage independent" (Rc.is_independent shift3);
  check_true "definitional agrees" (Rc.is_independent_definitional shift3);
  (* Witness of alpha = 3 (digit-1 unit): children shift digits down,
     so beta = 1. *)
  (match Rc.witness shift3 3 with
  | Some beta -> check_int "beta of e_1" 1 beta
  | None -> Alcotest.fail "expected witness");
  match Rc.additive_form shift3 with
  | None -> Alcotest.fail "expected additive form"
  | Some (images, offsets) ->
      Alcotest.(check (array int)) "B images" [| 0; 1 |] images;
      Alcotest.(check (array int)) "offsets" [| 0; 3; 6 |] offsets

let test_dependent_stage_detected () =
  (* Swap two images of one child function: breaks independence but
     keeps degrees. *)
  let tweaked =
    Rc.make ctx3 (fun j x ->
        let base = (x / 3) + (j * 3) in
        if j = 0 && x = 0 then 1 else if j = 0 && x = 3 then 0 else base)
  in
  check_true "still a valid stage" (Rc.is_mi_stage tweaked);
  check_false "dependence detected" (Rc.is_independent tweaked);
  check_false "definitional agrees" (Rc.is_independent_definitional tweaked)

let test_reverse_any () =
  let r = Rc.reverse_any shift3 in
  check_true "reverse valid" (Rc.is_mi_stage r);
  check_true "double reverse has original arcs" (Rc.equal_graph (Rc.reverse_any r) shift3)

let test_baseline_structure () =
  let g = Rb.baseline ~radix:3 3 in
  check_int "stages" 3 (Rn.stages g);
  check_int "cells per stage" 9 (Rn.cells_per_stage g);
  check_int "terminals" 27 (Rn.terminals g);
  check_true "banyan" (Rn.is_banyan g);
  check_true "characterization" (Rn.by_characterization g);
  check_true "independence" (Rn.by_independence g)

let test_radix2_matches_binary_library () =
  for n = 2 to 5 do
    let r2 = Rb.baseline ~radix:2 n in
    let bin = Mineq.Baseline.network n in
    check_true
      (Printf.sprintf "radix-2 baseline n=%d" n)
      (Mineq_graph.Digraph.equal (Rn.to_digraph r2) (Mineq.Mi_digraph.to_digraph bin))
  done

let test_omega_equivalent () =
  List.iter
    (fun (radix, n) ->
      let om = Rb.omega ~radix n in
      let base = Rb.baseline ~radix n in
      check_true "omega banyan" (Rn.is_banyan om);
      check_true "omega characterization" (Rn.by_characterization om);
      check_true "omega independence" (Rn.by_independence om);
      check_true "ground truth isomorphism" (Rn.isomorphic om base))
    [ (3, 3); (4, 3); (3, 4); (5, 2) ]

let test_degenerate_radix_stage () =
  let n = 3 in
  let g =
    Rn.create
      [ Rb.pipid_connection ~radix:3 ~n (Perm.identity n);
        Rb.pipid_connection ~radix:3 ~n (Mineq_perm.Pipid_family.perfect_shuffle ~width:n)
      ]
  in
  check_false "degenerate stage breaks banyan" (Rn.is_banyan g);
  check_true "is_degenerate flags it" (Rb.is_degenerate ~n (Perm.identity n))

let test_pipid_closed_form () =
  let rng = rng_of 200 in
  for _ = 1 to 10 do
    let n = 3 in
    let radix = 3 in
    let theta = Perm.random rng n in
    let via_closed = Rb.pipid_connection ~radix ~n theta in
    (* Build the link permutation explicitly and compare. *)
    let link_ctx = Rv.context ~radix ~width:n in
    let p =
      Perm.of_fun ~size:(Rv.universe_size link_ctx) (fun y ->
          let rec build d acc =
            if d = n then acc
            else build (d + 1) (Rv.set_digit link_ctx acc d (Rv.digit link_ctx y (Perm.apply theta d)))
          in
          build 0 0)
    in
    let via_links = Rb.connection_of_link_perm ~radix ~n p in
    check_true "closed form = link permutation" (Rc.equal_graph via_closed via_links)
  done

let test_six_networks_at_radix_3 () =
  (* The main corollary, generalized: all six classical constructions
     at radix 3 are Banyan, independent, satisfy the characterization
     and are mutually isomorphic. *)
  let nets = Rb.all_networks ~radix:3 ~n:3 in
  check_int "six networks" 6 (List.length nets);
  let base = Rb.baseline ~radix:3 3 in
  List.iter
    (fun (name, g) ->
      check_true (name ^ " banyan") (Rn.is_banyan g);
      check_true (name ^ " independence") (Rn.by_independence g);
      check_true (name ^ " characterization") (Rn.by_characterization g);
      check_true (name ^ " isomorphic to baseline") (Rn.isomorphic g base))
    nets

let test_all_networks_degree_invariants () =
  (* all_networks at several (radix, n): six constructions, each with
     n - 1 valid stages of uniform in/out-degree = radix. *)
  List.iter
    (fun (radix, n) ->
      let nets = Rb.all_networks ~radix ~n in
      check_int (Printf.sprintf "six networks r=%d n=%d" radix n) 6 (List.length nets);
      List.iter
        (fun (name, g) ->
          check_int (name ^ " stages") n (Rn.stages g);
          check_int (name ^ " radix") radix (Rn.radix g);
          check_int (name ^ " gaps") (n - 1) (List.length (Rn.connections g));
          List.iter
            (fun c ->
              check_true (name ^ " valid stage") (Rc.is_mi_stage c);
              for x = 0 to Rc.half c - 1 do
                check_int (name ^ " out-degree") radix (List.length (Rc.children c x));
                check_int (name ^ " in-degree") radix (List.length (Rc.parents c x))
              done)
            (Rn.connections g))
        nets)
    [ (2, 4); (3, 3); (4, 2) ]

let test_baseline_equals_subshuffle_stack () =
  List.iter
    (fun (radix, n) ->
      check_true
        (Printf.sprintf "r=%d n=%d recursive = sub-rotation stack" radix n)
        (Rn.equal (Rb.baseline ~radix n) (Rb.baseline_by_subshuffles ~radix n)))
    [ (2, 4); (3, 3); (4, 3); (3, 4) ]

let test_flip_reverses_omega () =
  check_true "flip = reverse omega (radix 3)"
    (Rn.equal (Rb.flip ~radix:3 3) (Rn.reverse (Rb.omega ~radix:3 3)))

let test_routing () =
  let module R = Mineq.Routing in
  let g = Rb.omega ~radix:3 3 in
  (* Route every pair through the packed walk; endpoints must attach
     correctly. *)
  let terminals = Rn.terminals g in
  for input = 0 to terminals - 1 do
    for output = 0 to terminals - 1 do
      match R.walk (Rn.packed g) ~input ~output with
      | None -> Alcotest.fail "banyan routes every pair"
      | Some p ->
          check_int "starts at input cell" (input / 3) p.R.cells.(0);
          check_int "ends at output cell" (output / 3) p.R.cells.(2)
    done
  done;
  check_true "radix omega is digit-directed" (Option.is_some (R.schedule (Rn.packed g)))

let test_routing_rejects_non_banyan () =
  let g =
    Rn.create
      [ Rb.pipid_connection ~radix:3 ~n:3 (Perm.identity 3);
        Rb.pipid_connection ~radix:3 ~n:3 (Mineq_perm.Pipid_family.perfect_shuffle ~width:3)
      ]
  in
  (match Mineq.Routing.walk (Rn.packed g) ~input:0 ~output:0 with
  | exception Failure _ -> ()
  | Some _ -> Alcotest.fail "multiple paths must be flagged"
  | None -> Alcotest.fail "path exists (several, in fact)");
  check_true "and the network has no digit schedule"
    (Option.is_none (Mineq.Routing.schedule (Rn.packed g)))

let test_subgraph_and_reverse () =
  let g = Rb.baseline ~radix:3 3 in
  check_int "window components" 3 (Rn.component_count g ~lo:2 ~hi:3);
  check_int "expected" 3 (Mineq.Packed.expected_components (Rn.packed g) ~lo:2 ~hi:3);
  let r = Rn.reverse g in
  check_true "reverse banyan" (Rn.is_banyan r);
  check_true "reverse characterization" (Rn.by_characterization r);
  check_true "double reverse equal" (Rn.equal g (Rn.reverse r))

let props =
  let gen =
    QCheck.make
      ~print:(fun (r, s) -> Printf.sprintf "r=%d seed=%d" r s)
      QCheck.Gen.(pair (int_range 2 4) (int_bound 100000))
  in
  [ qcheck "generator independence check = definitional (radix)" ~count:60 gen
      (fun (radix, seed) ->
        let rng = rng_of seed in
        let ctx = Rv.context ~radix ~width:2 in
        let c =
          if Random.State.bool rng then Rb.pipid_connection ~radix ~n:3 (Perm.random rng 3)
          else Rc.random_any rng ctx
        in
        Rc.is_independent c = Rc.is_independent_definitional c);
    qcheck "radix PIPID stages always independent" ~count:40 gen (fun (radix, seed) ->
        Rc.is_independent (Rb.pipid_connection ~radix ~n:3 (Perm.random (rng_of seed) 3)));
    qcheck "X6: independence decider = characterization on Banyan PIPID stacks" ~count:40
      gen (fun (radix, seed) ->
        let rng = rng_of seed in
        let rec banyan_stack attempts =
          if attempts = 0 then None
          else begin
            let g = Rb.random_pipid_network rng ~radix ~n:3 in
            if Rn.is_banyan g then Some g else banyan_stack (attempts - 1)
          end
        in
        match banyan_stack 100 with
        | None -> true
        | Some g -> Rn.by_independence g && Rn.by_characterization g);
    qcheck "random stages are valid" ~count:40 gen (fun (radix, seed) ->
        Rc.is_mi_stage (Rc.random_any (rng_of seed) (Rv.context ~radix ~width:2)))
  ]

let suite =
  [ quick "connection basics" test_connection_basics;
    quick "independence" test_connection_independence;
    quick "dependence detected" test_dependent_stage_detected;
    quick "reverse_any" test_reverse_any;
    quick "radix baseline" test_baseline_structure;
    quick "radix 2 = binary library" test_radix2_matches_binary_library;
    quick "radix omega equivalent (X6)" test_omega_equivalent;
    quick "degenerate radix stage" test_degenerate_radix_stage;
    quick "pipid closed form" test_pipid_closed_form;
    quick "six networks at radix 3 (X6)" test_six_networks_at_radix_3;
    quick "all_networks degree invariants" test_all_networks_degree_invariants;
    quick "baseline = sub-rotation stack" test_baseline_equals_subshuffle_stack;
    quick "flip reverses omega" test_flip_reverses_omega;
    quick "digit-directed routing" test_routing;
    quick "routing rejects non-Banyan" test_routing_rejects_non_banyan;
    quick "subgraph and reverse" test_subgraph_and_reverse
  ]
  @ props
