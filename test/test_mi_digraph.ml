open Helpers
module C = Mineq.Connection
module M = Mineq.Mi_digraph
module D = Mineq_graph.Digraph

let baseline n = Mineq.Baseline.network n

let test_shape () =
  let g = baseline 4 in
  check_int "stages" 4 (M.stages g);
  check_int "width" 3 (M.width g);
  check_int "nodes per stage" 8 (M.nodes_per_stage g);
  check_int "total nodes" 32 (M.total_nodes g);
  check_int "terminals" 16 (M.inputs g);
  check_true "valid" (M.is_valid g)

let test_create_validation () =
  let good = C.make ~width:1 ~f:(fun x -> x) ~g:(fun x -> x lxor 1) in
  check_int "2-stage network" 2 (M.stages (M.create [ good ]));
  Alcotest.check_raises "empty list"
    (Invalid_argument "Mi_digraph.create: empty connection list (use single_stage)") (fun () ->
      ignore (M.create []));
  let bad_width = C.make ~width:2 ~f:(fun x -> x) ~g:(fun x -> x lxor 1) in
  check_true "width mismatch rejected"
    (match M.create [ bad_width ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let invalid = C.make ~width:1 ~f:(fun _ -> 0) ~g:(fun _ -> 0) in
  check_true "degree violation rejected"
    (match M.create [ invalid ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_children_parents () =
  let g = baseline 3 in
  let cf, cg = M.children g ~stage:1 0b11 in
  check_int "first-stage f child" 0b01 cf;
  check_int "first-stage g child" 0b11 cg;
  Alcotest.(check (list int)) "parents" [ 0b10; 0b11 ]
    (List.sort compare (M.parents g ~stage:2 0b01));
  Alcotest.check_raises "children of last stage rejected"
    (Invalid_argument "Mi_digraph.children: bad stage") (fun () ->
      ignore (M.children g ~stage:3 0));
  Alcotest.check_raises "parents of first stage rejected"
    (Invalid_argument "Mi_digraph.parents: bad stage") (fun () ->
      ignore (M.parents g ~stage:1 0))

let test_to_digraph () =
  let g = baseline 3 in
  let d = M.to_digraph g in
  check_int "digraph vertices" 12 (D.vertices d);
  check_int "digraph arcs" 16 (D.arc_count d);
  (* Vertex ids are stage-major: stage s, label x is (s - 1) * 4 + x.
     Every stage-2 node has in-degree 2 and out-degree 2. *)
  for x = 0 to 3 do
    let v = 4 + x in
    check_int "mid in-degree" 2 (D.in_degree d v);
    check_int "mid out-degree" 2 (D.out_degree d v)
  done;
  for x = 0 to 3 do
    check_int "first stage in-degree 0" 0 (D.in_degree d x);
    check_int "last stage out-degree 0" 0 (D.out_degree d (8 + x));
    (* The f-child comes first among a node's successors. *)
    check_int "f-child first" (4 + fst (M.children g ~stage:1 x)) (List.hd (D.succ d x))
  done

let test_reverse () =
  let g = baseline 4 in
  let r = M.reverse g in
  check_int "same stages" 4 (M.stages r);
  check_true "valid" (M.is_valid r);
  check_true "double reverse equal" (M.equal g (M.reverse r));
  (* Arcs flipped: children of x at stage 1 of r = parents of x at
     stage 4 of g. *)
  for x = 0 to 7 do
    let cf, cg = M.children r ~stage:1 x in
    Alcotest.(check (list int)) "reverse adjacency"
      (List.sort compare (M.parents g ~stage:4 x))
      (List.sort compare [ cf; cg ])
  done

let test_equal () =
  check_true "baseline equal to itself" (M.equal (baseline 4) (baseline 4));
  check_false "baseline differs from omega"
    (M.equal (baseline 4) (Mineq.Classical.network Omega ~n:4));
  check_false "different sizes" (M.equal (baseline 3) (baseline 4))

let test_relabel () =
  let g = baseline 3 in
  (* Identity relabelling. *)
  check_true "identity relabel" (M.equal g (M.relabel g (fun ~stage:_ x -> x)));
  (* Swap two labels in stage 2 only: graph changes but stays valid. *)
  let swap ~stage x = if stage = 2 then (if x = 0 then 1 else if x = 1 then 0 else x) else x in
  let h = M.relabel g swap in
  check_true "relabelled valid" (M.is_valid h);
  check_false "relabelled differs" (M.equal g h);
  check_true "relabel twice restores" (M.equal g (M.relabel h swap));
  Alcotest.check_raises "non-bijection rejected"
    (Invalid_argument "Mi_digraph.relabel: not a bijection on a stage") (fun () ->
      ignore (M.relabel g (fun ~stage:_ _ -> 0)))

let test_relabel_preserves_isomorphism () =
  let g = baseline 3 in
  let rng = rng_of 9 in
  let h = Mineq.Counterexample.relabelled_equivalent rng g in
  check_true "relabelled is isomorphic"
    (Mineq_graph.Iso.are_isomorphic (M.to_digraph g) (M.to_digraph h))

let test_map_gaps () =
  let g = baseline 3 in
  let h = M.map_gaps g (fun _ c -> C.swap c) in
  check_true "swapping f/g preserves the graph" (M.equal g h)

let test_single_stage () =
  let s = M.single_stage ~width:0 in
  check_int "one stage" 1 (M.stages s);
  check_int "one node" 1 (M.nodes_per_stage s);
  check_int "two terminals" 2 (M.inputs s);
  check_true "valid" (M.is_valid s);
  Alcotest.(check (list pass)) "no connections" [] (M.connections s);
  check_int "wide single stage" 8 (M.nodes_per_stage (M.single_stage ~width:3));
  Alcotest.check_raises "negative width rejected"
    (Invalid_argument "Mi_digraph.single_stage: negative width") (fun () ->
      ignore (M.single_stage ~width:(-1)))

let props =
  [ qcheck "reverse twice is the identity" n_and_seed (fun (n, seed) ->
        let g = random_banyan_pipid (rng_of seed) ~n in
        M.equal g (M.reverse (M.reverse g)));
    qcheck "random relabelling preserves validity" n_and_seed (fun (n, seed) ->
        let rng = rng_of seed in
        let g = random_banyan_pipid rng ~n in
        M.is_valid (Mineq.Counterexample.relabelled_equivalent rng g));
    qcheck "arc count is 2 (n-1) 2^(n-1)" n_and_seed (fun (n, seed) ->
        let g = random_banyan_pipid (rng_of seed) ~n in
        D.arc_count (M.to_digraph g) = 2 * (n - 1) * M.nodes_per_stage g)
  ]

let suite =
  [ quick "shape" test_shape;
    quick "create validation" test_create_validation;
    quick "children and parents" test_children_parents;
    quick "to_digraph" test_to_digraph;
    quick "reverse" test_reverse;
    quick "equality" test_equal;
    quick "relabel" test_relabel;
    quick "relabel preserves isomorphism" test_relabel_preserves_isomorphism;
    quick "map_gaps swap" test_map_gaps;
    quick "single stage" test_single_stage
  ]
  @ props
