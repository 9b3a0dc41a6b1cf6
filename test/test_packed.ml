open Helpers
module M = Mineq.Mi_digraph
module P = Mineq.Packed
module C = Mineq.Connection
module O = Packed_oracle

(* A random network that need not be Banyan (arbitrary valid MI
   stages), to exercise the kernels on violating inputs too. *)
let random_any_network rng ~n =
  M.create (List.init (n - 1) (fun _ -> C.random_any rng ~width:(n - 1)))

let test_shape_accessors () =
  let g = Mineq.Baseline.network 4 in
  let p = P.of_network g in
  check_int "stages" 4 (P.stages p);
  check_int "width" 3 (P.width p);
  check_int "nodes per stage" 8 (P.nodes_per_stage p);
  check_int "total nodes" 32 (P.total_nodes p);
  check_int "node id" ((2 * 8) + 5) (P.node_id p ~stage:3 5);
  let stage, label = P.node_of_id p 21 in
  check_int "node_of_id stage" 3 stage;
  check_int "node_of_id label" 5 label

let test_cache_identity () =
  (* Packing is lazy and cached on the network record: both accessors
     return the same physical tables. *)
  let g = Mineq.Classical.network Omega ~n:5 in
  check_true "cached" (P.of_network g == M.packed g)

let test_adjacency_round_trip () =
  let g = Mineq.Classical.network Omega ~n:5 in
  let p = P.of_network g in
  let per = P.nodes_per_stage p in
  for gap = 1 to 4 do
    for x = 0 to per - 1 do
      let cf, cg = M.children g ~stage:gap x in
      check_int "f child" cf (P.child_f p ~gap x);
      check_int "g child" cg (P.child_g p ~gap x)
    done;
    for y = 0 to per - 1 do
      Alcotest.(check (list int))
        "parents"
        (List.sort compare (M.parents g ~stage:(gap + 1) y))
        (List.sort compare [ P.parent_a p ~gap y; P.parent_b p ~gap y ])
    done
  done

let test_downstream_tables () =
  (* Every downstream entry names the right child cell, and the two
     input ports of every next-stage cell are each claimed by exactly
     one (source, out-port) link. *)
  let g = Mineq.Classical.network Flip ~n:5 in
  let p = P.of_network g in
  let per = P.nodes_per_stage p in
  let down = P.downstream p in
  check_int "one table per gap" (P.stages p - 1) (Array.length down);
  Array.iteri
    (fun k table ->
      let gap = k + 1 in
      let claimed = Array.make (2 * per) 0 in
      for x = 0 to per - 1 do
        List.iter
          (fun (port, child) ->
            let hop = table.((2 * x) + port) in
            let y = hop lsr 1 and in_port = hop land 1 in
            check_int "downstream cell" child y;
            claimed.((2 * y) + in_port) <- claimed.((2 * y) + in_port) + 1)
          [ (0, P.child_f p ~gap x); (1, P.child_g p ~gap x) ]
      done;
      Array.iteri (fun _ c -> check_int "input port claimed once" 1 c) claimed)
    down

let test_component_labels_numbering () =
  (* Components are numbered by minimal member in dense-id order:
     label c's first occurrence (scanning the window ascending) must
     come after that of label c - 1. *)
  let g = Mineq.Baseline.network 5 in
  let p = P.of_network g in
  let comp, count = P.component_labels p ~lo:2 ~hi:4 in
  check_int "count matches census" (P.component_count p ~lo:2 ~hi:4) count;
  let next = ref 0 in
  Array.iter
    (fun c ->
      check_true "labels in range" (c >= 0 && c < count);
      if c = !next then incr next else check_true "first occurrences ascend" (c < !next))
    comp;
  check_int "every label occurs" count !next

let test_scratch_reuse () =
  (* One scratch across every window of a network and across both
     kernels: results must match scratch-free queries. *)
  let g = Mineq.Classical.network Omega ~n:6 in
  let p = P.of_network g in
  let scratch = P.scratch p in
  let n = P.stages p in
  for lo = 1 to n do
    for hi = lo to n do
      check_int
        (Printf.sprintf "census %d..%d" lo hi)
        (P.component_count p ~lo ~hi)
        (P.component_count ~scratch p ~lo ~hi)
    done
  done;
  check_true "violation query agrees"
    (P.first_violation p = P.first_violation ~scratch p)

let test_first_violation_witness () =
  (* Two identical butterfly gaps: 2 paths 0 -> 0, and (0, 0, 2) is
     the row-major first violation. *)
  let beta = C.make ~width:2 ~f:(fun x -> x land 0b10) ~g:(fun x -> x lor 0b01) in
  let g = M.create [ beta; beta ] in
  (match P.first_violation (P.of_network g) with
  | Some (0, 0, 2) -> ()
  | Some (u, v, k) -> Alcotest.failf "wrong witness (%d, %d, %d)" u v k
  | None -> Alcotest.fail "violation expected");
  check_true "baseline has none"
    (P.first_violation (P.of_network (Mineq.Baseline.network 4)) = None)

(* Agreement gates against the boxed oracle at r = 2, over the seeded
   families of [Helpers.binary_draw] plus arbitrary valid stages (which
   carry double links); the radix-3/4 gates are in test_radix_packed. *)
let oracle_draw = QCheck.pair binary_draw QCheck.bool

let oracle_network (((n, _, seed, _) as draw), any_stages) =
  if any_stages then random_any_network (rng_of seed) ~n else binary_network draw

let props =
  [ qcheck "census agrees with the boxed union-find oracle (every window)" ~count:150
      oracle_draw (fun draw ->
        let g = oracle_network draw in
        let p = P.of_network g and net = O.of_network g in
        List.for_all
          (fun (lo, hi) -> P.component_count p ~lo ~hi = O.component_count net ~lo ~hi)
          (O.windows net));
    qcheck "path-count DP agrees with the boxed-row DP" ~count:150 oracle_draw (fun draw ->
        let g = oracle_network draw in
        P.path_count_matrix (P.of_network g) = O.path_count_matrix (O.of_network g));
    qcheck "Banyan witness agrees with the list-era boxed-row oracle" ~count:150 oracle_draw
      (fun draw ->
        let g = oracle_network draw in
        P.first_violation (P.of_network g) = O.first_violation (O.of_network g));
    qcheck "characterization verdict agrees with the oracle (binary)" ~count:150 oracle_draw
      (fun draw ->
        let g = oracle_network draw in
        Mineq.Equivalence.equivalent_enum g = O.characterization (O.of_network g));
    qcheck "packed enumeration = symbolic characterization (agreement gate)" n_and_seed
      (fun (n, seed) ->
        let rng = rng_of seed in
        let g =
          if Random.State.bool rng then random_banyan_pipid rng ~n
          else random_any_network rng ~n
        in
        Mineq.Equivalence.equivalent_enum g
        = (Mineq.Equivalence.by_characterization g).equivalent);
    qcheck "succ and pred tables are mutually consistent" n_and_seed (fun (n, seed) ->
        let g = random_any_network (rng_of seed) ~n in
        let p = P.of_network g in
        let per = P.nodes_per_stage p in
        let ok = ref true in
        for gap = 1 to n - 1 do
          for x = 0 to per - 1 do
            List.iter
              (fun child ->
                let a = P.parent_a p ~gap child and b = P.parent_b p ~gap child in
                if a <> x && b <> x then ok := false)
              [ P.child_f p ~gap x; P.child_g p ~gap x ]
          done
        done;
        !ok)
  ]

let suite =
  [ quick "shape accessors" test_shape_accessors;
    quick "pack cache identity" test_cache_identity;
    quick "adjacency round trip" test_adjacency_round_trip;
    quick "downstream routing tables" test_downstream_tables;
    quick "component label numbering" test_component_labels_numbering;
    quick "scratch reuse" test_scratch_reuse;
    quick "first violation witness" test_first_violation_witness
  ]
  @ props
