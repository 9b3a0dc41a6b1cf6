open Helpers
module Rv = Mineq_radix.Rv
module Rc = Mineq_radix.Rconnection
module Rn = Mineq_radix.Rnetwork
module Rb = Mineq_radix.Rbuild
module M = Mineq.Mi_digraph
module P = Mineq.Packed
module O = Packed_oracle

(* Agreement gates for the stride-r packed kernels: the packed census,
   path-count DP and characterization must coincide with the boxed
   oracle (Packed_oracle, children read through Rconnection), and the
   r = 2 packing must coincide with the binary library's own packing
   on the classical inventory. *)

let random_any_network rng ~radix ~n =
  Rn.create
    (List.init (n - 1) (fun _ -> Rc.random_any rng (Rv.context ~radix ~width:(n - 1))))

let test_packed_shape () =
  let g = Rb.omega ~radix:3 3 in
  let p = Rn.packed g in
  check_int "radix" 3 (P.radix p);
  check_int "stages" 3 (P.stages p);
  check_int "width" 2 (P.width p);
  check_int "cells per stage" 9 (P.nodes_per_stage p);
  check_int "total nodes" 27 (P.total_nodes p);
  (* Child tables agree with the boxed connection, port for port. *)
  for gap = 1 to 2 do
    let c = Rn.connection g gap in
    for x = 0 to 8 do
      List.iteri
        (fun j y -> check_int "child" y (P.child p ~gap ~port:j x))
        (Rc.children c x)
    done;
    (* Predecessor slots hold each cell's parent multiset. *)
    for y = 0 to 8 do
      Alcotest.(check (list int))
        "parents"
        (List.sort compare (Rc.parents c y))
        (List.sort compare (List.init 3 (fun j -> P.parent p ~gap ~port:j y)))
    done
  done

let test_packed_cache_identity () =
  let g = Rb.baseline ~radix:4 3 in
  check_true "cached" (Rn.packed g == Rn.packed g)

let test_census_agreement_baseline () =
  (* Every window of the radix-3 Baseline: packed flat-DSU census =
     boxed union-find census = the closed-form expected count. *)
  let g = Rb.baseline ~radix:3 4 in
  let n = Rn.stages g in
  let net = O.of_rnetwork g in
  for lo = 1 to n do
    for hi = lo to n do
      let packed = Rn.component_count g ~lo ~hi in
      let boxed = O.component_count net ~lo ~hi in
      check_int (Printf.sprintf "census window %d-%d" lo hi) boxed packed;
      check_int
        (Printf.sprintf "expected window %d-%d" lo hi)
        (P.expected_components (Rn.packed g) ~lo ~hi)
        packed
    done
  done

let test_banyan_agreement_inventory () =
  (* All six constructions at several radixes: packed DP verdict =
     boxed DP verdict (all Banyan), and both characterizations
     agree. *)
  List.iter
    (fun (radix, n) ->
      List.iter
        (fun (name, g) ->
          let tag = Printf.sprintf "%s r=%d n=%d" name radix n in
          let net = O.of_rnetwork g in
          check_true (tag ^ " packed banyan") (Rn.is_banyan g);
          check_true (tag ^ " boxed banyan") (O.first_violation net = None);
          check_true (tag ^ " packed characterization") (Rn.by_characterization g);
          check_true (tag ^ " boxed characterization") (O.characterization net))
        (Rb.all_networks ~radix ~n))
    [ (2, 4); (3, 3); (4, 3) ]

let test_path_count_matrix_rows () =
  (* On a Banyan network every path-count row is all ones; on a
     degenerate stack the packed matrix still totals r^(n-1) paths
     per source (mass conservation of the DP). *)
  let g = Rb.omega ~radix:3 3 in
  let m = Rn.path_count_matrix g in
  Array.iter (fun row -> Array.iter (fun v -> check_int "banyan entry" 1 v) row) m;
  let deg =
    Rn.create
      [ Rb.pipid_connection ~radix:3 ~n:3 (Mineq_perm.Perm.identity 3);
        Rb.pipid_connection ~radix:3 ~n:3 (Mineq_perm.Pipid_family.perfect_shuffle ~width:3)
      ]
  in
  let dm = Rn.path_count_matrix deg in
  Array.iter
    (fun row -> check_int "total paths" 9 (Array.fold_left ( + ) 0 row))
    dm

let test_radix2_matches_binary_packed () =
  (* r = 2 packed radix kernels = the binary library's own Packed
     results, across the classical inventory: same path-count
     matrices, same censuses on every window, agreeing equivalence
     verdicts. *)
  List.iter
    (fun n ->
      List.iter
        (fun (name, rg) ->
          let kind =
            match Mineq.Classical.of_name name with
            | Some k -> k
            | None -> Alcotest.fail ("unknown classical name " ^ name)
          in
          let bg = Mineq.Classical.network kind ~n in
          let tag = Printf.sprintf "%s n=%d" name n in
          check_true
            (tag ^ " same digraph")
            (Mineq_graph.Digraph.equal (Rn.to_digraph rg) (M.to_digraph bg));
          Alcotest.(check (array (array int)))
            (tag ^ " path-count matrix")
            (Mineq.Banyan.path_count_matrix bg)
            (Rn.path_count_matrix rg);
          for lo = 1 to n do
            for hi = lo to n do
              check_int
                (Printf.sprintf "%s census %d-%d" tag lo hi)
                (Mineq.Properties.component_count bg ~lo ~hi)
                (Rn.component_count rg ~lo ~hi)
            done
          done;
          check_bool
            (tag ^ " equivalence verdict")
            (Mineq.Equivalence.equivalent_enum bg)
            (Rn.by_characterization rg))
        (Rb.all_networks ~radix:2 ~n))
    [ 3; 4 ]

let test_downstream_tables_radix () =
  (* Radix downstream tables: every entry names the right child cell,
     and the r input ports of every next-stage cell are each claimed
     by exactly one (source, out-port) link. *)
  let g = Rb.omega ~radix:3 3 in
  let p = Rn.packed g in
  let r = P.radix p in
  let per = P.nodes_per_stage p in
  let down = P.downstream p in
  check_int "one table per gap" (P.stages p - 1) (Array.length down);
  Array.iteri
    (fun k table ->
      let gap = k + 1 in
      check_int "table length" (r * per) (Array.length table);
      let claimed = Array.make (r * per) false in
      Array.iteri
        (fun i entry ->
          let x = i / r and j = i mod r in
          let cell = entry / r in
          check_int "child cell" (P.child p ~gap ~port:j x) cell;
          check_false "port claimed once" claimed.(entry);
          claimed.(entry) <- true)
        table;
      Array.iteri (fun _ c -> check_true "every port claimed" c) claimed)
    down

let test_radix_validation () =
  let raises_invalid name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  raises_invalid "baseline r=1" (fun () -> Rb.baseline ~radix:1 3);
  raises_invalid "baseline r=0" (fun () -> Rb.baseline ~radix:0 3);
  raises_invalid "omega r=1" (fun () -> Rb.omega ~radix:1 3);
  raises_invalid "flip r=-2" (fun () -> Rb.flip ~radix:(-2) 3);
  raises_invalid "pipid_connection r=1" (fun () ->
      Rb.pipid_connection ~radix:1 ~n:3 (Mineq_perm.Perm.identity 3));
  raises_invalid "connection_of_link_perm r=1" (fun () ->
      Rb.connection_of_link_perm ~radix:1 ~n:2 (Mineq_perm.Perm.identity 2));
  raises_invalid "random_network r=1" (fun () ->
      Rb.random_network (rng_of 7) ~radix:1 ~n:3);
  raises_invalid "pack_tables r=1" (fun () ->
      M.pack_tables ~stages:3 ~radix:1 ~width:2 ~child:(fun ~gap:_ ~port:_ x -> x));
  raises_invalid "pack_tables r=0" (fun () ->
      M.pack_tables ~stages:2 ~radix:0 ~width:1 ~child:(fun ~gap:_ ~port:_ x -> x));
  (* The message names the offending function, not a deep helper. *)
  (match Rb.baseline ~radix:1 3 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_true "message names Rbuild.baseline"
        (String.length msg >= 15 && String.sub msg 0 15 = "Rbuild.baseline"))

let props =
  (* Radix 3 and 4: the classical inventory and seeded random / PIPID
     networks ([Helpers.radix_draw]), optionally reversed, plus
     arbitrary valid stages (double links included). *)
  let draw = QCheck.pair radix_draw QCheck.bool in
  let network (((radix, n, _, seed) as d), any_stages) =
    if any_stages then random_any_network (rng_of seed) ~radix ~n else radix_network d
  in
  [ qcheck "packed radix census = boxed census (every window)" ~count:150 draw (fun d ->
        let g = network d in
        let net = O.of_rnetwork g in
        List.for_all
          (fun (lo, hi) -> Rn.component_count g ~lo ~hi = O.component_count net ~lo ~hi)
          (O.windows net));
    qcheck "packed radix DP = boxed closure Banyan check" ~count:150 draw (fun d ->
        let g = network d in
        let net = O.of_rnetwork g in
        Rn.path_count_matrix g = O.path_count_matrix net
        && P.first_violation (Rn.packed g) = O.first_violation net
        && Rn.is_banyan g = (O.first_violation net = None));
    qcheck "packed characterization = boxed characterization" ~count:150 draw (fun d ->
        let g = network d in
        Rn.by_characterization g = O.characterization (O.of_rnetwork g));
    qcheck "r=2 random networks: radix packed = binary packed" ~count:40
      (QCheck.make ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 4) (int_bound 100000)))
      (fun (n, seed) ->
        let g = random_any_network (rng_of seed) ~radix:2 ~n in
        let p = Rn.packed g in
        (* Rebuild a binary Mi_digraph from the same child tables and
           compare verdicts through the binary pipeline. *)
        let conns =
          List.init (n - 1) (fun k ->
              Mineq.Connection.make ~width:(n - 1)
                ~f:(fun x -> P.child p ~gap:(k + 1) ~port:0 x)
                ~g:(fun x -> P.child p ~gap:(k + 1) ~port:1 x))
        in
        let bg = M.create conns in
        Rn.is_banyan g = Result.is_ok (Mineq.Banyan.check bg)
        && Rn.component_count g ~lo:1 ~hi:n
           = Mineq.Properties.component_count bg ~lo:1 ~hi:n)
  ]

let suite =
  [ quick "packed shape and tables" test_packed_shape;
    quick "packed cache identity" test_packed_cache_identity;
    quick "census agreement on baseline windows" test_census_agreement_baseline;
    quick "banyan agreement on the inventory" test_banyan_agreement_inventory;
    quick "path-count matrix rows" test_path_count_matrix_rows;
    quick "r=2 packed = binary packed (classical inventory)" test_radix2_matches_binary_packed;
    quick "radix downstream tables" test_downstream_tables_radix;
    quick "radix >= 2 validation" test_radix_validation
  ]
  @ props
