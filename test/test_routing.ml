open Helpers
module R = Mineq.Routing
module M = Mineq.Mi_digraph
module O = Routing_oracle
module BF = Mineq_route.Bit_follow

let baseline = Mineq.Baseline.network

let test_route_endpoints () =
  let g = baseline 4 in
  match R.route g ~input:5 ~output:11 with
  | None -> Alcotest.fail "banyan network routes every pair"
  | Some p ->
      check_int "input recorded" 5 p.R.input;
      check_int "output recorded" 11 p.R.output;
      check_int "path length" 4 (Array.length p.R.cells);
      check_int "starts at input cell" 2 p.R.cells.(0);
      check_int "ends at output cell" 5 p.R.cells.(3);
      check_int "last port is output parity" 1 p.R.ports.(3)

let test_route_follows_arcs () =
  let g = Mineq.Classical.network Omega ~n:4 in
  for input = 0 to 15 do
    for output = 0 to 15 do
      match R.route g ~input ~output with
      | None -> Alcotest.fail "omega routes every pair"
      | Some p ->
          for s = 0 to 2 do
            let cf, cg = M.children g ~stage:(s + 1) p.R.cells.(s) in
            let expected = if p.R.ports.(s) = 0 then cf else cg in
            check_int "step follows chosen port" expected p.R.cells.(s + 1)
          done
    done
  done

let test_route_all_from_consistent () =
  (* The oracle's boxed enumeration against the packed single-pair
     walk. *)
  let g = Mineq.Classical.network Flip ~n:4 in
  for input = 0 to 15 do
    let all = O.route_all_from (O.of_network g) ~input in
    check_int "one path per output" 16 (Array.length all);
    Array.iteri
      (fun output p ->
        match (p, R.route g ~input ~output) with
        | Some p1, Some p2 ->
            Alcotest.(check (array int)) "same cells" p2.R.cells p1.R.cells;
            Alcotest.(check (array int)) "same ports" p2.R.ports p1.R.ports
        | None, None -> ()
        | _ -> Alcotest.fail "route and route_all_from disagree")
      all
  done

let test_port_word_is_destination_tag () =
  (* On a delta network the port word depends only on the output. *)
  let g = Mineq.Classical.network Omega ~n:4 in
  match R.delta_schedule g with
  | None -> Alcotest.fail "omega is delta"
  | Some schedule ->
      for output = 0 to 15 do
        for input = 0 to 15 do
          match R.route g ~input ~output with
          | None -> Alcotest.fail "route exists"
          | Some p -> check_int "schedule matches" schedule.(output) (R.port_word p)
        done
      done

let test_classical_delta_bidelta () =
  List.iter
    (fun (name, g) ->
      check_true (name ^ " delta") (R.is_delta g);
      check_true (name ^ " bidelta") (R.is_bidelta g))
    (all_classical ~n:4)

let test_baseline_tag_is_destination_address () =
  (* In the Baseline network the port word spells the destination
     terminal: stage-i choice = destination bit n-i. *)
  let n = 4 in
  let g = baseline n in
  match R.delta_schedule g with
  | None -> Alcotest.fail "baseline is delta"
  | Some schedule ->
      for output = 0 to (1 lsl n) - 1 do
        check_int "port word = output address" output schedule.(output)
      done

let test_destination_tag_table () =
  (* The tag table is Bit_follow's control table: the oracle's table,
     read off its paths, against the kernel-built router and path. *)
  let g = baseline 3 in
  let bf = Option.get (BF.of_network g) in
  match O.destination_tag_table (O.of_network g) with
  | None -> Alcotest.fail "baseline has a tag table"
  | Some table ->
      check_int "one row per stage" 3 (Array.length table);
      for output = 0 to 7 do
        for s = 0 to 2 do
          check_int "control digit matches table" table.(s).(output)
            (BF.control bf ~stage:s ~output)
        done;
        match R.route g ~input:0 ~output with
        | None -> Alcotest.fail "route exists"
        | Some p ->
            Array.iteri
              (fun s port -> check_int "table entry matches path" port table.(s).(output))
              p.R.ports
      done

let test_non_delta_network () =
  (* A Banyan network that is not delta: found by seeded search over
     buddy networks (buddy does not imply delta). *)
  let rng = rng_of 80 in
  let rec find attempts =
    if attempts = 0 then None
    else
      match Mineq.Counterexample.random_buddy_banyan rng ~n:4 ~attempts:2000 with
      | None -> None
      | Some g -> if R.is_delta g then find (attempts - 1) else Some g
  in
  match find 20 with
  | None -> Alcotest.fail "expected a non-delta Banyan instance"
  | Some g ->
      check_true "banyan but not delta" (Mineq.Banyan.is_banyan g && not (R.is_delta g));
      check_true "no schedule" (Option.is_none (R.delta_schedule g))

let test_link_loads_single_path () =
  let g = baseline 3 in
  let report = R.link_loads g [ (0, 7) ] in
  check_int "one path routed" 1 report.paths_routed;
  check_int "load 1" 1 report.max_link_load;
  check_int "no conflicts" 0 report.conflicted_links

let test_link_loads_conflict () =
  (* Inputs 0 and 1 share the first cell; outputs 0 and 1 share the
     last cell: their paths coincide on every inter-stage link. *)
  let g = baseline 4 in
  let report = R.link_loads g [ (0, 0); (1, 1) ] in
  check_int "both routed" 2 report.paths_routed;
  check_int "overlap" 2 report.max_link_load;
  check_true "conflicted links" (report.conflicted_links > 0);
  check_false "not admissible" (R.is_admissible g [ (0, 0); (1, 1) ])

let test_admissible_pairs () =
  let g = baseline 4 in
  (* Route two paths that provably diverge at stage 1: outputs in
     different halves... inputs in different first cells and outputs in
     different last cells with distinct port words. *)
  check_true "disjoint pair admissible" (R.is_admissible g [ (0, 0); (15, 15) ])

let test_identity_smallest_widths () =
  (* Edge widths n = 2 and 3: identity pairs route with the expected
     endpoints on every classical network. *)
  List.iter
    (fun n ->
      List.iter
        (fun (name, g) ->
          let terminals = M.inputs g in
          for i = 0 to terminals - 1 do
            match R.route g ~input:i ~output:i with
            | None -> Alcotest.fail (name ^ ": identity pair must route")
            | Some p ->
                check_int (name ^ " identity starts") (i / 2) p.R.cells.(0);
                check_int (name ^ " identity ends") (i / 2) p.R.cells.(n - 1);
                check_int (name ^ " exit parity") (i land 1) p.R.ports.(n - 1)
          done)
        (all_classical ~n))
    [ 2; 3 ]

let test_bit_reversal_smallest_widths () =
  List.iter
    (fun n ->
      let terminals = 1 lsl n in
      let bitrev i =
        let r = ref 0 in
        for b = 0 to n - 1 do
          if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (n - 1 - b))
        done;
        !r
      in
      List.iter
        (fun (name, g) ->
          for i = 0 to terminals - 1 do
            match R.route g ~input:i ~output:(bitrev i) with
            | None -> Alcotest.fail (name ^ ": bit-reversal pair must route")
            | Some p ->
                check_int (name ^ " reaches reversed address") (bitrev i) p.R.output;
                check_int (name ^ " lands on reversed cell") (bitrev i / 2)
                  p.R.cells.(n - 1)
          done)
        (all_classical ~n))
    [ 2; 3 ]

let test_bad_terminals () =
  let g = baseline 3 in
  Alcotest.check_raises "bad input" (Invalid_argument "Routing: bad input") (fun () ->
      ignore (R.route g ~input:8 ~output:0));
  Alcotest.check_raises "bad output" (Invalid_argument "Routing: bad output") (fun () ->
      ignore (R.route g ~input:0 ~output:(-1)))

(* Kernel against oracle ----------------------------------------------- *)

let outcome f = match f () with v -> Ok v | exception Failure _ -> Error ()

(* On one network: the schedule, the per-cell words and every
   single-pair path from a few inputs, [Failure] (several paths, not
   Banyan) agreeing like any other answer. *)
let kernel_agrees rng p net =
  let inputs = List.init 3 (fun _ -> Random.State.int rng (O.terminals net)) in
  R.schedule p = O.delta_schedule net
  && outcome (fun () -> R.port_words p) = outcome (fun () -> O.port_words net)
  && List.for_all
       (fun input ->
         List.for_all
           (fun output ->
             outcome (fun () -> R.walk p ~input ~output)
             = outcome (fun () -> O.route net ~input ~output))
           (List.init (O.terminals net) Fun.id))
       inputs

(* Bit_follow's control digits equal the oracle's tag table, and both
   exist exactly when the network is delta. *)
let control_agrees router net =
  match (router, O.destination_tag_table net) with
  | None, None -> true
  | Some bf, Some table ->
      Array.for_all Fun.id
        (Array.mapi
           (fun s row ->
             Array.for_all Fun.id
               (Array.mapi (fun output d -> BF.control bf ~stage:s ~output = d) row))
           table)
  | _ -> false

(* Binary draws: a classical network or a seeded random / PIPID /
   buddy / relabelled-Baseline one, optionally reversed, n = 2..7. *)
let binary_draw =
  QCheck.make
    ~print:(fun (n, kind, seed, rev) ->
      Printf.sprintf "n=%d kind=%d seed=%d reverse=%b" n kind seed rev)
    QCheck.Gen.(quad (int_range 2 7) (int_bound 4) (int_bound 1_000_000) bool)

let binary_network (n, kind, seed, rev) =
  let rng = rng_of seed in
  let g =
    match kind with
    | 0 ->
        let nets = all_classical ~n in
        snd (List.nth nets (seed mod List.length nets))
    | 1 -> Mineq.Link_spec.random_network rng ~n
    | 2 -> Mineq.Link_spec.random_pipid_network rng ~n
    | 3 -> Mineq.Counterexample.random_buddy_network rng ~n
    | _ -> Mineq.Counterexample.relabelled_equivalent rng (baseline n)
  in
  if rev then M.reverse g else g

(* Radix draws at r = 3 and 4, n = 2..4: the classical inventory or a
   seeded random / PIPID network, optionally reversed. *)
let radix_draw =
  QCheck.make
    ~print:(fun (r, n, kind, seed) -> Printf.sprintf "r=%d n=%d kind=%d seed=%d" r n kind seed)
    QCheck.Gen.(quad (int_range 3 4) (int_range 2 4) (int_bound 5) (int_bound 1_000_000))

let radix_network (radix, n, kind, seed) =
  let module Rb = Mineq_radix.Rbuild in
  let rng = rng_of seed in
  let g =
    match kind / 2 with
    | 0 ->
        let nets = Rb.all_networks ~radix ~n in
        snd (List.nth nets (seed mod List.length nets))
    | 1 -> Rb.random_network rng ~radix ~n
    | _ -> Rb.random_pipid_network rng ~radix ~n
  in
  if kind mod 2 = 1 then Mineq_radix.Rnetwork.reverse g else g

let props =
  [ qcheck "every pair routes on Banyan PIPID networks" ~count:30 n_and_seed
      (fun (n, seed) ->
        let rng = rng_of seed in
        let g = random_banyan_pipid rng ~n in
        let terminals = M.inputs g in
        let input = Random.State.int rng terminals in
        let output = Random.State.int rng terminals in
        match R.route g ~input ~output with
        | None -> false
        | Some p ->
            p.R.cells.(0) = input / 2 && p.R.cells.(n - 1) = output / 2);
    qcheck "PIPID Banyan networks are delta (bit-directed routing)" ~count:30 n_and_seed
      (fun (n, seed) ->
        R.is_delta (random_banyan_pipid (rng_of seed) ~n));
    qcheck "PIPID Banyan networks are bidelta" ~count:15
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 5) (int_bound 100000)))
      (fun (n, seed) -> R.is_bidelta (random_banyan_pipid (rng_of seed) ~n));
    qcheck "route in the reverse network retraces the cells" ~count:25 n_and_seed
      (fun (n, seed) ->
        let rng = rng_of seed in
        let nets = all_classical ~n in
        let name, g = List.nth nets (Random.State.int rng (List.length nets)) in
        let terminals = M.inputs g in
        let input = Random.State.int rng terminals in
        let output = Random.State.int rng terminals in
        match (R.route g ~input ~output, R.route (M.reverse g) ~input:output ~output:input)
        with
        | Some p, Some q ->
            (* stage k of G^-1 is stage n+1-k of G: the cell sequence
               comes back reversed *)
            Array.for_all2 ( = ) q.R.cells
              (Array.init n (fun s -> p.R.cells.(n - 1 - s)))
        | _ -> QCheck.Test.fail_reportf "%s: both directions must route" name);
    qcheck "link loads of a full permutation: every path routed" ~count:20 n_and_seed
      (fun (n, seed) ->
        let rng = rng_of seed in
        let g = random_banyan_pipid rng ~n in
        let terminals = M.inputs g in
        let p = Mineq_perm.Perm.random rng terminals in
        let pairs = List.init terminals (fun i -> (i, Mineq_perm.Perm.apply p i)) in
        (R.link_loads g pairs).paths_routed = terminals);
    qcheck "packed kernels equal the path oracle (binary)" ~count:200 binary_draw
      (fun draw ->
        let g = binary_network draw in
        let _, _, seed, _ = draw in
        kernel_agrees (rng_of seed) (M.packed g) (O.of_network g));
    qcheck "packed kernels equal the path oracle (radix 3 and 4)" ~count:150 radix_draw
      (fun draw ->
        let g = radix_network draw in
        let _, _, _, seed = draw in
        kernel_agrees (rng_of seed) (Mineq_radix.Rnetwork.packed g) (O.of_rnetwork g));
    qcheck "Bit_follow control equals the oracle's tag table (binary)" ~count:100 binary_draw
      (fun draw ->
        let g = binary_network draw in
        control_agrees (BF.of_network g) (O.of_network g));
    qcheck "Bit_follow control equals the oracle's tag table (radix)" ~count:100 radix_draw
      (fun draw ->
        let g = radix_network draw in
        control_agrees (BF.of_rnetwork g) (O.of_rnetwork g))
  ]

let suite =
  [ quick "route endpoints" test_route_endpoints;
    quick "route follows arcs" test_route_follows_arcs;
    quick "route_all_from consistency" test_route_all_from_consistent;
    quick "port word is a destination tag" test_port_word_is_destination_tag;
    quick "classical delta/bidelta" test_classical_delta_bidelta;
    quick "baseline tag spells the address" test_baseline_tag_is_destination_address;
    quick "destination tag table" test_destination_tag_table;
    quick "non-delta Banyan exists" test_non_delta_network;
    quick "link loads single path" test_link_loads_single_path;
    quick "link loads conflict" test_link_loads_conflict;
    quick "admissible pairs" test_admissible_pairs;
    quick "identity at smallest widths" test_identity_smallest_widths;
    quick "bit reversal at smallest widths" test_bit_reversal_smallest_widths;
    quick "bad terminals rejected" test_bad_terminals
  ]
  @ props
