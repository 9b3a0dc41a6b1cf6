(* Shared test utilities. *)

let rng_of seed = Random.State.make [| seed; 0x6d696e65; 0x71 |]

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let check_int name expected actual = Alcotest.(check int) name expected actual

let check_true name actual = check_bool name true actual

let check_false name actual = check_bool name false actual

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Generators --------------------------------------------------------- *)

(* A deterministic seed per generated case, so qcheck shrinking stays
   reproducible: generate an int seed, derive everything from it. *)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let small_n_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 6)

let n_and_seed =
  QCheck.pair small_n_gen seed_gen

let random_theta rng n = Mineq_perm.Perm.random rng n

(* A random Banyan PIPID network.  A degenerate stage (theta^-1 0 = 0)
   always breaks the Banyan property, but avoiding those is not
   sufficient (e.g. two identical butterfly stages create parallel
   paths), so rejection-sample on the Banyan check itself. *)
let random_banyan_pipid rng ~n =
  let stage () =
    let rec pick () =
      let theta = random_theta rng n in
      if Mineq.Pipid_net.is_degenerate ~n theta then pick () else theta
    in
    pick ()
  in
  let rec attempt () =
    let g = Mineq.Link_spec.network_of_thetas ~n (List.init (n - 1) (fun _ -> stage ())) in
    if Mineq.Banyan.is_banyan g then g else attempt ()
  in
  attempt ()

let all_classical ~n = Mineq.Classical.all_networks ~n

(* The same network with one cell's two output ports exchanged at
   [gap]: the digraph is unchanged, the port assignment is not. *)
let swap_ports g ~gap ~cell =
  let module C = Mineq.Connection in
  Mineq.Mi_digraph.map_gaps g (fun i c ->
      if i <> gap then c
      else begin
        let f = Array.init (C.half c) (C.f c) and g = Array.init (C.half c) (C.g c) in
        f.(cell) <- C.g c cell;
        g.(cell) <- C.f c cell;
        C.of_arrays ~width:(C.width c) f g
      end)

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
    | _ -> Mineq.Counterexample.relabelled_equivalent rng (Mineq.Baseline.network n)
  in
  if rev then Mineq.Mi_digraph.reverse g else g

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
