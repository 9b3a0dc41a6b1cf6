(* The lib/route subsystem: fabrics, switch-state plans, Benes looping,
   destination-tag setup, expansion planes and the blocking survey. *)

open Helpers
module F = Mineq_route.Fabric
module Plan = Mineq_route.Plan
module Loop = Mineq_route.Loop
module BF = Mineq_route.Bit_follow
module Planes = Mineq_route.Planes
module Survey = Mineq_route.Survey
module M = Mineq.Mi_digraph
module Perm = Mineq_perm.Perm

let shuffle rng img =
  let n = Array.length img in
  for i = 0 to n - 1 do
    img.(i) <- i
  done;
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = img.(i) in
    img.(i) <- img.(j);
    img.(j) <- tmp
  done

(* Fabric ------------------------------------------------------------- *)

let test_fabric_of_network () =
  let g = Mineq.Classical.network Omega ~n:4 in
  let fab = F.of_network g in
  check_int "stages" 4 fab.F.stages;
  check_int "radix" 2 fab.F.radix;
  check_int "per" 8 fab.F.per;
  check_int "terminals" 16 (F.terminals fab);
  check_int "cells" 32 (F.cell_count fab);
  for s = 0 to 2 do
    for x = 0 to 7 do
      let cf, cg = M.children g ~stage:(s + 1) x in
      check_int "child port 0" cf fab.F.child.(s).((2 * x) + 0);
      check_int "child port 1" cg fab.F.child.(s).((2 * x) + 1)
    done;
    (* each child cell's two in-ports are claimed exactly once *)
    let seen = Array.make 16 false in
    Array.iteri
      (fun a y ->
        let slot = fab.F.in_port.(s).(a) in
        let key = (2 * y) + slot in
        check_false "in-port used once" seen.(key);
        seen.(key) <- true)
      fab.F.child.(s);
    check_true "all in-ports covered" (Array.for_all Fun.id seen)
  done

let test_fabric_of_cascade () =
  let n = 3 in
  let net = Mineq.Benes.network n in
  let fab = F.of_cascade net in
  check_int "stages" 5 fab.F.stages;
  check_int "per" 4 fab.F.per;
  check_int "terminals" 8 (F.terminals fab);
  for s = 0 to 3 do
    let conn = Mineq.Cascade.connection net (s + 1) in
    for x = 0 to 3 do
      let cf, cg = Mineq.Connection.children conn x in
      check_int "cascade child 0" cf fab.F.child.(s).(2 * x);
      check_int "cascade child 1" cg fab.F.child.(s).((2 * x) + 1)
    done
  done

(* Plan --------------------------------------------------------------- *)

let test_plan_claims () =
  let fab = F.of_network (Mineq.Classical.network Baseline_net ~n:3) in
  let plan = Plan.create fab in
  check_int "empty" 0 (Plan.set_count plan);
  check_true "claim free"
    (Plan.claim plan ~stage:1 ~cell:2 ~in_port:0 ~out_port:1 = Plan.Claimed);
  check_int "one assignment" 1 (Plan.set_count plan);
  check_true "identical re-claim ok"
    (Plan.claim plan ~stage:1 ~cell:2 ~in_port:0 ~out_port:1 = Plan.Claimed);
  check_int "re-claim adds nothing" 1 (Plan.set_count plan);
  check_true "busy input port"
    (Plan.claim plan ~stage:1 ~cell:2 ~in_port:0 ~out_port:0 = Plan.In_busy);
  check_true "busy output link"
    (Plan.claim plan ~stage:1 ~cell:2 ~in_port:1 ~out_port:1 = Plan.Out_busy);
  check_int "port recorded" 1 (Plan.port_of plan ~stage:1 ~cell:2 ~in_port:0);
  check_int "other port unset" (-1) (Plan.port_of plan ~stage:1 ~cell:2 ~in_port:1);
  check_true "out taken" (Plan.out_taken plan ~stage:1 ~cell:2 ~out_port:1);
  check_false "out free" (Plan.out_taken plan ~stage:1 ~cell:2 ~out_port:0);
  Plan.release plan ~stage:1 ~cell:2 ~in_port:0;
  check_int "released" 0 (Plan.set_count plan);
  check_int "port cleared" (-1) (Plan.port_of plan ~stage:1 ~cell:2 ~in_port:0);
  check_false "out released" (Plan.out_taken plan ~stage:1 ~cell:2 ~out_port:1);
  check_true "claim after release"
    (Plan.claim plan ~stage:1 ~cell:2 ~in_port:1 ~out_port:0 = Plan.Claimed);
  Plan.reset plan;
  check_int "reset" 0 (Plan.set_count plan)

let test_plan_radix_cap () =
  (* radix 16 needs 2*16 + 16*4 = 96 state bits: over one word. *)
  let fab = F.of_rnetwork (Mineq_radix.Rbuild.baseline ~radix:16 2) in
  Alcotest.check_raises "radix too large"
    (Invalid_argument "Plan.create: radix too large for one-word cell states") (fun () ->
      ignore (Plan.create fab))

(* Loop --------------------------------------------------------------- *)

let realize_on_benes router plan img =
  Plan.reset plan;
  Loop.route router plan img;
  Plan.realizes plan img

let test_loop_identity_and_bitrev () =
  for n = 2 to 5 do
    let router = Loop.create n in
    let plan = Loop.plan router in
    let nt = Loop.terminals router in
    let identity = Array.init nt Fun.id in
    check_true "identity realizes" (realize_on_benes router plan identity);
    let bitrev =
      Array.init nt (fun i ->
          let r = ref 0 in
          for b = 0 to n - 1 do
            if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (n - 1 - b))
          done;
          !r)
    in
    check_true "bit reversal realizes" (realize_on_benes router plan bitrev);
    check_int "every cell fully used" (nt * ((2 * n) - 1)) (Plan.set_count plan)
  done

let test_loop_exhaustive_n2 () =
  let router = Loop.create 2 in
  let plan = Loop.plan router in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun rest -> x :: rest) (perms (List.filter (( <> ) x) l)))
          l
  in
  let all = perms [ 0; 1; 2; 3 ] in
  check_int "4! permutations" 24 (List.length all);
  List.iter
    (fun img ->
      check_true "every permutation of 4 compiles"
        (realize_on_benes router plan (Array.of_list img)))
    all

let test_loop_rejects () =
  let router = Loop.create 3 in
  let plan = Loop.plan router in
  Alcotest.check_raises "size" (Invalid_argument "Loop.route: image size mismatch")
    (fun () -> Loop.route router plan [| 0; 1 |]);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Loop.route: image is not a permutation") (fun () ->
      Loop.route router plan [| 0; 0; 1; 2; 3; 4; 5; 6 |]);
  Alcotest.check_raises "range" (Invalid_argument "Loop.route: image entry out of range")
    (fun () -> Loop.route router plan [| 0; 1; 2; 3; 4; 5; 6; 8 |]);
  Alcotest.check_raises "below idle marker"
    (Invalid_argument "Loop.route: image entry out of range") (fun () ->
      Loop.route router plan [| 0; 1; 2; 3; 4; 5; 6; -2 |]);
  Alcotest.check_raises "live entries must not repeat"
    (Invalid_argument "Loop.route: image is not a permutation") (fun () ->
      Loop.route router plan [| 3; -1; 3; -1; -1; -1; -1; -1 |]);
  let other = Loop.create 4 in
  Alcotest.check_raises "foreign plan"
    (Invalid_argument "Loop.route: plan built for another fabric") (fun () ->
      Loop.route other plan (Array.init 16 Fun.id));
  Alcotest.check_raises "n too small" (Invalid_argument "Loop.create: need n >= 2")
    (fun () -> ignore (Loop.create 1))

let test_loop_partial () =
  let router = Loop.create 3 in
  let plan = Loop.plan router in
  (* route half the inputs, idle the rest *)
  let img = [| 5; -1; 0; -1; 7; -1; 2; -1 |] in
  Loop.route router plan img;
  check_true "partial image realizes" (Plan.realizes plan img);
  check_int "idle input stays unrouted" (-1) (Plan.propagate plan 1);
  check_int "only live paths claim cells" (4 * 5) (Plan.set_count plan);
  let back = Array.make 8 0 in
  Plan.fill_image plan back;
  check_true "fill_image reads the partial map back" (back = img);
  Alcotest.check_raises "fill_image checks length"
    (Invalid_argument "Plan.fill_image: image size mismatch") (fun () ->
      Plan.fill_image plan (Array.make 4 0));
  (* a reset plan takes a total permutation again *)
  Plan.reset plan;
  let total = [| 1; 0; 3; 2; 5; 4; 7; 6 |] in
  Loop.route router plan total;
  check_true "total after partial" (Plan.realizes plan total);
  (* the empty image is the empty plan *)
  Plan.reset plan;
  Loop.route router plan (Array.make 8 (-1));
  check_int "empty image claims nothing" 0 (Plan.set_count plan)

(* Bit_follow --------------------------------------------------------- *)

let test_bit_follow_matches_routing () =
  let g = Mineq.Classical.network Omega ~n:4 in
  let bf = Option.get (BF.of_network g) in
  let plan = Plan.create (BF.fabric bf) in
  for input = 0 to 15 do
    for output = 0 to 15 do
      (match Mineq.Routing.route g ~input ~output with
      | None -> Alcotest.fail "omega routes every pair"
      | Some p ->
          (* the control table is exactly the path's port choices *)
          Array.iteri
            (fun s port -> check_int "control digit" port (BF.control bf ~stage:s ~output))
            p.Mineq.Routing.ports);
      Plan.reset plan;
      check_true "single path routes" (BF.try_route bf plan ~input ~output);
      check_int "path delivers" output (Plan.propagate plan input)
    done
  done

let test_bit_follow_matches_radix_walk () =
  let g = Mineq_radix.Rbuild.omega ~radix:3 2 in
  let bf = Option.get (BF.of_rnetwork g) in
  let plan = Plan.create (BF.fabric bf) in
  for input = 0 to 8 do
    for output = 0 to 8 do
      (match Mineq.Routing.walk (Mineq_radix.Rnetwork.packed g) ~input ~output with
      | None -> Alcotest.fail "radix omega routes every pair"
      | Some p ->
          Array.iteri
            (fun s port ->
              check_int "radix control digit" port (BF.control bf ~stage:s ~output))
            p.Mineq.Routing.ports);
      Plan.reset plan;
      check_true "radix path routes" (BF.try_route bf plan ~input ~output);
      check_int "radix path delivers" output (Plan.propagate plan input)
    done
  done

let test_bit_follow_blocked () =
  (* On Baseline the tag spells the address, so inputs 0 and 1 both
     need out-port 0 of cell 0 at stage 1 for outputs 0 and 1. *)
  let g = Mineq.Classical.network Baseline_net ~n:4 in
  let bf = Option.get (BF.of_network g) in
  let plan = Plan.create (BF.fabric bf) in
  check_true "first path routes" (BF.try_route bf plan ~input:0 ~output:0);
  let count = Plan.set_count plan in
  check_int "one assignment per stage" 4 count;
  (match BF.route bf plan ~input:1 ~output:1 with
  | BF.Routed -> Alcotest.fail "expected a blocked path"
  | BF.Blocked b ->
      check_int "blocked input" 1 b.BF.input;
      check_int "blocked output" 1 b.BF.output;
      check_int "contested stage" 0 b.BF.stage;
      check_int "contested cell" 0 b.BF.cell;
      check_int "contested port" 0 b.BF.port);
  check_int "blocked attempt unwound" count (Plan.set_count plan);
  check_int "first path intact" 0 (Plan.propagate plan 0);
  check_false "try_route agrees" (BF.try_route bf plan ~input:1 ~output:1);
  check_int "still unwound" count (Plan.set_count plan)

let test_non_delta_rejected () =
  let rng = rng_of 80 in
  let rec find attempts =
    if attempts = 0 then None
    else
      match Mineq.Counterexample.random_buddy_banyan rng ~n:4 ~attempts:2000 with
      | None -> None
      | Some g -> if Mineq.Routing.is_delta g then find (attempts - 1) else Some g
  in
  match find 20 with
  | None -> Alcotest.fail "expected a non-delta Banyan instance"
  | Some g -> check_true "no router for non-delta" (Option.is_none (BF.of_network g))

(* Planes ------------------------------------------------------------- *)

let test_planes_recover_blocked_pair () =
  let g = Mineq.Classical.network Baseline_net ~n:4 in
  let bf = Option.get (BF.of_network g) in
  let ens = Planes.create bf ~planes:2 in
  check_int "first pair on plane 0" 0 (Planes.try_connect ens ~input:0 ~output:0);
  check_int "conflicting pair escapes to plane 1" 1
    (Planes.try_connect ens ~input:1 ~output:1);
  check_int "plane recorded" 1 (Planes.plane_of ens 1);
  check_int "delivery on plane 0" 0 (Plan.propagate (Planes.plan ens 0) 0);
  check_int "delivery on plane 1" 1 (Plan.propagate (Planes.plan ens 1) 1);
  check_int "idempotent reconnect" 1 (Planes.try_connect ens ~input:1 ~output:1);
  check_int "diverted input rejected" (-1) (Planes.try_connect ens ~input:1 ~output:2);
  Planes.reset ens;
  check_int "reset clears assignment" (-1) (Planes.plane_of ens 0)

let test_planes_monotone () =
  let g = Mineq.Classical.network Omega ~n:4 in
  let bf = Option.get (BF.of_network g) in
  let img = Array.make 16 0 in
  shuffle (rng_of 7) img;
  let routed k =
    let ens = Planes.create bf ~planes:k in
    Planes.connect_all ens img
  in
  let r1 = routed 1 in
  let r2 = routed 2 in
  let r16 = routed 16 in
  check_true "more planes, no fewer connections" (r1 <= r2 && r2 <= r16);
  check_int "enough planes connect everything" 16 r16

(* Survey ------------------------------------------------------------- *)

let test_survey_jobs_invariant () =
  let run jobs = Survey.run ~jobs ~seed:99 ~n:3 ~planes:2 ~trials:30 () in
  let rows = run 1 in
  check_int "all classical networks are delta" 6 (List.length rows);
  check_true "jobs=3 tallies bit-identical" (List.for_all2 ( = ) rows (run 3));
  List.iter
    (fun r ->
      check_int "pairs total" (30 * 8) r.Survey.pairs_total;
      check_true "fractions in range"
        (Survey.routed_fraction r >= 0.0
        && Survey.routed_fraction r <= 1.0
        && Survey.full_fraction r <= 1.0);
      check_true "full permutations need all pairs"
        (r.Survey.pairs_routed >= 8 * r.Survey.full))
    rows

(* Properties --------------------------------------------------------- *)

let props =
  [ qcheck "looping realizes every random permutation" ~count:40
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 6) (int_bound 100_000)))
      (fun (n, seed) ->
        let router = Loop.create n in
        let plan = Loop.plan router in
        let img = Array.make (Loop.terminals router) 0 in
        shuffle (rng_of seed) img;
        Plan.reset plan;
        Loop.route router plan img;
        Plan.realizes plan img);
    qcheck "looping realizes every random partial image" ~count:40
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 6) (int_bound 100_000)))
      (fun (n, seed) ->
        let rng = rng_of seed in
        let router = Loop.create n in
        let plan = Loop.plan router in
        let nt = Loop.terminals router in
        let perm = Array.make nt 0 in
        shuffle rng perm;
        (* keep each pair of the permutation with probability 1/2 *)
        let img = Array.map (fun o -> if Random.State.bool rng then o else -1) perm in
        Plan.reset plan;
        Loop.route router plan img;
        let stages = (2 * n) - 1 in
        let live = Array.fold_left (fun acc o -> if o >= 0 then acc + 1 else acc) 0 img in
        Plan.realizes plan img
        && Plan.set_count plan = live * stages
        && Array.for_all Fun.id
             (Array.init nt (fun i -> img.(i) >= 0 || Plan.propagate plan i = -1)));
    qcheck "looping agrees with Benes.route_permutation endpoints" ~count:20
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 4) (int_bound 100_000)))
      (fun (n, seed) ->
        let router = Loop.create n in
        let plan = Loop.plan router in
        let p = Perm.random (rng_of seed) (1 lsl n) in
        Plan.reset plan;
        Loop.route_perm router plan p;
        Array.for_all2 ( = ) (Plan.to_array plan) (Perm.to_array p));
    qcheck "enough planes realize any permutation on any classical network" ~count:25
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 5) (int_bound 100_000)))
      (fun (n, seed) ->
        let rng = rng_of seed in
        let nt = 1 lsl n in
        let img = Array.make nt 0 in
        shuffle rng img;
        List.for_all
          (fun (_name, g) ->
            let bf = Option.get (BF.of_network g) in
            let ens = Planes.create bf ~planes:nt in
            Planes.connect_all ens img = nt
            && Array.for_all Fun.id
                 (Array.init nt (fun i ->
                      Plan.propagate (Planes.plan ens (Planes.plane_of ens i)) i = img.(i))))
          (all_classical ~n));
    qcheck "greedy plane assignment is deterministic" ~count:20
      (QCheck.make
         ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
         QCheck.Gen.(pair (int_range 2 5) (int_bound 100_000)))
      (fun (n, seed) ->
        (* first-fit has no randomness: two fresh ensembles fed the
           same permutation agree on every plane choice *)
        let rng = rng_of seed in
        let nt = 1 lsl n in
        let img = Array.make nt 0 in
        shuffle rng img;
        let g = Mineq.Classical.network Omega ~n in
        let bf = Option.get (BF.of_network g) in
        let a = Planes.create bf ~planes:4 in
        let b = Planes.create bf ~planes:4 in
        let ra = Planes.connect_all a img in
        let rb = Planes.connect_all b img in
        ra = rb
        && Array.for_all Fun.id
             (Array.init nt (fun i -> Planes.plane_of a i = Planes.plane_of b i)))
  ]

let suite =
  [ quick "fabric from a packed network" test_fabric_of_network;
    quick "fabric from the Benes cascade" test_fabric_of_cascade;
    quick "plan claim/release semantics" test_plan_claims;
    quick "plan rejects wide radix" test_plan_radix_cap;
    quick "looping: identity and bit reversal" test_loop_identity_and_bitrev;
    quick "looping: all permutations at n=2" test_loop_exhaustive_n2;
    quick "looping: bad inputs rejected" test_loop_rejects;
    quick "looping: partial images route" test_loop_partial;
    quick "bit_follow matches Routing.route" test_bit_follow_matches_routing;
    quick "bit_follow matches the radix walk" test_bit_follow_matches_radix_walk;
    quick "bit_follow reports the contested link" test_bit_follow_blocked;
    quick "non-delta networks have no router" test_non_delta_rejected;
    quick "planes recover a blocked pair" test_planes_recover_blocked_pair;
    quick "planes are monotone in k" test_planes_monotone;
    quick "survey is jobs-invariant" test_survey_jobs_invariant
  ]
  @ props
