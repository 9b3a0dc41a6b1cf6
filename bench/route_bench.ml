(* Routing bench artifact: permutations per second for the Benes
   looping compiler, destination-tag path setup throughput, plane
   ensembles, and connection churn (incremental rearrangement vs full
   recompile), written to BENCH_route.json.

   Every measured hot path is required to allocate nothing: each row
   carries a [*_minor_w] column (minor-heap words per operation) and
   the process exits 1 if any of them is above zero — the regression
   gate for the preallocated-scratch design of lib/route.  A second
   gate routes 1000 random permutations on the n = 12 Benes (4096
   terminals, 23 stages) and verifies each against Plan.realizes;
   looping must never fail on a Benes, so any failure is a bug, not a
   statistic.

   Run with --smoke for a tiny-budget crash/format check (the n = 12
   gate then runs 10 trials). *)

module Loop = Mineq_route.Loop
module Plan = Mineq_route.Plan
module Bit_follow = Mineq_route.Bit_follow
module Planes = Mineq_route.Planes
module Rearrange = Mineq_route.Rearrange
module Seeds = Mineq_engine.Seeds

let smoke = Bench_util.smoke_requested ()

let shuffle st img =
  let n = Array.length img in
  for i = 0 to n - 1 do
    img.(i) <- i
  done;
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = img.(i) in
    img.(i) <- img.(j);
    img.(j) <- tmp
  done

(* A fixed pool of permutations, drawn outside the measured region so
   the hot path only routes. *)
let perm_pool st ~terminals ~count =
  Array.init count (fun _ ->
      let img = Array.make terminals 0 in
      shuffle st img;
      img)

type loop_row = {
  l_n : int;
  l_terminals : int;
  l_stages : int;
  l_us : float;
  l_minor_w : float;
}

let loop_row st ~n ~reps =
  let router = Loop.create n in
  let plan = Loop.plan router in
  let pool = perm_pool st ~terminals:(Loop.terminals router) ~count:32 in
  let k = ref 0 in
  let op () =
    let img = pool.(!k land 31) in
    incr k;
    Plan.reset plan;
    Loop.route router plan img
  in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  let minor_w = Bench_util.minor_words_per_op ~reps op in
  Printf.printf "benes_loop_n%-2d   %8.1f us/perm   %10.0f perms/s   minor %.1f w\n%!" n us
    (1e6 /. us) minor_w;
  { l_n = n;
    l_terminals = Loop.terminals router;
    l_stages = (2 * n) - 1;
    l_us = us;
    l_minor_w = minor_w
  }

type bf_row = {
  b_name : string;
  b_n : int;
  b_pairs : int;
  b_routed : int;  (** pairs of the fixed test permutation that connect *)
  b_us : float;  (** per full-permutation setup attempt *)
  b_minor_w : float;
}

(* Module level so the measured closure does not rebuild it per call. *)
let rec setup_all router plan img i acc =
  if i = Array.length img then acc
  else if Bit_follow.try_route router plan ~input:i ~output:img.(i) then
    setup_all router plan img (i + 1) (acc + 1)
  else setup_all router plan img (i + 1) acc

let bit_follow_row st ~n ~reps =
  let g = Mineq.Classical.network Omega ~n in
  let router = Option.get (Bit_follow.of_network g) in
  let plan = Plan.create (Bit_follow.fabric router) in
  let terminals = 1 lsl n in
  let img = Array.make terminals 0 in
  shuffle st img;
  let routed = ref 0 in
  let op () =
    Plan.reset plan;
    routed := setup_all router plan img 0 0
  in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  let minor_w = Bench_util.minor_words_per_op ~reps op in
  let name = Printf.sprintf "omega_n%d_tag_setup" n in
  Printf.printf "%-16s %8.1f us/perm   routed %d/%d   minor %.1f w\n%!" name us !routed
    terminals minor_w;
  { b_name = name; b_n = n; b_pairs = terminals; b_routed = !routed; b_us = us;
    b_minor_w = minor_w }

type planes_row = {
  p_planes : int;
  p_n : int;
  p_routed : int;
  p_pairs : int;
  p_us : float;
  p_minor_w : float;
}

let planes_row st ~n ~planes ~reps =
  let g = Mineq.Classical.network Omega ~n in
  let router = Option.get (Bit_follow.of_network g) in
  let ens = Planes.create router ~planes in
  let terminals = 1 lsl n in
  let img = Array.make terminals 0 in
  shuffle st img;
  let routed = ref 0 in
  let op () =
    Planes.reset ens;
    routed := Planes.connect_all ens img
  in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  let minor_w = Bench_util.minor_words_per_op ~reps op in
  Printf.printf "omega_n%d_planes%d %8.1f us/perm   routed %d/%d   minor %.1f w\n%!" n planes
    us !routed terminals minor_w;
  { p_planes = planes; p_n = n; p_routed = !routed; p_pairs = terminals; p_us = us;
    p_minor_w = minor_w }

(* Connection churn: incremental rearrangement vs full recompile.

   Each row holds a live (possibly partial) configuration on B(n) and
   measures three steady-state workloads:
   - toggle: disconnect one input and reconnect the same pair — the
     single-connection churn the speedup gate targets;
   - swap: two disconnects + two cross-connects exchanging the
     outputs of two inputs — churn that actually exercises the
     alternating-chain rearrangement (moved_per_connect reports how
     much);
   - full: Plan.reset + Loop.route of the current image — what every
     connection change cost before the incremental engine.
   After each measured workload the plan must still realize the
   tracked image and pass the engine's self-check; failures feed the
   bench's exit-1 gate, as do non-zero minor-word rates.

   The swap workload gets its own (smaller) rep budget: rearrangement
   chains terminate only at free switch slots, so at full occupancy
   they sweep most of the fabric and cascade through the recursion
   levels — the n = 8 occupancy-1.0 row keeps that pathology on
   record (hundreds of connections moved per connect), while the
   larger rows run at 90% occupancy where chains stay short.  Toggle
   never rearranges (the freed slots are re-taken with the same
   colours), so its cost is occupancy-independent. *)
type churn_row = {
  c_n : int;
  c_occupancy : float;
  c_live : int;
  c_toggle_us : float;  (* per connection change (disconnect + reconnect) *)
  c_swap_us : float;  (* per connection change (swap moves two) *)
  c_full_us : float;  (* per full recompile of the same image *)
  c_moved : float;  (* connections rearranged per swap-workload connect *)
  c_toggle_minor_w : float;
  c_swap_minor_w : float;
  c_full_minor_w : float;
  c_failures : int;
}

let churn_row st ~n ~occupancy ~reps ~swap_reps ~full_reps =
  let loop = Loop.create n in
  let rr = Rearrange.of_loop loop in
  let plan = Rearrange.plan rr in
  let nt = Rearrange.terminals rr in
  (* a random image at the requested occupancy, compiled by the
     looping algorithm and adopted via rescan — the bench thereby
     also covers the compile-then-churn handoff *)
  let perm = Array.make nt 0 in
  shuffle st perm;
  let order = Array.make nt 0 in
  shuffle st order;
  let live = int_of_float ((occupancy *. float_of_int nt) +. 0.5) in
  let img = Array.make nt (-1) in
  for k = 0 to live - 1 do
    img.(order.(k)) <- perm.(order.(k))
  done;
  Plan.reset plan;
  Loop.route loop plan img;
  Rearrange.rescan rr;
  (* schedules drawn outside the measured region: live inputs to
     toggle, and distinct live pairs to swap *)
  let tsched = Array.init 256 (fun _ -> order.(Random.State.int st live)) in
  let sched_a = Array.make 256 0 in
  let sched_b = Array.make 256 0 in
  for j = 0 to 255 do
    let a = Random.State.int st live in
    let rec other () =
      let b = Random.State.int st live in
      if b = a then other () else b
    in
    sched_a.(j) <- order.(a);
    sched_b.(j) <- order.(other ())
  done;
  let k = ref 0 in
  let op_toggle () =
    let i = tsched.(!k land 255) in
    incr k;
    ignore (Rearrange.disconnect rr ~input:i);
    ignore (Rearrange.connect rr ~input:i ~output:img.(i))
  in
  let op_swap () =
    let a = sched_a.(!k land 255) in
    let b = sched_b.(!k land 255) in
    incr k;
    let oa = img.(a) in
    let ob = img.(b) in
    ignore (Rearrange.disconnect rr ~input:a);
    ignore (Rearrange.disconnect rr ~input:b);
    ignore (Rearrange.connect rr ~input:a ~output:ob);
    ignore (Rearrange.connect rr ~input:b ~output:oa);
    img.(a) <- ob;
    img.(b) <- oa
  in
  let plan2 = Loop.plan loop in
  let op_full () =
    Plan.reset plan2;
    Loop.route loop plan2 img
  in
  let failures = ref 0 in
  let sound () =
    if not (Plan.realizes plan img && Rearrange.consistent rr) then incr failures
  in
  let reps = Bench_util.scaled_reps ~reps in
  let swap_reps = Bench_util.scaled_reps ~reps:swap_reps in
  let full_reps = Bench_util.scaled_reps ~reps:full_reps in
  let toggle_us = Bench_util.time_us ~reps op_toggle in
  let toggle_minor_w = Bench_util.minor_words_per_op ~reps op_toggle in
  sound ();
  let moved0 = Rearrange.moved_total rr in
  let connects0 = Rearrange.connects rr in
  let swap_us = Bench_util.time_us ~reps:swap_reps op_swap /. 2.0 in
  let swap_minor_w = Bench_util.minor_words_per_op ~reps:swap_reps op_swap in
  sound ();
  let moved =
    float_of_int (Rearrange.moved_total rr - moved0)
    /. float_of_int (max 1 (Rearrange.connects rr - connects0))
  in
  let full_us = Bench_util.time_us ~reps:full_reps op_full in
  let full_minor_w = Bench_util.minor_words_per_op ~reps:full_reps op_full in
  if not (Plan.realizes plan2 img) then incr failures;
  Printf.printf
    "churn_n%-2d_occ%-3.0f toggle %6.2f us/conn  swap %6.2f us/conn  full %8.1f us  \
     %5.0fx  moved %.2f  minor %.1f/%.1f/%.1f w\n\
     %!"
    n (100.0 *. occupancy) toggle_us swap_us full_us
    (if toggle_us > 0.0 then full_us /. toggle_us else 0.0)
    moved toggle_minor_w swap_minor_w full_minor_w;
  { c_n = n;
    c_occupancy = occupancy;
    c_live = live;
    c_toggle_us = toggle_us;
    c_swap_us = swap_us;
    c_full_us = full_us;
    c_moved = moved;
    c_toggle_minor_w = toggle_minor_w;
    c_swap_minor_w = swap_minor_w;
    c_full_minor_w = full_minor_w;
    c_failures = !failures
  }

(* Gate: random mixed churn (the survey's toggle policy) must leave
   the engine in a state a from-scratch compile of the same partial
   image reproduces exactly. *)
let rec churn_free_output st rr nt =
  let o = Random.State.int st nt in
  if Rearrange.input_of rr o < 0 then o else churn_free_output st rr nt

let churn_gate st ~ops =
  let loop = Loop.create 10 in
  let rr = Rearrange.of_loop loop in
  let nt = Rearrange.terminals rr in
  for _ = 1 to ops do
    let i = Random.State.int st nt in
    if Rearrange.output_of rr i >= 0 then ignore (Rearrange.disconnect rr ~input:i)
    else ignore (Rearrange.connect rr ~input:i ~output:(churn_free_output st rr nt))
  done;
  let img = Rearrange.image rr in
  let scratch = Loop.plan loop in
  Loop.route loop scratch img;
  let failures =
    (if Rearrange.consistent rr then 0 else 1)
    + (if Plan.realizes (Rearrange.plan rr) img then 0 else 1)
    + if Plan.to_array (Rearrange.plan rr) = Plan.to_array scratch then 0 else 1
  in
  Printf.printf "churn gate: %d random ops at n=10, %d failure(s)\n%!" ops failures;
  failures

(* Gate: the looping algorithm must route every permutation on a
   Benes; verify [trials] random ones at n = 12 against the plan's own
   propagation. *)
let loop_gate st ~trials =
  let router = Loop.create 12 in
  let plan = Loop.plan router in
  let img = Array.make (Loop.terminals router) 0 in
  let failures = ref 0 in
  for _ = 1 to trials do
    shuffle st img;
    Plan.reset plan;
    Loop.route router plan img;
    if not (Plan.realizes plan img) then incr failures
  done;
  Printf.printf "loop gate: %d/%d random permutations realized at n=12\n%!"
    (trials - !failures) trials;
  !failures

let () =
  let st = Seeds.state 0x526f757465 in
  Printf.printf "route bench%s\n%!" (if smoke then " (smoke)" else "");
  (* explicit lets: list literals evaluate right to left, which would
     reverse the printed progress *)
  let l4 = loop_row st ~n:4 ~reps:2000 in
  let l8 = loop_row st ~n:8 ~reps:400 in
  let l10 = loop_row st ~n:10 ~reps:100 in
  let l12 = loop_row st ~n:12 ~reps:25 in
  let loops = [ l4; l8; l10; l12 ] in
  let b6 = bit_follow_row st ~n:6 ~reps:1000 in
  let b10 = bit_follow_row st ~n:10 ~reps:100 in
  let bfs = [ b6; b10 ] in
  let p1 = planes_row st ~n:8 ~planes:1 ~reps:200 in
  let p2 = planes_row st ~n:8 ~planes:2 ~reps:200 in
  let p4 = planes_row st ~n:8 ~planes:4 ~reps:200 in
  let planes = [ p1; p2; p4 ] in
  let c8 = churn_row st ~n:8 ~occupancy:1.0 ~reps:20000 ~swap_reps:2000 ~full_reps:400 in
  let c10 = churn_row st ~n:10 ~occupancy:0.9 ~reps:10000 ~swap_reps:2000 ~full_reps:100 in
  let c10h = churn_row st ~n:10 ~occupancy:0.5 ~reps:10000 ~swap_reps:4000 ~full_reps:100 in
  let c12 = churn_row st ~n:12 ~occupancy:0.9 ~reps:5000 ~swap_reps:100 ~full_reps:25 in
  let churns = [ c8; c10; c10h; c12 ] in
  let churn_ops = if smoke then 200 else 20000 in
  let churn_failures =
    churn_gate st ~ops:churn_ops
    + List.fold_left (fun acc r -> acc + r.c_failures) 0 churns
  in
  (* single-connection churn must beat the full recompile by at least
     5x wherever the fabric is large enough for the gap to be
     structural rather than noise (n >= 10).  A toggle too fast for
     the timer (smoke budgets) reads as 0.0 us; report that as
     speedup 0.0 rather than inf (which is not JSON) and let it pass
     the gate. *)
  let speedup r = if r.c_toggle_us > 0.0 then r.c_full_us /. r.c_toggle_us else 0.0 in
  let churn_speedup_ok =
    List.for_all
      (fun r -> r.c_n < 10 || r.c_toggle_us <= 0.0 || speedup r >= 5.0)
      churns
  in
  let trials = if smoke then 10 else 1000 in
  let failures = loop_gate st ~trials in
  let alloc_rows =
    List.map (fun r -> r.l_minor_w) loops
    @ List.map (fun r -> r.b_minor_w) bfs
    @ List.map (fun r -> r.p_minor_w) planes
    @ List.concat_map
        (fun r -> [ r.c_toggle_minor_w; r.c_swap_minor_w; r.c_full_minor_w ])
        churns
  in
  let zero_alloc = List.for_all (fun w -> w <= 0.0) alloc_rows in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string buf "  \"benes_loop\": [\n";
  let last = List.length loops - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"terminals\": %d, \"stages\": %d, \"us_per_perm\": %.2f, \
            \"perms_per_sec\": %.0f, \"route_minor_w\": %.1f}%s\n"
           r.l_n r.l_terminals r.l_stages r.l_us (1e6 /. r.l_us) r.l_minor_w
           (if i = last then "" else ",")))
    loops;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"bit_follow\": [\n";
  let last = List.length bfs - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"n\": %d, \"pairs\": %d, \"routed\": %d, \
            \"us_per_perm\": %.2f, \"try_route_minor_w\": %.1f}%s\n"
           r.b_name r.b_n r.b_pairs r.b_routed r.b_us r.b_minor_w
           (if i = last then "" else ",")))
    bfs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"planes\": [\n";
  let last = List.length planes - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"planes\": %d, \"routed\": %d, \"pairs\": %d, \
            \"us_per_perm\": %.2f, \"connect_minor_w\": %.1f}%s\n"
           r.p_n r.p_planes r.p_routed r.p_pairs r.p_us r.p_minor_w
           (if i = last then "" else ",")))
    planes;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"churn\": [\n";
  let last = List.length churns - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"occupancy\": %.2f, \"live\": %d, \
            \"toggle_us_per_conn\": %.3f, \"swap_us_per_conn\": %.3f, \
            \"full_us_per_recompile\": %.2f, \"speedup_vs_full\": %.1f, \
            \"moved_per_swap_connect\": %.3f, \"toggle_minor_w\": %.1f, \
            \"swap_minor_w\": %.1f, \"full_minor_w\": %.1f}%s\n"
           r.c_n r.c_occupancy r.c_live r.c_toggle_us r.c_swap_us r.c_full_us
           (speedup r) r.c_moved r.c_toggle_minor_w
           r.c_swap_minor_w r.c_full_minor_w
           (if i = last then "" else ",")))
    churns;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"gates\": {\"loop_n12_trials\": %d, \"loop_n12_failures\": %d, \
        \"churn_ops\": %d, \"churn_failures\": %d, \"churn_speedup_ok\": %b, \
        \"zero_alloc\": %b}\n"
       trials failures churn_ops churn_failures churn_speedup_ok zero_alloc);
  Buffer.add_string buf "}\n";
  let path = Bench_util.output_path ~default:"BENCH_route.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if failures > 0 then begin
    Printf.eprintf "FAIL: looping failed %d/%d permutations on the n=12 Benes\n%!" failures
      trials;
    exit 1
  end;
  if churn_failures > 0 then begin
    Printf.eprintf
      "FAIL: %d churn soundness failure(s) (plan stopped realizing its image)\n%!"
      churn_failures;
    exit 1
  end;
  if not churn_speedup_ok then begin
    Printf.eprintf
      "FAIL: incremental churn under 5x faster than full recompile at n>=10\n%!";
    exit 1
  end;
  if not zero_alloc then begin
    Printf.eprintf "FAIL: a routing hot path allocates (see *_minor_w)\n%!";
    exit 1
  end
