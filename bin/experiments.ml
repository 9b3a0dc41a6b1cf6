(* Regenerates every experiment in DESIGN.md's index and prints the
   paper-shaped result.  `experiments.exe` runs everything;
   `experiments.exe F1 T3 ...` runs a subset; `-j N` runs the
   sweep-shaped experiments (X9, X11, X15, X16) on N worker domains
   (results are bit-identical for every N).  EXPERIMENTS.md records
   this program's output. *)

module Perm = Mineq_perm.Perm
module Family = Mineq_perm.Pipid_family
module Ip = Mineq_perm.Index_perm
module Engine = Mineq_engine
open Mineq

let rng seed = Random.State.make [| seed; 0xe9; 0x88 |]

let jobs = ref (Mineq_engine.Pool.default_jobs ())

let header id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n"

let result fmt = Printf.printf fmt

let bool_mark b = if b then "yes" else "NO"

(* F1: Figure 1 — the 4-stage Baseline network and its MI-digraph. *)
let f1 () =
  header "F1" "Figure 1: Baseline network and Baseline MI-digraph (n = 4)";
  let g = Baseline.network 4 in
  print_string (Render.stage_table g);
  result "recursive construction = Wu–Feng sub-shuffle stack: %s\n"
    (bool_mark (Mi_digraph.equal g (Classical.network Baseline_net ~n:4)));
  result "Banyan: %s   P(1,j) all j: %s   P(i,n) all i: %s\n"
    (bool_mark (Banyan.is_banyan g))
    (bool_mark (Properties.p_one_star g))
    (bool_mark (Properties.p_star_n g));
  print_string (Render.gap_matrix g 1)

(* F2: Figure 2 — labelling of an MI-digraph. *)
let f2 () =
  header "F2" "Figure 2: node labelling (width 3, one stage column)";
  print_string (Render.labels_figure ~width:3);
  result "labels are (x_{n-1},...,x_1) tuples; bitwise addition = xor\n"

(* F3: Figure 3 / Lemma 2 — component structure of suffix windows. *)
let f3 () =
  header "F3" "Figure 3 / Lemma 2: suffix-window components and translated buddy sets";
  let n = 4 in
  let g = Classical.network Omega ~n in
  for j = 2 to n do
    let profile = Properties.component_profile g ~lo:j ~hi:n in
    let count = Array.length profile.components in
    result "(G)_{%d..%d}: %d components (expected %d), stage slices of %d nodes each\n" j n
      count
      (Properties.expected_components g ~lo:j ~hi:n)
      (1 lsl (n - j))
  done;
  result "Lemma 2 invariant (B_j is a translated set of A_j, all windows): %s\n"
    (bool_mark (Properties.lemma2_translate_structure g))

(* F4: Figure 4 — link labels under a stage permutation. *)
let f4 () =
  header "F4" "Figure 4: link labels under the perfect shuffle (n = 4)";
  let n = 4 in
  let sigma = Family.perfect_shuffle ~width:n in
  let a = Ip.induce ~width:n sigma in
  result "cell x drives out-links 2x, 2x+1; after sigma, link z enters cell z/2\n";
  for x = 0 to (1 lsl (n - 1)) - 1 do
    let l0 = 2 * x and l1 = (2 * x) + 1 in
    result "cell %s: link %2d -> %2d (cell %s)   link %2d -> %2d (cell %s)\n"
      (Mineq_bitvec.Bv.to_bit_string ~width:(n - 1) x)
      l0 (Perm.apply a l0)
      (Mineq_bitvec.Bv.to_bit_string ~width:(n - 1) (Perm.apply a l0 / 2))
      l1 (Perm.apply a l1)
      (Mineq_bitvec.Bv.to_bit_string ~width:(n - 1) (Perm.apply a l1 / 2))
  done;
  let c1 = Pipid_net.connection ~n sigma in
  let c2 = Link_spec.connection_of_link_perm ~n a in
  result "closed-form Section-4 connection = link-permutation connection: %s\n"
    (bool_mark (Connection.equal_graph c1 c2))

(* F5: Figure 5 — a stage with theta^-1(0) = 0: double links. *)
let f5 () =
  header "F5" "Figure 5: degenerate stage (theta^-1(0) = 0) breaks the Banyan property";
  let n = 3 in
  let id_stage = Perm.identity n in
  result "theta = identity: degenerate = %s\n" (bool_mark (Pipid_net.is_degenerate ~n id_stage));
  let g = Link_spec.network_of_thetas ~n [ id_stage; Family.perfect_shuffle ~width:n ] in
  print_string (Render.gap_matrix g 1);
  (match Banyan.check g with
  | Ok () -> result "unexpected: network is Banyan\n"
  | Error v ->
      result "Banyan violated: source %d, sink %d, %d paths (expected 1)\n" v.source v.sink
        v.paths);
  result "still independent (independence does not require Banyan): %s\n"
    (bool_mark (Connection.is_independent (Mi_digraph.connection g 1)))

(* T1: the [12] characterization on the classical networks. *)
let t1 () =
  header "T1" "Characterization theorem: Banyan + P(1,j) + P(i,n) <=> Baseline-equivalent";
  List.iter
    (fun n ->
      result "n = %d:\n" n;
      List.iter
        (fun (name, g) ->
          result "  %-26s banyan=%-3s P(1,j)=%-3s P(i,n)=%-3s iso-ground-truth=%s\n" name
            (bool_mark (Banyan.is_banyan g))
            (bool_mark (Properties.p_one_star g))
            (bool_mark (Properties.p_star_n g))
            (if n <= 5 then bool_mark (Equivalence.by_isomorphism g).equivalent else "-"))
        (Classical.all_networks ~n))
    [ 3; 4; 5 ]

(* P1: Proposition 1 on random independent connections. *)
let p1 () =
  header "P1" "Proposition 1: the reverse of an independent connection is independent";
  let r = rng 11 in
  let case1 = ref 0 and case2 = ref 0 and ok = ref 0 and total = 200 in
  for _ = 1 to total do
    let width = 3 + Random.State.int r 6 in
    let c = Connection.random_independent r ~width in
    (match Connection.linear_form c with
    | Some (b, _, _) ->
        if Mineq_bitvec.Gf2_matrix.is_invertible b then incr case1 else incr case2
    | None -> ());
    match Connection.reverse_independent c with
    | Some rc when Connection.is_independent rc && Connection.is_mi_stage rc -> incr ok
    | _ -> ()
  done;
  result "%d/%d random independent connections (widths 3-8) reversed independently\n" !ok total;
  result "case split: %d invertible-B (f,g bijections), %d corank-1 (A/B subspace split)\n"
    !case1 !case2

(* L2: Lemma 2 on random Banyan PIPID stacks. *)
let l2 () =
  header "L2" "Lemma 2: Banyan + independent connections => P(i,n) for every i";
  let r = rng 12 in
  let total = 200 and ok = ref 0 and ok_dual = ref 0 in
  for _ = 1 to total do
    let n = 3 + Random.State.int r 4 in
    let rec banyan_pipid () =
      let g = Link_spec.random_pipid_network r ~n in
      if Banyan.is_banyan g then g else banyan_pipid ()
    in
    let g = banyan_pipid () in
    if Properties.p_star_n g then incr ok;
    if Properties.p_one_star g then incr ok_dual
  done;
  result "%d/%d random Banyan PIPID networks satisfy P(i,n) for all i\n" !ok total;
  result "%d/%d satisfy P(1,j) for all j (dual via Proposition 1)\n" !ok_dual total

(* T3: the main theorem, constructively. *)
let t3 () =
  header "T3" "Theorem 3: Banyan + independent => isomorphic to the Baseline (constructive)";
  let n = 5 in
  List.iter
    (fun (name, g) ->
      let vi = Equivalence.by_independence g in
      match Iso_min.to_baseline g with
      | Some m ->
          result "  %-26s independence-decider=%-3s explicit-iso-verified=%s\n" name
            (bool_mark vi.equivalent)
            (bool_mark (Iso_min.verify g (Baseline.network n) m))
      | None -> result "  %-26s NO ISOMORPHISM FOUND\n" name)
    (Classical.all_networks ~n)

(* S4: PIPID => independent connection, with the explicit witness. *)
let s4 () =
  header "S4" "Section 4: PIPID permutations induce independent connections";
  let n = 4 in
  List.iter
    (fun (name, theta) ->
      let c = Pipid_net.connection ~n theta in
      let slot =
        match Pipid_net.routing_bit_slot ~n theta with
        | Some s -> string_of_int s
        | None -> "degenerate"
      in
      let beta_ok =
        let rec check alpha =
          alpha = 1 lsl (n - 1)
          || (Connection.witness c alpha = Some (Pipid_net.beta ~n theta alpha)
             && check (alpha + 1))
        in
        check 1
      in
      result "  %-12s independent=%-3s routing-bit-slot=%-10s beta-formula=%s\n" name
        (bool_mark (Connection.is_independent c))
        slot (bool_mark beta_ok))
    (Family.all_named ~width:n)

(* C1: the Wu–Feng pairwise table, by this paper's machinery. *)
let c1 () =
  header "C1" "Main corollary: pairwise equivalence of the six classical networks (n = 4)";
  let nets = Classical.all_networks ~n:4 in
  result "%-26s" "";
  List.iter (fun (name, _) -> result " %-5s" (String.sub name 0 (min 5 (String.length name)))) nets;
  result "\n";
  List.iter
    (fun (name_i, gi) ->
      result "%-26s" name_i;
      List.iter
        (fun (_, gj) ->
          let eq = Equivalence.equivalent_networks Independence gi gj in
          result " %-5s" (if eq then "==" else "/="))
        nets;
      result "\n")
    nets;
  result "(== means both provably Baseline-equivalent via Theorem 3)\n"

(* X1: decider scaling. *)
let x1 () =
  header "X1" "The 'easy' claim: cost of the three deciders vs n (wall-clock, single run)";
  let time f =
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    (Sys.time () -. t0) *. 1000.0
  in
  result "%4s %16s %16s %16s %16s\n" "n" "independence(ms)" "character.(ms)" "iso-stage(ms)"
    "iso-generic(ms)";
  List.iter
    (fun n ->
      let g = Classical.network Omega ~n in
      let ti = time (fun () -> Equivalence.by_independence g) in
      let tc = time (fun () -> Equivalence.by_characterization g) in
      let ts = time (fun () -> Iso_min.to_baseline g) in
      let tg =
        if n <= 5 then Printf.sprintf "%16.3f" (time (fun () -> Equivalence.by_isomorphism g))
        else Printf.sprintf "%16s" "-"
      in
      result "%4d %16.3f %16.3f %16.3f %s\n" n ti tc ts tg)
    [ 3; 4; 5; 6; 7; 8; 9 ];
  result "independence also skips the Banyan check cost asymptotically: the\n";
  result "basis check is O(n 2^n) vs O(4^n) for path counting.\n"

(* X2: the Agrawal gap. *)
let x2 () =
  header "X2" "Buddy properties do not characterize equivalence (the [10] gap)";
  let r = rng 13 in
  let sample n trials =
    let banyan = ref 0 and noneq = ref 0 in
    for _ = 1 to trials do
      let g = Counterexample.random_buddy_network r ~n in
      if Banyan.is_banyan g then begin
        incr banyan;
        if not (Equivalence.by_characterization g).equivalent then incr noneq
      end
    done;
    (!banyan, !noneq)
  in
  let b3, ne3 = sample 3 4000 in
  let b4, ne4 = sample 4 4000 in
  result "n=3: %d buddy Banyans sampled, %d non-equivalent  => buddy suffices at n=3\n" b3 ne3;
  result "n=4: %d buddy Banyans sampled, %d non-equivalent  => buddy fails at n=4\n" b4 ne4;
  match Counterexample.find_non_equivalent r ~n:4 ~attempts:5000 ~require_buddy:true with
  | None -> result "no instance found (unexpected)\n"
  | Some g ->
      result "witness instance: banyan=%s buddy=%s P-characterization=%s iso=%s\n"
        (bool_mark (Banyan.is_banyan g))
        (bool_mark (Properties.has_buddy_property g))
        (bool_mark (Equivalence.by_characterization g).equivalent)
        (bool_mark (Equivalence.by_isomorphism g).equivalent)

(* X3: operational equivalence in the packet simulator. *)
let x3 () =
  header "X3" "Operational equivalence: isomorphic networks perform identically";
  let n = 5 in
  let config =
    { Mineq_sim.Network_sim.default_config with injection_rate = 1.0; cycles = 2000 }
  in
  result "saturation throughput under uniform traffic (n = %d, rate 1.0):\n" n;
  List.iter
    (fun (name, g) ->
      let s = Mineq_sim.Network_sim.run ~config (rng 14) g in
      result "  %-26s throughput=%.3f mean-latency=%.1f\n" name
        (Mineq_sim.Network_sim.throughput s)
        (Mineq_sim.Network_sim.mean_latency s))
    (Classical.all_networks ~n);
  (* Deterministic check: relabelling the network and the traffic
     through the same isomorphism gives identical circuit schedules. *)
  let g = Classical.network Omega ~n:4 in
  let h = Counterexample.relabelled_equivalent (rng 15) g in
  let p = Perm.random (rng 16) 16 in
  let pairs = List.init 16 (fun i -> (i, Perm.apply p i)) in
  let rounds_g = (Mineq_sim.Circuit.greedy_schedule g pairs).round_count in
  let avg_g = Mineq_sim.Circuit.average_rounds (rng 17) g ~samples:100 in
  let avg_h = Mineq_sim.Circuit.average_rounds (rng 17) h ~samples:100 in
  result "omega n=4: fixed permutation needs %d rounds; avg over 100 random perms:\n" rounds_g;
  result "  original %.2f vs relabelled-equivalent %.2f (should be statistically equal)\n"
    avg_g avg_h

(* X4: bit-directed routing. *)
let x4 () =
  header "X4" "Bit-directed (delta) routing on PIPID networks";
  let n = 4 in
  List.iter
    (fun (name, g) ->
      result "  %-26s delta=%-3s bidelta=%-3s\n" name
        (bool_mark (Routing.is_delta g))
        (bool_mark (Routing.is_bidelta g)))
    (Classical.all_networks ~n);
  let g = Baseline.network n in
  (match Routing.delta_schedule g with
  | Some schedule ->
      let spells_address =
        Array.for_all (fun o -> schedule.(o) = o) (Array.init (1 lsl n) (fun i -> i))
      in
      result "baseline port word = destination address: %s\n" (bool_mark spells_address)
  | None -> result "baseline unexpectedly not delta\n");
  let r = rng 18 in
  List.iter
    (fun (name, g) ->
      result "  %-26s admissible fraction of random permutations: %.4f\n" name
        (Routing.admissible_fraction r g ~samples:2000))
    (Classical.all_networks ~n)

(* X5: independence is sufficient, not necessary. *)
let x5 () =
  header "X5" "Independence is sufficient but not necessary for equivalence";
  let r = rng 19 in
  let g = Classical.network Omega ~n:4 in
  let h = Counterexample.relabelled_equivalent r g in
  let vi = Equivalence.by_independence h in
  let vc = Equivalence.by_characterization h in
  let viso = Equivalence.by_isomorphism h in
  result "randomly relabelled Omega (n=4):\n";
  result "  independence decider: %-3s (%s)\n" (bool_mark vi.equivalent) vi.detail;
  result "  characterization:     %-3s\n" (bool_mark vc.equivalent);
  result "  explicit isomorphism: %-3s\n" (bool_mark viso.equivalent);
  let still_pipid = ref 0 in
  for i = 1 to Mi_digraph.stages h - 1 do
    if Option.is_some (Render.recognize_gap h i) then incr still_pipid
  done;
  result "  gaps still recognizable as PIPID after relabelling: %d/%d\n" !still_pipid
    (Mi_digraph.stages h - 1)

(* X6: the radix generalization (the paper's closing remark). *)
let x6 () =
  header "X6" "Radix generalization: r x r cells over (Z_r)^m (paper's closing remark)";
  let module Rn = Mineq_radix.Rnetwork in
  let module Rb = Mineq_radix.Rbuild in
  List.iter
    (fun (radix, n) ->
      let base = Rb.baseline ~radix n in
      let om = Rb.omega ~radix n in
      result
        "r=%d n=%d (%d terminals): baseline char=%-3s | omega banyan=%-3s indep=%-3s \
         char=%-3s iso-to-baseline=%s\n"
        radix n (Rn.terminals om)
        (bool_mark (Rn.by_characterization base))
        (bool_mark (Rn.is_banyan om))
        (bool_mark (Rn.by_independence om))
        (bool_mark (Rn.by_characterization om))
        (if radix * n <= 12 then bool_mark (Rn.isomorphic om base) else "-"))
    [ (2, 4); (3, 3); (4, 3); (5, 2); (3, 4) ];
  (* Does the Theorem-3 analogue hold at radix 3?  Sample agreement
     between the independence decider and the characterization. *)
  let r = rng 20 in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 400 do
    let g = Rb.random_pipid_network r ~radix:3 ~n:3 in
    if Rn.is_banyan g then begin
      incr total;
      if Rn.by_independence g && Rn.by_characterization g then incr agree
    end
  done;
  result
    "radix-3 Banyan PIPID stacks: %d/%d satisfy both independence and the \
     characterization\n"
    !agree !total;
  result "(evidence that Theorem 3's analogue survives the generalization)\n";
  (* The main corollary at radix 3: all six classical constructions,
     digit-directed routing included. *)
  let base3 = Rb.baseline ~radix:3 3 in
  result "the six classical constructions at radix 3 (27 terminals):\n";
  List.iter
    (fun (name, g) ->
      result "  %-26s banyan=%-3s indep=%-3s char=%-3s digit-routed=%-3s iso=%-3s\n" name
        (bool_mark (Rn.is_banyan g))
        (bool_mark (Rn.by_independence g))
        (bool_mark (Rn.by_characterization g))
        (bool_mark (Option.is_some (Routing.schedule (Rn.packed g))))
        (bool_mark (Rn.isomorphic g base3)))
    (Rb.all_networks ~radix:3 ~n:3)

(* X7: compositions -- Benes rearrangeability and affine stages. *)
let x7 () =
  header "X7" "Compositions: Benes rearrangeability and affine (PIPID xor offset) stages";
  let r = rng 21 in
  List.iter
    (fun n ->
      let net = Benes.network n in
      let samples = 50 in
      result
        "Benes B(%d): %d stages, banyan=%-3s (path diversity %d), %d/%d random \
         permutations routed link-disjoint by the looping algorithm\n"
        n (Cascade.stages net)
        (bool_mark (Cascade.is_banyan net))
        (1 lsl (n - 1))
        (if Benes.rearrangeable_check r ~n ~samples then samples else -1)
        samples)
    [ 2; 3; 4; 5 ];
  (* Affine stages: shuffle xor constant. *)
  let n = 4 in
  let theta = Family.perfect_shuffle ~width:n in
  let conns =
    List.init (n - 1) (fun i -> Pipid_net.affine_connection ~n theta ~offset:((2 * i) + 3))
  in
  let g = Mi_digraph.create conns in
  result "exchange-Omega (shuffle xor offset per gap, n=4): banyan=%s independent=%s\n"
    (bool_mark (Banyan.is_banyan g))
    (bool_mark (List.for_all Connection.is_independent (Mi_digraph.connections g)));
  result "  Theorem 3 verdict: %s / characterization: %s\n"
    (bool_mark (Equivalence.by_independence g).equivalent)
    (bool_mark (Equivalence.by_characterization g).equivalent)

(* X8: the realizable-permutation count as an equivalence invariant. *)
let x8 () =
  header "X8" "Realizable-permutation counts (one-pass functionality fingerprint)";
  let n = 3 in
  result "exact counts over all 2^(n 2^(n-1)) = 4096 switch settings (n = %d):\n" n;
  List.iter
    (fun (name, g) -> result "  %-26s %d distinct permutations\n" name (Realizable.count_exact g))
    (Classical.all_networks ~n);
  let r = rng 22 in
  let relab = Counterexample.relabelled_equivalent r (Classical.network Omega ~n) in
  result "  %-26s %d (count is an isomorphism invariant)\n" "relabelled omega"
    (Realizable.count_exact relab);
  (* Finding: every Banyan (equivalent or not) realizes all settings
     distinctly -- each switch carries exactly two of the unique
     paths, so the realized permutation determines the full setting.
     Injectivity of settings -> permutations is thus a Banyan
     signature; non-Banyan networks collapse settings. *)
  let banyan_counts = Hashtbl.create 8 in
  for _ = 1 to 200 do
    match Counterexample.random_banyan r ~n ~attempts:200 with
    | Some g ->
        let key = Realizable.count_exact g in
        Hashtbl.replace banyan_counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt banyan_counts key))
    | None -> ()
  done;
  let distinct =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) banyan_counts [] |> List.sort compare
  in
  result "  random Banyans (n=3): %s -- settings are injective on Banyans\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%d (x%d)" k v) distinct));
  let degenerate =
    Link_spec.network_of_thetas ~n
      [ Perm.identity n; Family.perfect_shuffle ~width:n ]
  in
  result "  non-Banyan (degenerate stage): %d < 4096 -- settings collapse\n"
    (Realizable.count_exact degenerate)

(* X9: fault tolerance -- the price of the unique path.  The two
   critical-fault sweeps and the per-gap impacts are independent
   closures, so they run on the engine pool. *)
let x9 () =
  header "X9" "Fault analysis: Banyan networks have zero tolerance; the Benes does not";
  let n = 4 in
  let c = Cascade.of_mi_digraph (Baseline.network n) in
  let benes = Benes.network n in
  let results =
    Engine.Pool.run ~jobs:!jobs (fun pool ->
        Engine.Pool.map_list pool
          (fun f -> f ())
          [ (fun () -> `Critical (Faults.critical_fault_count c));
            (fun () -> `Critical (Faults.critical_fault_count benes));
            (fun () ->
              `Impacts
                (List.map
                   (fun gap ->
                     (gap, Faults.impact c [ Faults.Link { gap; cell = 0; port = 0 } ]))
                   [ 1; 2; 3 ]));
            (fun () -> `Impact (Faults.impact benes [ Faults.Link { gap = 1; cell = 0; port = 0 } ]))
          ])
  in
  match results with
  | [ `Critical crit_c; `Critical crit_benes; `Impacts impacts; `Impact benes_impact ] ->
      result "baseline n=%d: %d/%d single-link faults disconnect at least one pair\n" n crit_c
        ((Cascade.stages c - 1) * Cascade.cells_per_stage c * 2);
      List.iter
        (fun (gap, i) ->
          result "  one gap-%d link: %d source/sink cell pairs disconnected (cone %d x %d)\n"
            gap i.Faults.disconnected_pairs (1 lsl (gap - 1))
            (1 lsl (n - gap - 1)))
        impacts;
      result "benes B(%d): %d/%d single-link faults disconnect any pair; " n crit_benes
        ((Cascade.stages benes - 1) * Cascade.cells_per_stage benes * 2);
      result "a gap-1 fault merely degrades %d pairs\n" benes_impact.Faults.degraded_pairs
  | _ -> assert false

(* X11: tree saturation under hot-spot traffic. *)
let x11 () =
  header "X11" "Tree saturation: a small hot-spot collapses global throughput";
  let n = 5 in
  let g = Classical.network Omega ~n in
  let replications = 5 in
  result "Omega n=%d, rate 0.9, 2000 cycles, hotspot = terminal 0; mean ± 95%% CI over %d seeds:\n"
    n replications;
  List.iter
    (fun fraction ->
      let metric rng =
        let pattern =
          if fraction = 0.0 then Mineq_sim.Traffic.uniform
          else Mineq_sim.Traffic.hotspot ~fraction ~target:0
        in
        let config =
          { Mineq_sim.Network_sim.default_config with
            injection_rate = 0.9;
            cycles = 2000;
            pattern
          }
        in
        Mineq_sim.Network_sim.throughput (Mineq_sim.Network_sim.run ~config rng g)
      in
      let summary =
        Engine.Batch.replicate ~jobs:!jobs
          ~root:(Engine.Seeds.fold 101 (int_of_float (fraction *. 100.0)))
          ~replications metric
      in
      result "  hotspot fraction %.2f: throughput %s\n" fraction
        (Format.asprintf "%a" Mineq_sim.Summary.pp summary))
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ];
  result "(the hot output link saturates and backpressure spreads congestion\n";
  result " through the switch tree -- the classic MIN hot-spot pathology)\n"

(* X12: one extra stage buys (partial) fault tolerance. *)
let x12 () =
  header "X12" "Extra-stage networks: one more stage trades the Banyan property for redundancy";
  let n = 4 in
  let baseline_c = Cascade.of_mi_digraph (Baseline.network n) in
  let extra_conn =
    Link_spec.connection_of_link_perm ~n
      (Mineq_perm.Index_perm.induce ~width:n (Family.perfect_shuffle ~width:n))
  in
  let extra = Cascade.concat baseline_c (Cascade.create [ extra_conn ]) in
  let links c = (Cascade.stages c - 1) * Cascade.cells_per_stage c * 2 in
  List.iter
    (fun (name, c) ->
      result "  %-22s stages=%d paths/pair=%d banyan=%-3s critical links=%d/%d\n" name
        (Cascade.stages c)
        (Cascade.path_counts c).(0).(0)
        (bool_mark (Cascade.is_banyan c))
        (Faults.critical_fault_count c) (links c))
    [ ("baseline", baseline_c);
      ("baseline + 1 stage", extra);
      ("benes (n-1 extra)", Benes.network n)
    ]

(* X13: how the delta property relates to equivalence, empirically. *)
let x13 () =
  header "X13" "Delta property vs equivalence on buddy Banyans (Kruskal-Snir cross-check)";
  let r = rng 23 in
  let n = 4 in
  let cells = Array.make 4 0 in
  (* cells.(0): delta & equivalent, (1): delta & not, (2): not delta &
     equivalent, (3): neither. *)
  let samples = ref 0 in
  while !samples < 150 do
    match Counterexample.random_buddy_banyan r ~n ~attempts:2000 with
    | None -> samples := 150
    | Some g ->
        incr samples;
        let d = Routing.is_delta g in
        let e = (Equivalence.by_characterization g).equivalent in
        let idx = (if d then 0 else 2) + if e then 0 else 1 in
        cells.(idx) <- cells.(idx) + 1
  done;
  result "buddy Banyans at n=%d (150 samples):\n" n;
  result "  delta and equivalent:         %d\n" cells.(0);
  result "  delta and NOT equivalent:     %d\n" cells.(1);
  result "  not delta and equivalent:     %d\n" cells.(2);
  result "  not delta and NOT equivalent: %d\n" cells.(3);
  result
    "(Kruskal-Snir: bidelta networks are unique up to isomorphism; a 'delta &\n\
    \ not equivalent' count of zero is consistent with their theorem when the\n\
    \ instances are also delta in reverse)\n";
  (* Refine the delta & not-equivalent cell by the bidelta property. *)
  let bidelta_noneq = ref 0 and delta_noneq = ref 0 in
  let tries = ref 0 in
  while !delta_noneq < 10 && !tries < 200 do
    incr tries;
    match Counterexample.find_non_equivalent r ~n ~attempts:2000 ~require_buddy:true with
    | Some g when Routing.is_delta g ->
        incr delta_noneq;
        if Routing.is_bidelta g then incr bidelta_noneq
    | _ -> ()
  done;
  result "of %d delta-but-not-equivalent instances found, %d are bidelta\n" !delta_noneq
    !bidelta_noneq

(* X14: the simulator against Patel's analytic unbuffered model. *)
let x14 () =
  header "X14" "Simulator vs Patel's analytic model (unbuffered, uniform traffic)";
  let module A = Mineq_sim.Analytic in
  result "%4s %12s %12s %10s\n" "n" "analytic" "simulated" "ratio";
  List.iter
    (fun n ->
      let model = A.saturation ~n in
      let g = Classical.network Omega ~n in
      let config =
        { Mineq_sim.Network_sim.default_config with
          injection_rate = 1.0;
          cycles = 3000;
          buffer_capacity = 1;
          drop_on_full = true
        }
      in
      let sim =
        Mineq_sim.Network_sim.throughput (Mineq_sim.Network_sim.run ~config (rng 24) g)
      in
      result "%4d %12.4f %12.4f %10.3f\n" n model sim (sim /. model))
    [ 2; 3; 4; 5; 6; 7 ];
  result "(the simulator runs a little above the model: its capacity-1 queues\n";
  result " retain arbitration losers for a retry next cycle, which the\n";
  result " memoryless model does not credit -- the gap grows with depth; the\n";
  result " shape, saturation decaying like 4/(n+3), matches)\n"

(* X15: how many isomorphism classes do random Banyans occupy? *)
let x15 () =
  header "X15" "Census: isomorphism classes of random Banyan networks at n = 3";
  let r = rng 25 in
  let classes = Engine.Batch.sample_census ~jobs:!jobs ~root:25 ~n:3 ~samples:150 ~attempts:400 in
  let total = List.fold_left (fun acc c -> acc + List.length c.Census.members) 0 classes in
  result "%d random Banyans fall into %d isomorphism classes:\n" total (List.length classes);
  List.iteri
    (fun i cls ->
      result "  class %d: %3d members%s  buddy=%-3s delta=%-3s\n" (i + 1)
        (List.length cls.Census.members)
        (if Census.contains_baseline cls then "  <- the Baseline class" else "")
        (bool_mark (Properties.has_buddy_property cls.Census.representative))
        (bool_mark (Routing.is_delta cls.Census.representative)))
    classes;
  result "(the paper's theorem says the Baseline class is exactly the networks\n";
  result " with independent connections; the others are the Banyans its\n";
  result " machinery is designed to exclude)\n";
  (* Buddy Banyans at n = 4: how many classes does Agrawal's family
     split into? *)
  let rec draw k acc =
    if k = 0 then acc
    else
      match Counterexample.random_buddy_banyan r ~n:4 ~attempts:2000 with
      | None -> acc
      | Some g -> draw (k - 1) ((g, k) :: acc)
  in
  let buddy_classes = Engine.Batch.classify ~jobs:!jobs (draw 60 []) in
  result "60 buddy Banyans at n=4 fall into %d classes:\n" (List.length buddy_classes);
  List.iteri
    (fun i cls ->
      result "  class %d: %2d members%s\n" (i + 1)
        (List.length cls.Census.members)
        (if Census.contains_baseline cls then "  <- the Baseline class" else ""))
    buddy_classes

(* X16: reliability curves under multiple random faults. *)
let x16 () =
  header "X16" "Reliability: survival probability under k random link faults (n = 4)";
  let n = 4 in
  let baseline_c = Cascade.of_mi_digraph (Baseline.network n) in
  let extra =
    Cascade.concat baseline_c
      (Cascade.create
         [ Link_spec.connection_of_link_perm ~n
             (Mineq_perm.Index_perm.induce ~width:n (Family.perfect_shuffle ~width:n))
         ])
  in
  let benes = Benes.network n in
  let ks = [ 0; 1; 2; 3; 4; 6; 8 ] in
  result "%22s" "k faults:";
  List.iter (fun k -> result " %6d" k) ks;
  result "\n";
  List.iteri
    (fun row (name, c) ->
      let sweep =
        Engine.Batch.fault_survival ~jobs:!jobs ~root:(Engine.Seeds.fold 26 row) c ~faults:ks
          ~samples:400
      in
      result "%22s" name;
      List.iter (fun (_, p) -> result " %6.3f" p) sweep;
      result "\n")
    [ ("baseline", baseline_c); ("baseline + 1 stage", extra); ("benes", benes) ]

let all_experiments =
  [ ("F1", f1); ("F2", f2); ("F3", f3); ("F4", f4); ("F5", f5); ("T1", t1); ("P1", p1);
    ("L2", l2); ("T3", t3); ("S4", s4); ("C1", c1); ("X1", x1); ("X2", x2); ("X3", x3);
    ("X4", x4); ("X5", x5); ("X6", x6); ("X7", x7); ("X8", x8); ("X9", x9); ("X11", x11);
    ("X12", x12); ("X13", x13); ("X14", x14); ("X15", x15); ("X16", x16)
  ]

let () =
  (* Strip a `-j N` pair (worker domains) before treating the rest as
     experiment ids. *)
  let rec split_jobs = function
    | "-j" :: count :: rest -> (
        match int_of_string_opt count with
        | Some j when j >= 1 ->
            jobs := j;
            split_jobs rest
        | Some _ | None -> failwith "-j needs an integer >= 1")
    | id :: rest -> id :: split_jobs rest
    | [] -> []
  in
  let args = split_jobs (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with
    | [] -> List.map fst all_experiments
    | ids -> List.map String.uppercase_ascii ids
  in
  List.iter
    (fun id ->
      match List.assoc_opt id all_experiments with
      | Some run -> run ()
      | None -> Printf.eprintf "unknown experiment id: %s\n" id)
    requested
