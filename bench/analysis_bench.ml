(* Analysis bench artifact: the symbolic deciders of lib/analysis
   against the enumeration engines they replace, and the packed
   enumeration kernels on their own, across network sizes — written
   to the machine-readable BENCH_analysis.json.

   Four decider families per size n:
   - per-gap independence: affine inference (O(2^w)) vs the basis
     witness scan (O(w 2^w)) vs the definitional oracle (O(4^w));
   - Banyan-ness: the D-matrix rank check (O(n^3)) vs the packed
     path-count DP;
   - full Baseline-equivalence: the analyzer's symbolic verdict vs the
     packed enumeration characterization (flat-DSU census);
   - single-window component census: packed flat DSU.

   Enumeration rows also record minor-heap words allocated per call —
   the packed kernels' figure is the cost of the verdict wrappers
   only; the census and DP themselves run allocation-free against a
   scratch.

   A fifth family covers the radix generalization: for r in {2, 4, 8}
   the radix-r Omega's Banyan check, component census and
   characterization on the stride-r packed kernels, with the same
   *_minor_w allocation columns.  The path-count DP is
   O(n r^(n-1) * r^(n-1)), so the Banyan/equivalence columns are
   measured only while the stage width stays tractable (null beyond);
   the census columns cover every listed size.

   The boxed pipelines the packed kernels replaced are no longer
   compiled: they live on only as the test suite's oracle.  Their last
   committed comparison (1 core, OCaml 5.1.1) put the packed
   enumeration 3.45x ahead of the list-era pipeline at n >= 8 (worst of
   Banyan and equivalence), and the radix packed kernels 3.61x ahead
   of the boxed closure pipeline at n >= 6 (worst column).

   The artifact records one summary fact: the smallest measured n from
   which the symbolic independence decider stays ahead.

   The bench is entirely serial, so a 1-core container degrades
   nothing; "cores" is recorded for provenance and "degraded" is
   always false — the field exists so the CI bench-multicore job can
   apply one uniform gate to every artifact it publishes.

   Run with --smoke for a tiny-budget crash/format check. *)

module A = Mineq_analysis
module Symbolic = A.Symbolic
module Connection = Mineq.Connection
module Banyan = Mineq.Banyan
module Properties = Mineq.Properties
module Equivalence = Mineq.Equivalence

let rng seed = Random.State.make [| seed; 0xa0a; 0x1145 |]
let time_us = Bench_util.time_us
let minor_words = Bench_util.minor_words_per_op

type row = {
  n : int;
  indep_fast_us : float;
  indep_basis_us : float;
  indep_definitional_us : float;
  banyan_symbolic_us : float;
  banyan_enum_us : float;
  banyan_enum_minor_w : float;
  equiv_symbolic_us : float;
  equiv_enum_us : float;
  equiv_enum_minor_w : float;
  comp_packed_us : float;
}

let measure ~smoke n =
  let reps = if smoke then 2 else if n >= 9 then 5 else 50 in
  let g = Mineq.Classical.network Omega ~n in
  let conn = Connection.random_independent (rng n) ~width:(n - 1) in
  let half = max 1 (n / 2) in
  let row =
    {
      n;
      indep_fast_us = time_us ~reps (fun () -> Connection.is_independent_fast conn);
      indep_basis_us = time_us ~reps (fun () -> Connection.is_independent conn);
      indep_definitional_us =
        time_us ~reps:(max 2 (reps / 10)) (fun () -> Connection.is_independent_definitional conn);
      banyan_symbolic_us = time_us ~reps (fun () -> Banyan.symbolic_check g);
      banyan_enum_us = time_us ~reps (fun () -> Banyan.check g);
      banyan_enum_minor_w = minor_words ~reps (fun () -> Banyan.check g);
      equiv_symbolic_us = time_us ~reps (fun () -> Symbolic.equivalent (Symbolic.analyze g));
      equiv_enum_us = time_us ~reps (fun () -> Equivalence.equivalent_enum g);
      equiv_enum_minor_w = minor_words ~reps (fun () -> Equivalence.equivalent_enum g);
      comp_packed_us =
        time_us ~reps (fun () -> Properties.component_count g ~lo:1 ~hi:half);
    }
  in
  Printf.printf
    "n=%-2d indep fast/basis/def %8.1f /%8.1f /%10.1f us   banyan sym/packed %8.1f /%9.1f us   \
     equiv sym/packed %8.1f /%9.1f us   minor_w packed %9.0f\n%!"
    n row.indep_fast_us row.indep_basis_us row.indep_definitional_us row.banyan_symbolic_us
    row.banyan_enum_us row.equiv_symbolic_us row.equiv_enum_us row.equiv_enum_minor_w;
  row

(* Radix rows: the stride-r packed kernels on the radix-r Omega. *)

module Rn = Mineq_radix.Rnetwork
module Rb = Mineq_radix.Rbuild

type radix_row = {
  r_radix : int;
  r_n : int;
  r_cells : int;
  r_banyan_packed_us : float option;
  r_banyan_packed_minor_w : float option;
  r_census_packed_us : float;
  r_census_packed_minor_w : float;
  r_equiv_packed_us : float option;
}

(* The per-source DP is O(n r^(n-1)) per source, O(n r^2(n-1)) per
   check: past ~2k cells per stage it would dominate the whole bench
   run, so Banyan/equivalence columns stop there and the rows carry
   null.  The census is near-linear in the window and is measured at
   every listed size. *)
let dp_tractable per = per <= 2048

let measure_radix ~smoke (radix, n) =
  let g = Rb.omega ~radix n in
  let per = Rn.cells_per_stage g in
  let reps =
    if smoke then 2
    else if per >= 8192 then 2
    else if per >= 512 then 5
    else 50
  in
  let half = max 1 (n / 2) in
  let dp = dp_tractable per in
  let opt f = if dp then Some (f ()) else None in
  let row =
    {
      r_radix = radix;
      r_n = n;
      r_cells = per;
      r_banyan_packed_us = opt (fun () -> time_us ~reps (fun () -> Rn.is_banyan g));
      r_banyan_packed_minor_w =
        opt (fun () -> minor_words ~reps (fun () -> Rn.is_banyan g));
      r_census_packed_us =
        time_us ~reps (fun () -> Rn.component_count g ~lo:1 ~hi:half);
      r_census_packed_minor_w =
        minor_words ~reps (fun () -> Rn.component_count g ~lo:1 ~hi:half);
      r_equiv_packed_us = opt (fun () -> time_us ~reps (fun () -> Rn.by_characterization g));
    }
  in
  let show = function Some v -> Printf.sprintf "%9.1f" v | None -> "        -" in
  Printf.printf "r=%d n=%-2d (%6d cells)  banyan %s us   census %9.1f us   equiv %s us\n%!"
    radix n per (show row.r_banyan_packed_us) row.r_census_packed_us
    (show row.r_equiv_packed_us);
  row

let () =
  let smoke = Bench_util.smoke_requested () in
  let sizes = if smoke then [ 4; 5 ] else [ 4; 6; 8; 10 ] in
  let radix_sizes =
    if smoke then [ (2, 3); (4, 2) ]
    else [ (2, 4); (2, 6); (2, 8); (4, 3); (4, 4); (4, 6); (8, 3); (8, 4); (8, 6) ]
  in
  let rows = List.map (measure ~smoke) sizes in
  let radix_rows = List.map (measure_radix ~smoke) radix_sizes in
  let crossover =
    (* Smallest measured n from which the affine decider stays ahead
       of the basis scan for every larger size too. *)
    let rec scan = function
      | [] -> None
      | r :: rest ->
          if List.for_all (fun r' -> r'.indep_fast_us < r'.indep_basis_us) (r :: rest) then
            Some r.n
          else scan rest
    in
    scan rows
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"ocaml\": %S,\n" Sys.ocaml_version;
  add "  \"network\": \"omega\",\n";
  add "  \"smoke\": %b,\n" smoke;
  (* The bench is entirely serial; cores is provenance and degraded is
     the uniform gate field the CI artifact check reads. *)
  add "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"degraded\": false,\n";
  add "  \"independence_crossover_n\": %s,\n"
    (match crossover with Some n -> string_of_int n | None -> "null");
  add "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"n\": %d, \"indep_fast_us\": %.2f, \"indep_basis_us\": %.2f, \
         \"indep_definitional_us\": %.2f, \"banyan_symbolic_us\": %.2f, \"banyan_enum_us\": \
         %.2f, \"banyan_enum_minor_w\": %.1f, \"equiv_symbolic_us\": %.2f, \
         \"equiv_enum_us\": %.2f, \"equiv_enum_minor_w\": %.1f, \"comp_packed_us\": %.2f}%s\n"
        r.n r.indep_fast_us r.indep_basis_us r.indep_definitional_us r.banyan_symbolic_us
        r.banyan_enum_us r.banyan_enum_minor_w r.equiv_symbolic_us r.equiv_enum_us
        r.equiv_enum_minor_w r.comp_packed_us
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  add "  \"radix_rows\": [\n";
  let jopt fmt = function Some v -> Printf.sprintf fmt v | None -> "null" in
  List.iteri
    (fun i r ->
      add
        "    {\"radix\": %d, \"n\": %d, \"cells_per_stage\": %d, \"banyan_packed_us\": %s, \
         \"banyan_packed_minor_w\": %s, \"census_packed_us\": %.2f, \
         \"census_packed_minor_w\": %.1f, \"equiv_packed_us\": %s}%s\n"
        r.r_radix r.r_n r.r_cells
        (jopt "%.2f" r.r_banyan_packed_us)
        (jopt "%.1f" r.r_banyan_packed_minor_w)
        r.r_census_packed_us r.r_census_packed_minor_w
        (jopt "%.2f" r.r_equiv_packed_us)
        (if i = List.length radix_rows - 1 then "" else ","))
    radix_rows;
  add "  ]\n}\n";
  let path = Bench_util.output_path ~default:"BENCH_analysis.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path
