(* pb_ref: writes one workload's generated inputs and the answer the
   program must give for each, computed in-process before any timed
   phase.

     pb_ref serve   --workload W --seed S --mix MIX --closed N --open M --rate R --out DIR
     pb_ref offline --seed S --mix MIX --oneshots K --out DIR

   MIX is "label=share,..." (labels "op" or "op:method" for serve,
   one-shot command names for offline), as run.py reads it from
   workloads.json.

   Every answer is cross-checked against the enumeration engine
   [Equivalence.equivalent_enum] and the Banyan path-count matrix,
   which skip the symbolic fast paths the program's deciders use; the
   six classical families must also satisfy the paper's corollary
   (all are Baseline-equivalent).  A reference that fails its own
   cross-check is written as "REFERENCE-DISAGREES ...", which no
   answer matches, so the run counts a failure and prints the input. *)

open Mineq
module W = Pb_work
module A = Mineq_analysis
module V = Mineq_route_verify

let banyan_enum g = Array.for_all (Array.for_all (fun c -> c = 1)) (Banyan.path_count_matrix g)

let disagree what = "REFERENCE-DISAGREES " ^ what

let write_lines path lines =
  let oc = open_out_bin path in
  Array.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let blocking_signature g =
  match Mineq_route.Bit_follow.of_network g with
  | None -> "blocking false"
  | Some router ->
      "blocking true "
      ^ String.concat ";"
          (List.map
             (fun ((tr : V.Certify.traffic), res) ->
               tr.V.Certify.name ^ "=" ^ Format.asprintf "%a" V.Certify.pp_result res)
             (V.Certify.survey_classes router))

(* The expected answer to one serve request, in the signature form
   run.py derives from the response. *)
let serve_expect (r : W.request) =
  let g = W.network_of_target r.W.target in
  let enum = Equivalence.equivalent_enum g in
  let banyan = banyan_enum g in
  let corollary_ok =
    match r.W.target with
    | W.Named (name, _) when W.is_classical name -> enum && banyan
    | _ -> true
  in
  if not corollary_ok then disagree "classical network not Baseline-equivalent"
  else
    match (r.W.op, r.W.method_) with
    | "equiv", (None | Some "characterization") ->
        Printf.sprintf "equiv characterization %b %b" enum banyan
    | "equiv", Some "isomorphism" -> Printf.sprintf "equiv isomorphism %b %b" enum banyan
    | "equiv", Some "independence" ->
        (* Theorem 3 is sufficient, not necessary: a positive must be
           an enumeration positive, a negative may not be. *)
        let v = Equivalence.by_independence g in
        if (v.Equivalence.equivalent && not enum) || v.Equivalence.banyan <> banyan then
          disagree "independence verdict vs enumeration"
        else Printf.sprintf "equiv independence %b %b" v.Equivalence.equivalent banyan
    | "banyan", _ -> Printf.sprintf "banyan %b" banyan
    | "lint", _ ->
        let rep = A.Lint.run g in
        Printf.sprintf "lint %d %d %d %d %b %b" (A.Lint.errors rep) (A.Lint.warnings rep)
          (A.Lint.infos rep) (A.Lint.exit_code rep) enum banyan
    | "blocking", _ -> blocking_signature g
    | op, _ -> disagree ("unknown op " ^ op)

let offline_expect (job : W.job) =
  let named name n =
    let g = W.network_of_name name ~n in
    let enum = Equivalence.equivalent_enum g in
    let banyan = banyan_enum g in
    if W.is_classical name && not (enum && banyan) then Error (disagree "corollary")
    else Ok (g, enum, banyan)
  in
  let ( let* ) r f = match r with Ok x -> f x | Error e -> e in
  match job with
  | W.Equiv (name, n, m) ->
      let* g, enum, banyan = named name n in
      if String.equal m "independence" then
        let v = Equivalence.by_independence g in
        if v.Equivalence.equivalent && not enum then disagree "independence vs enumeration"
        else Printf.sprintf "%b %b" v.Equivalence.equivalent banyan
      else Printf.sprintf "%b %b" enum banyan
  | W.Check (name, n) ->
      let* _, enum, banyan = named name n in
      Printf.sprintf "%b %b" banyan enum
  | W.Iso (a, b, n) ->
      let* _, ea, _ = named a n in
      let* _, eb, _ = named b n in
      (* [a] is classical, so the pair is isomorphic exactly when [b]
         is Baseline-equivalent. *)
      Printf.sprintf "%b" (ea && eb)
  | W.Route (name, n, s, d) -> (
      let* g, _, _ = named name n in
      match Routing.route g ~input:s ~output:d with
      | Some p -> string_of_int (Routing.port_word p)
      | None -> "none")
  | W.Perm _ -> "true"
  | W.Lint (_, text) -> (
      match (A.Spec_lint.lint_string text, Spec_io.of_string text) with
      | Ok rep, Ok g ->
          Printf.sprintf "%d %d %d %d %b %b" (A.Lint.exit_code rep) (A.Lint.errors rep)
            (A.Lint.warnings rep) (A.Lint.infos rep) (Equivalence.equivalent_enum g)
            (banyan_enum g)
      | _ -> disagree "generated spec does not parse")
  | W.Census { n; specs; seed } ->
      let module S = Mineq_engine.Stream_census in
      let s = S.run ~jobs:1 ~root:seed ~n ~specs ~generator:S.Pipid in
      Printf.sprintf "%d %d %d %d" s.S.specs (List.length s.S.classes) s.S.buckets
        s.S.collisions
  | W.Churn { n; ops; seed } ->
      let module Sv = Mineq_route.Survey in
      let row = Sv.churn ~jobs:1 ~seed ~n ~ops ~trials:4 () in
      if row.Sv.failures <> 0 then disagree "churn consistency"
      else
        Printf.sprintf "%d %d %.3f" row.Sv.connects row.Sv.disconnects
          (Sv.moved_per_connect row)
  | W.Simulate { n; cycles; seed } ->
      let module Sim = Mineq_sim.Network_sim in
      let config =
        { Sim.default_config with injection_rate = 0.5; cycles; pattern = Mineq_sim.Traffic.uniform }
      in
      let s = Sim.run ~config (Mineq_engine.Seeds.state seed) (W.network_of_name "omega" ~n) in
      Printf.sprintf "%d %d %d" s.Sim.offered s.Sim.injected s.Sim.delivered

(* Command line ------------------------------------------------------------ *)

let flag name args =
  let rec go = function
    | k :: v :: _ when String.equal k name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("pb_ref: missing " ^ name)
  in
  go args

let serve args =
  let workload = flag "--workload" args in
  let seed = int_of_string (flag "--seed" args) in
  let closed = int_of_string (flag "--closed" args) in
  let open_ = int_of_string (flag "--open" args) in
  let rate = float_of_string (flag "--rate" args) in
  let mix = W.parse_mix (flag "--mix" args) in
  let out = flag "--out" args in
  (* serve_hot repeats a small pool: compute each distinct answer once. *)
  let known = Hashtbl.create 256 in
  let expect (r : W.request) =
    let key = (r.W.op, r.W.method_, r.W.target) in
    match Hashtbl.find_opt known key with
    | Some e -> e
    | None ->
        let e = serve_expect r in
        Hashtbl.add known key e;
        e
  in
  let emit name reqs =
    write_lines (Filename.concat out (name ^ ".jsonl")) (Array.map W.payload reqs);
    write_lines
      (Filename.concat out (name ^ ".expect"))
      (Array.map (fun r -> W.json_string (expect r)) reqs)
  in
  emit "closed" (W.requests ~workload ~seed ~mix ~phase:`Closed ~first:0 ~count:closed);
  emit "open" (W.requests ~workload ~seed ~mix ~phase:`Open ~first:closed ~count:open_);
  if String.equal workload "serve_hot" then
    write_lines (Filename.concat out "prime.jsonl") (Array.map W.payload (W.hot_priming ~seed));
  write_lines
    (Filename.concat out "schedule.txt")
    (Array.map (Printf.sprintf "%.3f") (W.poisson_schedule ~seed ~rate ~count:open_))

let offline args =
  let seed = int_of_string (flag "--seed" args) in
  let count = int_of_string (flag "--oneshots" args) in
  let mix = List.map (fun ((label, _), share) -> (label, share)) (W.parse_mix (flag "--mix" args)) in
  let out = flag "--out" args in
  let line job =
    (match job with
    | W.Lint (file, text) ->
        let oc = open_out_bin (Filename.concat out file) in
        output_string oc text;
        close_out oc
    | _ -> ());
    String.concat "\t"
      [ W.kind job; W.json_string (offline_expect job); String.concat "\x1f" (W.argv job) ]
  in
  write_lines (Filename.concat out "oneshots.tsv") (Array.map line (W.oneshots ~seed ~mix ~count));
  write_lines (Filename.concat out "batch.tsv") (Array.map line (W.batch ~seed))

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> serve args
  | _ :: "offline" :: args -> offline args
  | _ ->
      prerr_endline "usage: pb_ref (serve|offline) ...";
      exit 2
