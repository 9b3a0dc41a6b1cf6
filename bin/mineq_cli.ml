(* Command-line interface to the mineq library.

   Network specifications accepted everywhere a NETWORK argument
   appears are the daemon's grammar (Mineq_serve.Service.parse_named):
   one of the six classical names (omega, flip, cube /
   indirect-binary-cube, mdm / modified-data-manipulator, baseline,
   reverse-baseline), or "random:SEED" (random link permutations),
   "pipid:SEED" (random PIPID stages), "buddy:SEED" (random stages
   with the buddy properties). *)

open Cmdliner
open Mineq
module Engine = Mineq_engine
module Route = Mineq_route
module Service = Mineq_serve.Service

let network_arg =
  let doc = "Network: classical name, random:SEED, pipid:SEED or buddy:SEED." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NETWORK" ~doc)

let n_arg =
  (* Bounded like the daemon's "n" field (Proto.n_limit): no network
     has fewer than 2 stages, and an unbounded N lets one argument
     exhaust memory. *)
  let limit = Mineq_serve.Proto.n_limit in
  let n_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 2 && n <= limit -> Ok n
      | Some _ -> Error (`Msg (Printf.sprintf "N must be between 2 and %d" limit))
      | None -> Error (`Msg "N must be an integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc = Printf.sprintf "Number of stages (log2 of the terminal count), 2..%d." limit in
  Arg.(value & opt n_conv 4 & info [ "n"; "stages" ] ~docv:"N" ~doc)

let jobs_arg =
  (* Defaults to every available core and rejects non-positive values
     here, so Pool.create's jobs >= 1 contract holds for any parse. *)
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | Some _ -> Error (`Msg "JOBS must be >= 1")
      | None -> Error (`Msg "JOBS must be an integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc =
    "Parallel width of the batch sections (1 = run sequentially inline).  Defaults to \
     the recommended domain count of the machine; larger values are clamped to it."
  in
  Arg.(
    value
    & opt jobs_conv (Engine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let seed_arg =
  let doc = "Root RNG seed; all task-level randomness is derived from it." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Run [f] on the parsed NETWORK: a parse error, or an [Error m] from
   [f], is one stderr line and exit 1. *)
let with_network_checked spec n f =
  match Result.bind (Service.parse_named spec ~n) f with
  | Ok () -> 0
  | Error m ->
      prerr_endline m;
      1

let with_network spec n f = with_network_checked spec n (fun g -> Ok (f g))

(* build ------------------------------------------------------------- *)

let build_cmd =
  let run spec n =
    with_network spec n (fun g -> print_string (Render.network_summary g))
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a network and print its structural summary")
    Term.(const run $ network_arg $ n_arg)

(* render ------------------------------------------------------------ *)

let render_cmd =
  let format_arg =
    let doc = "Output format: table, matrix or wiring." in
    Arg.(value & opt (enum [ ("table", `Table); ("matrix", `Matrix); ("wiring", `Wiring) ]) `Table
         & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)
  in
  let run spec n format =
    with_network spec n (fun g ->
        match format with
        | `Table -> print_string (Render.stage_table g)
        | `Wiring -> print_string (Render.wiring_diagram g)
        | `Matrix ->
            for i = 1 to Mi_digraph.stages g - 1 do
              print_string (Render.gap_matrix g i)
            done)
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a network as ASCII (Figure-1 style)")
    Term.(const run $ network_arg $ n_arg $ format_arg)

(* check ------------------------------------------------------------- *)

let check_cmd =
  let run spec n =
    with_network spec n (fun g ->
        let yes b = if b then "yes" else "no" in
        Printf.printf "banyan:            %s\n" (yes (Banyan.is_banyan g));
        Printf.printf "P(1,j) for all j:  %s\n" (yes (Properties.p_one_star g));
        Printf.printf "P(i,n) for all i:  %s\n" (yes (Properties.p_star_n g));
        Printf.printf "buddy properties:  %s\n" (yes (Properties.has_buddy_property g));
        Printf.printf "all independent:   %s\n"
          (yes (List.for_all Connection.is_independent (Mi_digraph.connections g)));
        Printf.printf "delta:             %s\n" (yes (Routing.is_delta g));
        Printf.printf "bidelta:           %s\n" (yes (Routing.is_bidelta g)))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run every structural property check on a network")
    Term.(const run $ network_arg $ n_arg)

(* equiv ------------------------------------------------------------- *)

let method_arg =
  let doc = "Decider: independence, characterization or isomorphism." in
  Arg.(
    value
    & opt
        (enum
           [ ("independence", Equivalence.Independence);
             ("characterization", Equivalence.Characterization);
             ("isomorphism", Equivalence.Isomorphism)
           ])
        Equivalence.Characterization
    & info [ "method"; "m" ] ~docv:"METHOD" ~doc)

let equiv_cmd =
  let run spec n m =
    with_network spec n (fun g ->
        let v = Equivalence.decide m g in
        Printf.printf "method:     %s\n" (Equivalence.method_name m);
        Printf.printf "equivalent: %b\n" v.equivalent;
        Printf.printf "banyan:     %b\n" v.banyan;
        Printf.printf "detail:     %s\n" v.detail)
  in
  Cmd.v
    (Cmd.info "equiv" ~doc:"Decide Baseline-equivalence of a network")
    Term.(const run $ network_arg $ n_arg $ method_arg)

(* iso ---------------------------------------------------------------- *)

let iso_cmd =
  let network2_arg =
    let doc = "Second network." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NETWORK2" ~doc)
  in
  let run spec1 spec2 n =
    match (Service.parse_named spec1 ~n, Service.parse_named spec2 ~n) with
    | Ok g, Ok h -> (
        match Iso_min.find g h with
        | None ->
            print_endline "not isomorphic";
            1
        | Some m ->
            Printf.printf "isomorphic; per-stage label mapping (verified: %b):\n"
              (Iso_min.verify g h m);
            Array.iteri
              (fun s stage_map ->
                Printf.printf "stage %d: " (s + 1);
                Array.iteri (fun x y -> Printf.printf "%d->%d " x y) stage_map;
                print_newline ())
              m;
            0)
    | Error m, _ | _, Error m ->
        prerr_endline m;
        1
  in
  Cmd.v
    (Cmd.info "iso" ~doc:"Find an explicit isomorphism between two networks")
    Term.(const run $ network_arg $ network2_arg $ n_arg)

(* route -------------------------------------------------------------- *)

(* Argument specifications for route --perm / --churn: malformed
   values are rejected with a structured MINEQ-R2xx finding (never a
   raw exception, never silent truncation); the CLI maps those to
   exit code 2, like spec parse errors. *)
let route_finding ~code ~message ?witness ~hint () =
  { Mineq_analysis.Diagnostics.code;
    severity = Mineq_analysis.Diagnostics.Error;
    stage = None;
    message;
    witness;
    hint = Some hint
  }

let perm_hint = "PERM is identity, bitrev, random:SEED or a comma-separated image"

let perm_finding ~code ~message ?witness () =
  route_finding ~code ~message ?witness ~hint:perm_hint ()

(* Seed fields ("random:SEED", "OPS:SEED") get dedicated findings for
   the two spellings that look deceptively valid: the empty seed
   (trailing colon) and the all-digits seed too large for a native
   int, which int_of_string would lump in with "abc". *)
let all_digits s =
  let body =
    if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then
      String.sub s 1 (String.length s - 1)
    else s
  in
  String.length body > 0 && String.for_all (fun c -> c >= '0' && c <= '9') body

let parse_seed ~what ~hint s =
  if String.length s = 0 then
    Error (route_finding ~code:"MINEQ-R206" ~message:(what ^ " has an empty seed") ~hint ())
  else
    match int_of_string_opt s with
    | Some v -> Ok v
    | None when all_digits s ->
        Error
          (route_finding ~code:"MINEQ-R207"
             ~message:(what ^ " seed overflows the native integer range")
             ~witness:(Printf.sprintf "seed %S" s)
             ~hint ())
    | None ->
        Error
          (route_finding ~code:"MINEQ-R205"
             ~message:(what ^ " needs an integer seed")
             ~witness:(Printf.sprintf "seed %S" s)
             ~hint ())

let parse_perm spec ~terminals =
  let bits =
    let rec go b = if 1 lsl b >= terminals then b else go (b + 1) in
    go 0
  in
  match spec with
  | "identity" -> Ok (Array.init terminals Fun.id)
  | "bitrev" ->
      Ok
        (Array.init terminals (fun i ->
             let r = ref 0 in
             for b = 0 to bits - 1 do
               if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
             done;
             !r))
  | _ -> (
      match String.split_on_char ':' spec with
      | [ "random"; seed ] -> (
          match parse_seed ~what:"random:SEED" ~hint:perm_hint seed with
          | Error f -> Error f
          | Ok s ->
              let st = Engine.Seeds.state s in
              let img = Array.init terminals Fun.id in
              for i = terminals - 1 downto 1 do
                let j = Random.State.int st (i + 1) in
                let tmp = img.(i) in
                img.(i) <- img.(j);
                img.(j) <- tmp
              done;
              Ok img)
      | _ -> (
          let parts = String.split_on_char ',' spec in
          match
            List.find_opt (fun p -> Option.is_none (int_of_string_opt p)) parts
          with
          | Some bad ->
              Error
                (perm_finding ~code:"MINEQ-R201"
                   ~message:"permutation image has a non-integer entry"
                   ~witness:(Printf.sprintf "entry %S" bad)
                   ())
          | None ->
              let img = Array.of_list (List.filter_map int_of_string_opt parts) in
              if Array.length img <> terminals then
                Error
                  (perm_finding ~code:"MINEQ-R202"
                     ~message:"permutation image has the wrong length"
                     ~witness:
                       (Printf.sprintf "%d entries, network has %d terminals"
                          (Array.length img) terminals)
                     ())
              else begin
                let seen = Array.make terminals (-1) in
                let problem = ref None in
                Array.iteri
                  (fun i v ->
                    if !problem = None then
                      if v < 0 || v >= terminals then
                        problem :=
                          Some
                            (perm_finding ~code:"MINEQ-R203"
                               ~message:"permutation image entry is out of range"
                               ~witness:
                                 (Printf.sprintf "image(%d) = %d, valid range 0..%d" i v
                                    (terminals - 1))
                               ())
                      else if seen.(v) >= 0 then
                        problem :=
                          Some
                            (perm_finding ~code:"MINEQ-R204"
                               ~message:"permutation image repeats an output"
                               ~witness:
                                 (Printf.sprintf "output %d claimed by inputs %d and %d" v
                                    seen.(v) i)
                               ())
                      else seen.(v) <- i)
                  img;
                match !problem with Some f -> Error f | None -> Ok img
              end))

let print_finding_stderr (f : Mineq_analysis.Diagnostics.finding) =
  Printf.eprintf "%s %s\n  %s\n"
    (Mineq_analysis.Diagnostics.severity_name f.severity |> String.uppercase_ascii)
    f.code f.message;
  Option.iter (Printf.eprintf "  witness: %s\n") f.witness;
  Option.iter (Printf.eprintf "  hint: %s\n") f.hint

(* Per-stage switch states: one group of radix digits per cell, the
   digit at position j being the out-port assigned to in-port j ('.'
   when unset). *)
let print_plan plan =
  let fab = Route.Plan.fabric plan in
  let r = fab.Route.Fabric.radix in
  let buf = Buffer.create 256 in
  for s = 0 to fab.Route.Fabric.stages - 1 do
    Buffer.clear buf;
    Buffer.add_string buf (Printf.sprintf "stage %2d: " (s + 1));
    for c = 0 to fab.Route.Fabric.per - 1 do
      if c > 0 then Buffer.add_char buf ' ';
      for j = 0 to r - 1 do
        let p = Route.Plan.port_of plan ~stage:s ~cell:c ~in_port:j in
        Buffer.add_char buf (if p < 0 then '.' else Char.chr (Char.code '0' + p))
      done
    done;
    print_endline (Buffer.contents buf)
  done

let route_pair_run spec n src dst =
  with_network_checked spec n (fun g ->
      let last = Mi_digraph.inputs g - 1 in
      let outside t = t < 0 || t > last in
      if outside src || outside dst then
        Error
          (Printf.sprintf "terminal out of range: %s at n=%d has terminals 0..%d" spec n last)
      else
        match Routing.route g ~input:src ~output:dst with
        | exception Failure _ ->
            Error (Printf.sprintf "%s is not Banyan: several paths from %d to %d" spec src dst)
        | None -> Ok (Printf.printf "no path from %d to %d\n" src dst)
        | Some p ->
            Printf.printf "cells: %s\n"
              (String.concat " -> "
                 (Array.to_list (Array.map string_of_int p.Routing.cells)));
            Printf.printf "ports: %s\n"
              (String.concat ""
                 (Array.to_list (Array.map string_of_int p.Routing.ports)));
            Ok (Printf.printf "port word: %d\n" (Routing.port_word p)))

let route_benes_perm n img =
  let router = Route.Loop.create n in
  let plan = Route.Loop.plan router in
  Route.Loop.route router plan img;
  let terminals = Route.Loop.terminals router in
  Printf.printf "benes n=%d: %d terminals, %d stages, %d switch assignments\n" n terminals
    ((2 * n) - 1)
    (Route.Plan.set_count plan);
  Printf.printf "plan realizes the permutation: %b\n" (Route.Plan.realizes plan img);
  if terminals <= 32 then print_plan plan;
  0

let route_perm_run spec n pspec planes =
  let terminals = 1 lsl n in
  match parse_perm pspec ~terminals with
  | Error f ->
      print_finding_stderr f;
      2
  | Ok img ->
      if String.equal spec "benes" then route_benes_perm n img
      else
        with_network spec n (fun g ->
            match Route.Bit_follow.of_network g with
            | None ->
                Printf.printf "%s is not a delta network: no destination-tag control\n" spec
            | Some router ->
                let ens = Route.Planes.create router ~planes in
                let routed = Route.Planes.connect_all ens img in
                Printf.printf "routed %d/%d pairs through %d plane(s)\n" routed terminals
                  planes;
                Array.iteri
                  (fun input output ->
                    if Route.Planes.plane_of ens input < 0 then
                      match Route.Planes.connect ens ~input ~output with
                      | Ok _ -> ()
                      | Error b ->
                          Printf.printf
                            "blocked: %d -> %d contests stage %d cell %d port %d\n" input
                            output (b.Route.Bit_follow.stage + 1) b.Route.Bit_follow.cell
                            b.Route.Bit_follow.port)
                  img;
                if terminals <= 32 then
                  for k = 0 to Route.Planes.plane_count ens - 1 do
                    Printf.printf "plane %d:\n" k;
                    print_plan (Route.Planes.plan ens k)
                  done)

(* --churn OPS[:SEED]: OPS random toggle operations per trial on an
   incremental Rearrange engine, optionally under an explicit seed. *)
let churn_hint = "CHURN is OPS or OPS:SEED, e.g. --churn 10000:7"

let parse_churn spec =
  let ops_of s =
    if String.length s = 0 then
      Error
        (route_finding ~code:"MINEQ-R208" ~message:"--churn needs an operation count"
           ~hint:churn_hint ())
    else
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | Some v ->
          Error
            (route_finding ~code:"MINEQ-R208"
               ~message:"--churn operation count must be at least 1"
               ~witness:(Printf.sprintf "ops %d" v) ~hint:churn_hint ())
      | None when all_digits s ->
          Error
            (route_finding ~code:"MINEQ-R207"
               ~message:"--churn operation count overflows the native integer range"
               ~witness:(Printf.sprintf "ops %S" s) ~hint:churn_hint ())
      | None ->
          Error
            (route_finding ~code:"MINEQ-R208"
               ~message:"--churn operation count is not an integer"
               ~witness:(Printf.sprintf "ops %S" s) ~hint:churn_hint ())
  in
  match String.index_opt spec ':' with
  | None -> Result.map (fun ops -> (ops, 1)) (ops_of spec)
  | Some i -> (
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match ops_of (String.sub spec 0 i) with
      | Error f -> Error f
      | Ok ops ->
          Result.map (fun s -> (ops, s)) (parse_seed ~what:"OPS:SEED" ~hint:churn_hint rest))

let route_churn_run spec n cspec trials jobs =
  match parse_churn cspec with
  | Error f ->
      print_finding_stderr f;
      2
  | Ok (ops, seed) ->
      if not (String.equal spec "benes") then begin
        print_finding_stderr
          (route_finding ~code:"MINEQ-R209"
             ~message:"--churn needs the rearrangeable benes fabric"
             ~witness:(Printf.sprintf "network %S" spec)
             ~hint:"run as: mineq route benes --churn OPS[:SEED]" ());
        2
      end
      else begin
        let row = Route.Survey.churn ~jobs ~seed ~n ~ops ~trials () in
        Printf.printf "churn benes n=%d: %d ops x %d trial(s), seed %d\n" n ops trials seed;
        Printf.printf "connects %d  disconnects %d  rearranged %.1f%% of connects\n"
          row.Route.Survey.connects row.Route.Survey.disconnects
          (100.0 *. Route.Survey.rearranged_fraction row);
        Printf.printf "connections moved per connect: %.3f mean\n"
          (Route.Survey.moved_per_connect row);
        print_string "moved histogram:";
        Array.iteri
          (fun k c ->
            if c > 0 then
              if k = Array.length row.Route.Survey.moved_hist - 1 then
                Printf.printf " %d+:%d" k c
              else Printf.printf " %d:%d" k c)
          row.Route.Survey.moved_hist;
        print_newline ();
        Printf.printf "end-of-trial consistency failures: %d\n" row.Route.Survey.failures;
        if row.Route.Survey.failures > 0 then 1 else 0
      end

let route_cmd =
  let src_arg =
    Arg.(
      value & opt (some int) None & info [ "s"; "source" ] ~docv:"INPUT" ~doc:"Input terminal.")
  in
  let dst_arg =
    Arg.(
      value & opt (some int) None & info [ "d"; "dest" ] ~docv:"OUTPUT" ~doc:"Output terminal.")
  in
  let perm_arg =
    let doc =
      "Route a whole permutation instead of one pair: identity, bitrev, random:SEED or a \
       comma-separated image.  With NETWORK benes the looping algorithm compiles the full \
       switch-state program (never blocks); on any delta network, destination-tag setup \
       through --planes parallel planes."
    in
    Arg.(value & opt (some string) None & info [ "perm" ] ~docv:"PERM" ~doc)
  in
  let planes_arg =
    Arg.(
      value & opt int 1
      & info [ "planes" ] ~docv:"K" ~doc:"Parallel expansion planes for --perm routing.")
  in
  let churn_arg =
    let doc =
      "Connection-churn throughput model (NETWORK must be benes): per trial, drive a \
       fresh incremental rearrangement engine through OPS random operations — toggle a \
       uniform input, disconnecting it if live and otherwise connecting it to a uniform \
       free output — and report how many existing connections each insertion had to \
       re-route.  SEED defaults to 1; trials come from --trials and run in parallel \
       under --jobs (results are jobs-invariant)."
    in
    Arg.(value & opt (some string) None & info [ "churn" ] ~docv:"OPS[:SEED]" ~doc)
  in
  let trials_arg =
    Arg.(
      value & opt int 4 & info [ "trials" ] ~docv:"T" ~doc:"Independent --churn trials.")
  in
  let run spec n src dst perm planes churn trials jobs =
    match (churn, perm, src, dst) with
    | Some cspec, None, None, None -> route_churn_run spec n cspec trials jobs
    | None, Some pspec, None, None -> route_perm_run spec n pspec planes
    | None, None, Some src, Some dst -> route_pair_run spec n src dst
    | _ ->
        prerr_endline "route needs either --source and --dest, or --perm, or --churn";
        1
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Route one input/output pair, a whole permutation, or a churn workload through \
          a network")
    Term.(
      const run $ network_arg $ n_arg $ src_arg $ dst_arg $ perm_arg $ planes_arg
      $ churn_arg $ trials_arg $ jobs_arg)

(* blocking ----------------------------------------------------------- *)

let blocking_cmd =
  let planes_arg =
    Arg.(
      value & opt int 1
      & info [ "planes"; "k" ] ~docv:"K" ~doc:"Parallel expansion planes per network.")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"T" ~doc:"Random permutations per network.")
  in
  let classes_arg =
    let doc =
      "Skip the Monte-Carlo survey and decide the classical affine traffic classes \
       symbolically: per network, a blocking-free certificate or a minimal blocked pair \
       (Mineq_route_verify.Certify)."
    in
    Arg.(value & flag & info [ "classes" ] ~doc)
  in
  let run_classes n =
    let module V = Mineq_route_verify in
    Printf.printf "%-26s %-16s %s\n" "network" "class" "verdict";
    List.iter
      (fun (name, g) ->
        match Route.Bit_follow.of_network g with
        | None -> Printf.printf "%-26s %-16s not a delta network\n" name "-"
        | Some router ->
            List.iter
              (fun ((tr : V.Certify.traffic), result) ->
                Printf.printf "%-26s %-16s %s\n" name tr.V.Certify.name
                  (Format.asprintf "%a" V.Certify.pp_result result))
              (V.Certify.survey_classes router))
      (Classical.all_networks ~n);
    0
  in
  let run n planes trials seed jobs classes =
    if classes then run_classes n
    else begin
      let rows = Route.Survey.run ~jobs ~seed ~n ~planes ~trials () in
      Printf.printf "%-26s %8s %10s %12s\n" "network" "planes" "perm-ok" "pairs-ok";
      List.iter
        (fun r ->
          Printf.printf "%-26s %8d %9.1f%% %11.1f%%\n" r.Route.Survey.name
            r.Route.Survey.planes
            (100.0 *. Route.Survey.full_fraction r)
            (100.0 *. Route.Survey.routed_fraction r))
        rows;
      0
    end
  in
  Cmd.v
    (Cmd.info "blocking"
       ~doc:
         "Blocking survey: random permutations through plane ensembles across the \
          classical inventory, or (--classes) symbolic certificates for the affine \
          traffic classes")
    Term.(const run $ n_arg $ planes_arg $ trials_arg $ seed_arg $ jobs_arg $ classes_arg)

(* simulate ----------------------------------------------------------- *)

let simulate_cmd =
  let rate_arg =
    Arg.(value & opt float 0.5 & info [ "rate" ] ~docv:"RATE" ~doc:"Injection rate per terminal.")
  in
  let cycles_arg =
    Arg.(value & opt int 1000 & info [ "cycles" ] ~docv:"CYCLES" ~doc:"Measured cycles.")
  in
  let pattern_arg =
    let doc = "Traffic pattern: uniform, bit-reversal or transpose." in
    Arg.(
      value
      & opt (enum [ ("uniform", `Uniform); ("bit-reversal", `Bitrev); ("transpose", `Transpose) ])
          `Uniform
      & info [ "pattern" ] ~docv:"PATTERN" ~doc)
  in
  let reps_arg =
    let doc = "Independent replications; more than one reports mean +/- 95% CI." in
    Arg.(value & opt int 1 & info [ "reps" ] ~docv:"REPS" ~doc)
  in
  let run spec n rate cycles seed pattern reps jobs =
    with_network_checked spec n (fun g ->
        if not (Banyan.is_banyan g) then
          Error (Printf.sprintf "%s is not Banyan: packets need one path per pair" spec)
        else begin
          let pattern =
            match pattern with
            | `Uniform -> Mineq_sim.Traffic.uniform
            | `Bitrev -> Mineq_sim.Traffic.bit_reversal ~n
            | `Transpose -> Mineq_sim.Traffic.transpose ~n
          in
          let config =
            { Mineq_sim.Network_sim.default_config with injection_rate = rate; cycles; pattern }
          in
          Printf.printf "pattern:        %s\n" (Mineq_sim.Traffic.name pattern);
          if reps <= 1 then begin
            let s = Mineq_sim.Network_sim.run ~config (Engine.Seeds.state seed) g in
            Printf.printf "offered:        %d\n" s.offered;
            Printf.printf "injected:       %d\n" s.injected;
            Printf.printf "delivered:      %d\n" s.delivered;
            Printf.printf "refused:        %d\n" s.refused;
            Printf.printf "dropped:        %d\n" s.dropped;
            Printf.printf "throughput:     %.4f pkts/terminal/cycle\n"
              (Mineq_sim.Network_sim.throughput s);
            Printf.printf "mean latency:   %.2f cycles\n" (Mineq_sim.Network_sim.mean_latency s);
            Printf.printf "max latency:    %d cycles\n" s.latency_max
          end
          else begin
            let stats =
              Engine.Batch.simulate_runs ~jobs ~root:seed ~config ~replications:reps g
            in
            let summary f = Mineq_sim.Summary.of_samples (List.map f stats) in
            let pp = Format.asprintf "%a" Mineq_sim.Summary.pp in
            Printf.printf "replications:   %d (jobs %d)\n" reps jobs;
            Printf.printf "throughput:     %s pkts/terminal/cycle\n"
              (pp (summary Mineq_sim.Network_sim.throughput));
            Printf.printf "mean latency:   %s cycles\n"
              (pp (summary Mineq_sim.Network_sim.mean_latency));
            Printf.printf "max latency:    %d cycles\n"
              (List.fold_left (fun acc s -> max acc s.Mineq_sim.Network_sim.latency_max) 0 stats)
          end;
          Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Packet-level simulation of a network")
    Term.(
      const run $ network_arg $ n_arg $ rate_arg $ cycles_arg $ seed_arg $ pattern_arg
      $ reps_arg $ jobs_arg)

(* survey -------------------------------------------------------------- *)

let survey_cmd =
  let run n jobs =
    let rows = Engine.Batch.survey ~jobs ~n in
    Printf.printf "%-26s %-7s %-7s %-7s %-7s\n" "network" "banyan" "indep" "P-char" "delta";
    List.iter
      (fun r ->
        Printf.printf "%-26s %-7b %-7b %-7b %-7b\n" r.Engine.Batch.name r.banyan r.independent
          r.characterization r.delta)
      rows;
    0
  in
  Cmd.v
    (Cmd.info "survey" ~doc:"Property survey of the six classical networks")
    Term.(const run $ n_arg $ jobs_arg)

(* census -------------------------------------------------------------- *)

let census_cmd =
  let samples_arg =
    Arg.(value & opt int 150 & info [ "samples" ] ~docv:"K" ~doc:"Random Banyans to draw.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 400
      & info [ "attempts" ] ~docv:"A" ~doc:"Rejection attempts per Banyan draw.")
  in
  let stream_arg =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Streaming fingerprint-bucketed census: generate $(b,--specs) networks from \
             $(b,--generator) in bounded-memory chunks, bucket by canonical fingerprint and \
             run the isomorphism search only within colliding buckets.  Counts are invariant \
             under $(b,--jobs).")
  in
  let specs_arg =
    Arg.(
      value & opt int 2000
      & info [ "specs" ] ~docv:"K" ~doc:"Specs to stream (with $(b,--stream)).")
  in
  let generator_arg =
    Arg.(
      value & opt string "pipid"
      & info [ "generator" ] ~docv:"GEN"
          ~doc:"Spec generator for $(b,--stream): $(b,random), $(b,pipid) or $(b,affine).")
  in
  let run n samples attempts seed jobs stream specs generator =
    if stream then begin
      match Engine.Stream_census.generator_of_string generator with
      | None ->
          Printf.eprintf "unknown generator %S (expected random, pipid or affine)\n" generator;
          2
      | Some gen ->
          let s = Engine.Stream_census.run ~jobs ~root:seed ~n ~specs ~generator:gen in
          Printf.printf "streamed %d %s specs at n=%d: %d isomorphism classes in %d \
                         fingerprint buckets (%d collisions)\n"
            s.Engine.Stream_census.specs
            (Engine.Stream_census.generator_name s.Engine.Stream_census.generator)
            s.Engine.Stream_census.n
            (List.length s.Engine.Stream_census.classes)
            s.Engine.Stream_census.buckets s.Engine.Stream_census.collisions;
          List.iteri
            (fun i (c : Engine.Stream_census.class_row) ->
              Printf.printf "  class %d: %6d members  first=%-6d%s\n" (i + 1) c.count
                c.first_index
                (if c.baseline then "  <- the Baseline class" else ""))
            s.Engine.Stream_census.classes;
          Printf.printf "baseline class present: %b\n"
            (List.exists
               (fun (c : Engine.Stream_census.class_row) -> c.baseline)
               s.Engine.Stream_census.classes);
          0
    end
    else begin
      let classes =
        Engine.Batch.sample_census ~jobs ~root:seed ~n ~samples ~attempts
      in
      let total = List.fold_left (fun acc c -> acc + List.length c.Census.members) 0 classes in
      Printf.printf "%d random Banyans at n=%d fall into %d isomorphism classes:\n" total n
        (List.length classes);
      List.iteri
        (fun i cls ->
          Printf.printf "  class %d: %3d members  buddy=%-5b delta=%-5b%s\n" (i + 1)
            (List.length cls.Census.members)
            (Properties.has_buddy_property cls.Census.representative)
            (Routing.is_delta cls.Census.representative)
            (if Census.contains_baseline cls then "  <- the Baseline class" else ""))
        classes;
      Printf.printf "baseline class present: %b\n"
        (List.exists Census.contains_baseline classes);
      0
    end
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Sample random Banyan networks and count their isomorphism classes (the X15 \
          experiment as a command); with $(b,--stream), a fingerprint-bucketed streaming \
          census over random/PIPID/affine generators")
    Term.(
      const run $ n_arg $ samples_arg $ attempts_arg $ seed_arg $ jobs_arg $ stream_arg
      $ specs_arg $ generator_arg)

(* benes --------------------------------------------------------------- *)

let benes_cmd =
  let samples_arg =
    Arg.(value & opt int 50 & info [ "samples" ] ~docv:"K" ~doc:"Random permutations to route.")
  in
  let run n seed samples =
    let net = Benes.network n in
    Printf.printf "Benes B(%d): %d stages of %d cells\n" n (Cascade.stages net)
      (Cascade.cells_per_stage net);
    Printf.printf "path diversity: %d\n" (Cascade.path_counts net).(0).(0);
    Printf.printf "%d random permutations routed link-disjoint: %b\n" samples
      (Benes.rearrangeable_check (Engine.Seeds.state seed) ~n ~samples);
    Printf.printf "single-fault tolerant: %b\n" (Faults.is_single_fault_tolerant net);
    0
  in
  Cmd.v
    (Cmd.info "benes" ~doc:"Build the Benes network and demonstrate rearrangeability")
    Term.(const run $ n_arg $ seed_arg $ samples_arg)

(* faults -------------------------------------------------------------- *)

let faults_cmd =
  let sweep_arg =
    let doc =
      "Comma-separated fault counts for a Monte-Carlo survival sweep (e.g. 1,2,4,8); \
       empty skips the sweep."
    in
    Arg.(value & opt (list int) [] & info [ "sweep" ] ~docv:"K1,K2,.." ~doc)
  in
  let samples_arg =
    Arg.(
      value & opt int 400
      & info [ "samples" ] ~docv:"S" ~doc:"Monte-Carlo samples per fault count.")
  in
  let run spec n sweep samples seed jobs =
    with_network spec n (fun g ->
        let c = Cascade.of_mi_digraph g in
        let links = (Cascade.stages c - 1) * Cascade.cells_per_stage c * 2 in
        Printf.printf "links:                  %d\n" links;
        Printf.printf "critical link faults:   %d\n" (Faults.critical_fault_count c);
        Printf.printf "single-fault tolerant:  %b\n" (Faults.is_single_fault_tolerant c);
        List.iteri
          (fun k (f, i) ->
            if k < 8 then
              Format.printf "  %a: %d disconnected, %d degraded@." Faults.pp_fault f
                i.Faults.disconnected_pairs i.Faults.degraded_pairs)
          (Faults.single_link_impacts c);
        if sweep <> [] then begin
          Printf.printf "survival under k random link faults (%d samples, seed %d):\n" samples
            seed;
          List.iter
            (fun (k, p) -> Printf.printf "  k=%-3d survival=%.3f\n" k p)
            (Engine.Batch.fault_survival ~jobs ~root:seed c ~faults:sweep ~samples)
        end)
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"Single-link fault sweep of a network")
    Term.(const run $ network_arg $ n_arg $ sweep_arg $ samples_arg $ seed_arg $ jobs_arg)

(* perms --------------------------------------------------------------- *)

let perms_cmd =
  let samples_arg =
    Arg.(
      value & opt int 0
      & info [ "samples" ] ~docv:"K"
          ~doc:"Estimate with K random settings instead of exact enumeration.")
  in
  let run spec n samples seed =
    with_network spec n (fun g ->
        if samples > 0 then
          Printf.printf "distinct permutations over %d random settings: %d\n" samples
            (Realizable.estimate (Engine.Seeds.state seed) g ~samples)
        else begin
          let switches = Mi_digraph.stages g * Mi_digraph.nodes_per_stage g in
          Printf.printf "distinct permutations over all 2^%d settings: %d\n" switches
            (Realizable.count_exact g)
        end)
  in
  Cmd.v
    (Cmd.info "perms" ~doc:"Count one-pass realizable permutations")
    Term.(const run $ network_arg $ n_arg $ samples_arg $ seed_arg)

(* save / load / dot ---------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Spec file path.")

let save_cmd =
  let run spec n file =
    with_network spec n (fun g ->
        Spec_io.save file g;
        Printf.printf "wrote %s\n" file)
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a network to a spec file")
    Term.(const run $ network_arg $ n_arg $ file_arg)

let load_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Spec file path.")
  in
  let run file =
    match Spec_io.load file with
    | Ok g ->
        print_string (Render.network_summary g);
        0
    | Error e ->
        prerr_endline (Spec_io.error_to_string e);
        1
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load a spec file and print its structural summary")
    Term.(const run $ path_arg)

let dot_cmd =
  let run spec n = with_network spec n (fun g -> print_string (Render.to_dot g)) in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz drawing of a network")
    Term.(const run $ network_arg $ n_arg)

(* lint --------------------------------------------------------------- *)

let lint_cmd =
  let module A = Mineq_analysis in
  let target_arg =
    let doc =
      "Spec file to lint, or (when no such file exists) a NETWORK specification as accepted \
       by the other subcommands."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE-or-NETWORK" ~doc)
  in
  let json_arg =
    let doc = "Emit the machine-readable JSON report instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let routes_arg =
    let doc =
      "Run the static routing verifier instead of the structural lint: CDG deadlock \
       analysis (forward and recirculating), affine blocking certificates and a \
       Plan_check-audited routing smoke test (MINEQ-R* findings)."
    in
    Arg.(value & flag & info [ "routes" ] ~doc)
  in
  let run target n json routes =
    let module RL = Mineq_route_verify.Route_lint in
    let print_report r =
      print_string (if json then A.Report.to_json r else A.Report.to_text r);
      A.Lint.exit_code r
    in
    let print_route_report r =
      print_string (if json then RL.to_json r else RL.to_text r);
      RL.exit_code r
    in
    let parse_error e =
      if json then print_string (A.Report.error_to_json e)
      else prerr_endline (Spec_io.error_to_string e);
      2
    in
    if Sys.file_exists target then
      if routes then
        match RL.lint_file target with
        | Ok r -> print_route_report r
        | Error e -> parse_error e
      else
        match A.Spec_lint.lint_file target with
        | Ok r -> print_report r
        | Error e -> parse_error e
    else
      match Service.parse_named target ~n with
      | Ok g -> if routes then print_route_report (RL.run g) else print_report (A.Lint.run g)
      | Error m -> parse_error { Spec_io.line = None; reason = m }
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Analyze a spec file or network and report structured diagnostics (exit 0 clean, 1 \
          findings, 2 parse error); --routes runs the static routing verifier instead")
    Term.(const run $ target_arg $ n_arg $ json_arg $ routes_arg)

(* serve --------------------------------------------------------------- *)

(* The persistent equivalence/lint daemon (lib/serve): packed
   networks and the exact-keyed verdict caches stay warm across
   requests, with optional disk snapshots so they survive restarts.
   The same subcommand doubles as the scripted client: --call sends
   one JSON request over the socket and prints the response — the
   building block of the serve-smoke CI job. *)

let serve_cmd =
  let module Serve = Mineq_serve in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen (or call) on.")
  in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~docv:"Q"
          ~doc:
            "Bounded accept queue: requests beyond $(docv) pending are shed with \
             MINEQ-S005 instead of stalling.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"B" ~doc:"Max requests per work-stealing pool dispatch.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 2000.0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; requests still queued past it are answered \
             with MINEQ-S004 unevaluated.  A request's own deadline_ms can only lower \
             it.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 512
      & info [ "max-conns" ] ~docv:"C"
          ~doc:
            "Concurrent-connection cap: past $(docv) new clients wait in the kernel \
             backlog until a slot frees.  Keep below the select(2) FD_SETSIZE (1024 on \
             Linux).")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Persist the verdict caches here: loaded on boot (stale or corrupt files \
             boot cold with a warning), written behind periodically and at shutdown.")
  in
  let every_arg =
    Arg.(
      value & opt float 5.0
      & info [ "snapshot-every" ] ~docv:"SECONDS" ~doc:"Write-behind snapshot period.")
  in
  let call_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "call" ] ~docv:"JSON"
          ~doc:
            "Client mode: send one request frame to a running daemon and print the \
             response.  Exit 0 on ok:true, 1 on a server error response, 2 on \
             transport or argument failure.")
  in
  let run_daemon socket jobs queue_cap batch_max deadline_ms max_conns snapshot_path
      every =
    let config =
      { (Serve.Server.default_config ~socket_path:socket) with
        jobs;
        queue_cap;
        batch_max;
        deadline_ms;
        max_conns;
        snapshot_path;
        snapshot_every_s = every
      }
    in
    let service = Serve.Service.create () in
    let on_ready () =
      Printf.printf "mineq serve: listening on %s (jobs %d, queue %d, deadline %.0f ms)\n%!"
        socket config.Serve.Server.jobs queue_cap deadline_ms
    in
    Serve.Server.run ~on_ready config service;
    0
  in
  let run_call socket text =
    match Serve.Proto.json_of_string text with
    | Error m ->
        Printf.eprintf "--call argument is not valid JSON: %s\n" m;
        2
    | Ok request -> (
        match Serve.Server.connect ~retries:40 ~path:socket () with
        | Error m ->
            prerr_endline m;
            2
        | Ok fd ->
            let result = Serve.Server.call fd request in
            (try Unix.close fd with Unix.Unix_error _ -> ());
            (match result with
            | Error m ->
                prerr_endline m;
                2
            | Ok response ->
                print_endline (Serve.Proto.json_to_string response);
                if Serve.Proto.response_ok response then 0 else 1))
  in
  let run socket jobs queue_cap batch_max deadline_ms max_conns snapshot every call =
    match call with
    | Some text -> run_call socket text
    | None ->
        run_daemon socket jobs queue_cap batch_max deadline_ms max_conns snapshot every
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent equivalence/lint daemon over a Unix socket: length-prefixed JSON \
          requests against warm packed networks and snapshot-persisted verdict caches \
          (or, with --call, a one-shot client)")
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_arg $ batch_arg $ deadline_arg
      $ max_conns_arg $ snapshot_arg $ every_arg $ call_arg)

(* rsurvey ------------------------------------------------------------- *)

(* The radix commands get the terminal ceiling [-n] gives the binary
   ones: R >= 2 and R^N <= 2^Proto.n_limit. *)
let max_terminals = 1 lsl Mineq_serve.Proto.n_limit

let rsurvey_cmd =
  let radix_arg =
    let radix_conv =
      let parse s =
        match int_of_string_opt s with
        | Some r when r >= 2 -> Ok r
        | Some _ -> Error (`Msg "R must be >= 2")
        | None -> Error (`Msg "R must be an integer")
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    let doc = Printf.sprintf "Cell size (R x R): R >= 2 and R^N <= %d terminals." max_terminals in
    Arg.(value & opt radix_conv 3 & info [ "radix"; "r" ] ~docv:"R" ~doc)
  in
  let rec within_terminals acc k radix =
    k = 0 || (acc * radix <= max_terminals && within_terminals (acc * radix) (k - 1) radix)
  in
  let survey radix n =
    let module Rn = Mineq_radix.Rnetwork in
    let base = Mineq_radix.Rbuild.baseline ~radix n in
    Printf.printf "%-26s %-7s %-12s %-14s %-7s\n" "network" "banyan" "independent"
      "P-properties" "delta";
    List.iter
      (fun (name, g) ->
        Printf.printf "%-26s %-7b %-12b %-14b %-7b\n" name (Rn.is_banyan g)
          (Rn.by_independence g) (Rn.by_characterization g)
          (Option.is_some (Routing.schedule (Rn.packed g))))
      (Mineq_radix.Rbuild.all_networks ~radix ~n);
    Printf.printf "all isomorphic to the radix-%d baseline: %b\n" radix
      (List.for_all
         (fun (_, g) -> Rn.isomorphic g base)
         (Mineq_radix.Rbuild.all_networks ~radix ~n));
    0
  in
  let run radix n =
    if within_terminals 1 n radix then `Ok (survey radix n)
    else
      `Error
        (true, Printf.sprintf "R^N must be at most %d terminals (R=%d, N=%d)" max_terminals radix n)
  in
  Cmd.v
    (Cmd.info "rsurvey" ~doc:"Property survey of the classical networks at radix r")
    Term.(ret (const run $ radix_arg $ n_arg))

let main_cmd =
  let doc = "Baseline-equivalence toolkit for multistage interconnection networks" in
  let info = Cmd.info "mineq" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ build_cmd; render_cmd; check_cmd; equiv_cmd; iso_cmd; route_cmd; blocking_cmd;
      simulate_cmd; survey_cmd; census_cmd; rsurvey_cmd; benes_cmd; faults_cmd; perms_cmd;
      save_cmd; load_cmd; dot_cmd; lint_cmd; serve_cmd
    ]

let () = exit (Cmd.eval' main_cmd)
