(* Static-verification bench artifact: channel-dependency-graph
   construction and SCC-pass throughput, affine blocking-certificate
   decision rate and plan-soundness audit rate, written to
   BENCH_verify.json.

   The Tarjan SCC pass is the one hot path here contracted to
   allocate nothing after construction: its rows carry a
   [scc_minor_w] column and the process exits 1 when any of them is
   above zero.  A second gate cross-checks the verdicts themselves —
   every forward CDG must certify deadlock-free and every
   single-lane recirculating configuration must cycle; a wrong
   verdict is a bug, not a statistic.

   Run with --smoke for a tiny-budget crash/format check. *)

module Bit_follow = Mineq_route.Bit_follow
module Plan = Mineq_route.Plan
module Cdg = Mineq_route_verify.Cdg
module Certify = Mineq_route_verify.Certify
module Plan_check = Mineq_route_verify.Plan_check

let smoke = Bench_util.smoke_requested ()

let router_at n =
  Option.get (Bit_follow.of_network (Mineq.Classical.network Omega ~n))

type build_row = {
  c_n : int;
  c_links : int;
  c_turns : int;
  c_us : float;
}

let build_row ~n ~reps =
  let router = router_at n in
  let op () = Cdg.of_router ~recirculate:true router in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  let cdg = op () in
  Printf.printf "cdg_build_n%-2d    %8.1f us/build   %10.0f builds/s\n%!" n us (1e6 /. us);
  { c_n = n; c_links = Cdg.links cdg; c_turns = Cdg.edge_count cdg; c_us = us }

type scc_row = {
  s_n : int;
  s_recirc : bool;
  s_links : int;
  s_free : bool;
  s_us : float;
  s_minor_w : float;
}

let scc_row ~n ~recirculate ~reps =
  let router = router_at n in
  let cdg = Cdg.of_router ~recirculate router in
  let free = ref true in
  let op () = free := Cdg.deadlock_free cdg in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  let minor_w = Bench_util.minor_words_per_op ~reps op in
  Printf.printf "%-16s %8.1f us/pass    %10.0f passes/s   minor %.1f w\n%!"
    (Printf.sprintf "scc_n%d%s" n (if recirculate then "_recirc" else ""))
    us (1e6 /. us) minor_w;
  { s_n = n;
    s_recirc = recirculate;
    s_links = Cdg.links cdg;
    s_free = !free;
    s_us = us;
    s_minor_w = minor_w
  }

type cert_row = {
  t_n : int;
  t_class : string;
  t_free : bool;
  t_us : float;
}

let cert_row ~n ~reps =
  let router = router_at n in
  let tr = Certify.bit_reversal ~bits:n in
  let free = ref false in
  let op () =
    free := (match Certify.analyze router tr with Certify.Free _ -> true | _ -> false)
  in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  Printf.printf "certify_n%-2d      %8.1f us/decision %9.0f decisions/s\n%!" n us (1e6 /. us);
  { t_n = n; t_class = tr.Certify.name; t_free = !free; t_us = us }

type audit_row = {
  a_n : int;
  a_paths : int;
  a_us : float;
}

let audit_row ~n ~reps =
  let router = router_at n in
  let fab = Bit_follow.fabric router in
  let plan = Plan.create fab in
  let terminals = 1 lsl n in
  let paths = ref 0 in
  for i = 0 to terminals - 1 do
    if Bit_follow.try_route router plan ~input:i ~output:i then incr paths
  done;
  let sound = ref false in
  let op () = sound := Plan_check.is_sound plan in
  let reps = Bench_util.scaled_reps ~reps in
  let us = Bench_util.time_us ~reps op in
  Printf.printf "plan_audit_n%-2d   %8.1f us/audit    %10.0f audits/s   sound %b\n%!" n us
    (1e6 /. us) !sound;
  if not !sound then failwith "plan audit gate: a routed plan audited unsound";
  { a_n = n; a_paths = !paths; a_us = us }

let () =
  Printf.printf "verify bench%s\n%!" (if smoke then " (smoke)" else "");
  (* explicit lets: list literals evaluate right to left, which would
     reverse the printed progress *)
  let c4 = build_row ~n:4 ~reps:2000 in
  let c6 = build_row ~n:6 ~reps:500 in
  let c8 = build_row ~n:8 ~reps:100 in
  let c10 = build_row ~n:10 ~reps:20 in
  let builds = [ c4; c6; c8; c10 ] in
  let s6f = scc_row ~n:6 ~recirculate:false ~reps:4000 in
  let s6r = scc_row ~n:6 ~recirculate:true ~reps:4000 in
  let s8r = scc_row ~n:8 ~recirculate:true ~reps:1000 in
  let s10r = scc_row ~n:10 ~recirculate:true ~reps:200 in
  let sccs = [ s6f; s6r; s8r; s10r ] in
  let t6 = cert_row ~n:6 ~reps:400 in
  let t8 = cert_row ~n:8 ~reps:100 in
  let t10 = cert_row ~n:10 ~reps:20 in
  let certs = [ t6; t8; t10 ] in
  let a8 = audit_row ~n:8 ~reps:400 in
  let audits = [ a8 ] in
  let zero_alloc = List.for_all (fun r -> r.s_minor_w <= 0.0) sccs in
  (* verdict gate: forward free, single-lane recirculation cyclic *)
  let verdicts_ok =
    List.for_all (fun r -> if r.s_recirc then not r.s_free else r.s_free) sccs
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string buf "  \"cdg_build\": [\n";
  let last = List.length builds - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"links\": %d, \"turns\": %d, \"us_per_build\": %.2f, \
            \"builds_per_sec\": %.0f}%s\n"
           r.c_n r.c_links r.c_turns r.c_us (1e6 /. r.c_us)
           (if i = last then "" else ",")))
    builds;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"scc\": [\n";
  let last = List.length sccs - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"recirculate\": %b, \"links\": %d, \"deadlock_free\": %b, \
            \"us_per_pass\": %.2f, \"scc_minor_w\": %.1f}%s\n"
           r.s_n r.s_recirc r.s_links r.s_free r.s_us r.s_minor_w
           (if i = last then "" else ",")))
    sccs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"certify\": [\n";
  let last = List.length certs - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"class\": %S, \"blocking_free\": %b, \"us_per_decision\": \
            %.2f, \"decisions_per_sec\": %.0f}%s\n"
           r.t_n r.t_class r.t_free r.t_us (1e6 /. r.t_us)
           (if i = last then "" else ",")))
    certs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"plan_audit\": [\n";
  let last = List.length audits - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"n\": %d, \"paths\": %d, \"us_per_audit\": %.2f, \"audits_per_sec\": \
            %.0f}%s\n"
           r.a_n r.a_paths r.a_us (1e6 /. r.a_us)
           (if i = last then "" else ",")))
    audits;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"gates\": {\"scc_zero_alloc\": %b, \"verdicts_ok\": %b}\n" zero_alloc
       verdicts_ok);
  Buffer.add_string buf "}\n";
  let path = Bench_util.output_path ~default:"BENCH_verify.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if not verdicts_ok then begin
    Printf.eprintf "FAIL: a CDG verdict disagrees with the leveled/recirculating theory\n%!";
    exit 1
  end;
  if not zero_alloc then begin
    Printf.eprintf "FAIL: the SCC pass allocates (see scc_minor_w)\n%!";
    exit 1
  end
