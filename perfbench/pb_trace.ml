(* pb_trace: the traced in-process replay behind `run.py --trace 1`.

     pb_trace serve   --dir DIR --spans FILE [--snapshot FILE]
     pb_trace offline --seed S --mix MIX --oneshots K --spans FILE

   serve replays the requests pb_ref wrote to DIR (closed then open
   phase, as one daemon round sees them) through the library's public
   calls; offline replays the workload's jobs in-process.  Each call is
   wrapped in a span (name, start, end, parent, request id).  Spans
   stay in memory until the end and are then written to the --spans
   file; a layer's self time is its spans' time minus their child
   spans' time.
   The last line of stdout is a JSON object of per-layer figures, which
   run.py joins with what it measured over the socket and the CLI.

   trace.overhead_pct compares the whole request path (parse, handle,
   encode) replayed with spans and without.  Where a layer caches its
   result in the network record (packing, fingerprints), it is timed on
   a freshly built network.  The
   decomposition of a request mirrors [Service.handle]'s steps on state
   this program owns (a resident table, and memos with the daemon's
   keying, warm-booted from the same snapshot), so memo hit rates and
   kernel calls match the daemon's. *)

open Mineq
module W = Pb_work
module Serve = Mineq_serve
module Proto = Serve.Proto
module Memo = Mineq_engine.Memo
module A = Mineq_analysis
module V = Mineq_route_verify
module R = Mineq_route
module Sim = Mineq_sim.Network_sim

(* Spans ---------------------------------------------------------------- *)

type span = { name : string; req : int; parent : int; start : float; mutable stop : float }

let spans = ref (Array.make 65536 { name = ""; req = 0; parent = -1; start = 0.0; stop = 0.0 })

let count = ref 0

let open_spans = ref []

let now = Unix.gettimeofday

let span name ~req f =
  if !count = Array.length !spans then
    spans := Array.append !spans (Array.make !count (!spans).(0));
  let parent = match !open_spans with [] -> -1 | p :: _ -> p in
  let i = !count in
  incr count;
  (!spans).(i) <- { name; req; parent; start = now (); stop = 0.0 };
  open_spans := i :: !open_spans;
  let finish () =
    (!spans).(i).stop <- now ();
    open_spans := List.tl !open_spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* name -> (calls, total self seconds, total inclusive seconds) *)
let self_times () =
  let child = Array.make !count 0.0 in
  for i = 0 to !count - 1 do
    let s = (!spans).(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to !count - 1 do
    let s = (!spans).(i) in
    let calls, self, incl = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
    let dur = s.stop -. s.start in
    Hashtbl.replace tbl s.name (calls + 1, self +. dur -. child.(i), incl +. dur)
  done;
  tbl

let write_spans path =
  let oc = open_out_bin path in
  output_string oc "index\tname\treq\tparent\tstart_us\tstop_us\n";
  let t0 = if !count > 0 then (!spans).(0).start else 0.0 in
  for i = 0 to !count - 1 do
    let s = (!spans).(i) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.1f\t%.1f\n" i s.name s.req s.parent
      ((s.start -. t0) *. 1e6) ((s.stop -. t0) *. 1e6)
  done;
  close_out oc

(* Figures ---------------------------------------------------------------- *)

let figures : (string * float) list ref = ref []

let put name v = figures := (name, v) :: !figures

(* Mean self time per call in microseconds, and the call count, for
   every span name with [prefix] (summed over the names it matches). *)
let layer tbl ~prefix ~metric ~calls =
  let n, total =
    Hashtbl.fold
      (fun name (c, t, _) (n, total) ->
        if String.starts_with ~prefix name then (n + c, total +. t) else (n, total))
      tbl (0, 0.0)
  in
  put metric (if n = 0 then 0.0 else total /. float_of_int n *. 1e6);
  Option.iter (fun c -> put c (float_of_int n)) calls

let calls_of tbl prefix =
  Hashtbl.fold
    (fun name (c, _, _) n -> if String.starts_with ~prefix name then n + c else n)
    tbl 0

let minor_words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

let get = function Ok v -> v | Error _ -> failwith "pb_trace: replayed input was rejected"

(* Serve replay -------------------------------------------------------------- *)

let request_of payload = get (Result.bind (Proto.json_of_string payload) Proto.request_of_json)

let serve ~dir ~snapshot =
  let payloads =
    Array.append
      (read_lines (Filename.concat dir "closed.jsonl"))
      (read_lines (Filename.concat dir "open.jsonl"))
  in
  let warm = Option.map (fun path -> get (Serve.Snapshot.load ~path)) snapshot in
  let booted () =
    let svc = Serve.Service.create () in
    Option.iter (fun p -> ignore (Serve.Service.adopt svc p)) warm;
    svc
  in
  (* Tracing overhead: the whole path (parse, handle, encode) with no
     spans on a warm-booted service, then (below) with spans on another.
     A discarded first pass grows the heap, so neither timed pass pays
     for that. *)
  let whole_path () =
    let svc = booted () in
    let t0 = now () in
    Array.iter
      (fun p -> ignore (Proto.json_to_string (Serve.Service.handle svc (request_of p))))
      payloads;
    now () -. t0
  in
  ignore (whole_path ());
  let untraced = whole_path () in
  let svc = booted () in
  let own = Serve.Service.create () in
  let equiv_memo = Memo.create ~keying:Memo.Fingerprint () in
  let lint_memo = Memo.create () in
  let blocking_memo = Memo.create () in
  Option.iter
    (fun (p : Serve.Snapshot.payload) ->
      ignore (Memo.import equiv_memo p.Serve.Snapshot.equiv);
      ignore (Memo.import lint_memo p.Serve.Snapshot.lint);
      ignore (Memo.import blocking_memo p.Serve.Snapshot.blocking))
    warm;
  let inline = Hashtbl.create 256 in
  let baselines = Hashtbl.create 8 in
  let traced = ref 0.0 in
  let encode_words = ref 0.0 and bytes_out = ref 0 and fp_words = ref 0.0 in
  Array.iteri
    (fun req p ->
      let t0 = now () in
      let r =
        span "request" ~req (fun () ->
            let r = span "proto.parse" ~req (fun () -> request_of p) in
            let resp = span ("service.handle." ^ r.Proto.op) ~req (fun () -> Serve.Service.handle svc r) in
            let s, w = minor_words (fun () -> span "proto.encode" ~req (fun () -> Proto.json_to_string resp)) in
            encode_words := !encode_words +. w;
            bytes_out := !bytes_out + String.length s;
            r)
      in
      traced := !traced +. (now () -. t0);
      (* The steps [Service.handle] takes, one span each. *)
      let g =
        span "service.decomposed" ~req (fun () ->
            let g =
              match (r.Proto.network, r.Proto.spec) with
              | Some name, _ ->
                  span "service.resolve" ~req (fun () ->
                      get (Serve.Service.network_of_spec own ~spec:name ~n:r.Proto.n))
              | None, Some text -> (
                  let key = Digest.string text in
                  match Hashtbl.find_opt inline key with
                  | Some g -> g
                  | None ->
                      let g = span "spec_io.parse" ~req (fun () -> get (Spec_io.of_string text)) in
                      Hashtbl.add inline key g;
                      g)
              | None, None -> failwith "pb_trace: request without a network"
            in
            let probe memo compute =
              ignore (span "memo.probe" ~req (fun () -> Memo.find_or_compute memo g compute))
            in
            let verdict g : Proto.verdict =
              let v =
                span "equivalence.characterization" ~req (fun () -> Equivalence.by_characterization g)
              in
              { equivalent = v.Equivalence.equivalent; banyan = v.Equivalence.banyan;
                detail = v.Equivalence.detail }
            in
            (match (r.Proto.op, r.Proto.method_) with
            | "equiv", Some "independence" ->
                ignore
                  (span "equivalence.independence" ~req (fun () ->
                       Equivalence.decide Equivalence.Independence g))
            | "equiv", Some "isomorphism" ->
                ignore
                  (span "equivalence.isomorphism" ~req (fun () ->
                       Equivalence.decide Equivalence.Isomorphism g))
            | ("equiv" | "banyan"), _ -> probe equiv_memo verdict
            | "lint", _ ->
                probe lint_memo (fun g ->
                    let rep = span "lint.run" ~req (fun () -> A.Lint.run g) in
                    let json = span "report.to_json" ~req (fun () -> A.Report.to_json rep) in
                    { Proto.report = get (Proto.json_of_string json); errors = A.Lint.errors rep;
                      warnings = A.Lint.warnings rep; infos = A.Lint.infos rep })
            | "blocking", _ ->
                probe blocking_memo (fun g ->
                    match span "bit_follow.of_network" ~req (fun () -> R.Bit_follow.of_network g) with
                    | None -> { Proto.delta = false; rows = [] }
                    | Some router ->
                        let rows = span "certify.survey" ~req (fun () -> V.Certify.survey_classes router) in
                        { Proto.delta = true;
                          rows =
                            List.map
                              (fun ((tr : V.Certify.traffic), res) ->
                                (tr.V.Certify.name, Format.asprintf "%a" V.Certify.pp_result res))
                              rows })
            | op, _ -> failwith ("pb_trace: unexpected op " ^ op));
            g)
      in
      (* Layers that cache in the network record, on fresh copies. *)
      let fresh () =
        match (r.Proto.network, r.Proto.spec) with
        | Some name, _ -> W.network_of_name name ~n:r.Proto.n
        | _, Some text -> get (Spec_io.of_string text)
        | None, None -> g
      in
      let g1 = fresh () in
      ignore (span "mi_digraph.pack" ~req (fun () -> Mi_digraph.packed g1));
      let g2 = fresh () in
      ignore (Mi_digraph.packed g2);
      let fp, w = minor_words (fun () -> span "fingerprint" ~req (fun () -> Fingerprint.of_network g2)) in
      fp_words := !fp_words +. w;
      if r.Proto.method_ = Some "isomorphism" then begin
        (* The search [by_isomorphism] runs once fingerprints agree. *)
        let n = Mi_digraph.stages g in
        let base =
          match Hashtbl.find_opt baselines n with
          | Some b -> b
          | None ->
              let b = Baseline.network n in
              Hashtbl.add baselines n b;
              b
        in
        if Fingerprint.equal fp (Fingerprint.of_network base) then
          ignore
            (span "iso.find" ~req (fun () ->
                 Mineq_graph.Iso.find_isomorphism (Mi_digraph.to_digraph g2)
                   (Mi_digraph.to_digraph base)))
      end)
    payloads;
  let tbl = self_times () in
  let requests = float_of_int (Array.length payloads) in
  layer tbl ~prefix:"proto.parse" ~metric:"proto.parse_us" ~calls:None;
  layer tbl ~prefix:"proto.encode" ~metric:"proto.encode_us" ~calls:None;
  put "proto.calls" (float_of_int (calls_of tbl "proto.parse" + calls_of tbl "proto.encode"));
  put "proto.encode_minor_w" (!encode_words /. requests);
  put "proto.bytes_out" (float_of_int !bytes_out /. requests);
  layer tbl ~prefix:"service.handle." ~metric:"service.handle_us" ~calls:(Some "service.calls");
  List.iter
    (fun op ->
      layer tbl ~prefix:("service.handle." ^ op) ~metric:("service.handle_us." ^ op) ~calls:None)
    [ "equiv"; "banyan"; "lint"; "blocking" ];
  (* The handle's own time: its spans less the mirrored steps. *)
  let inclusive prefix =
    Hashtbl.fold
      (fun name (_, _, t) acc -> if String.starts_with ~prefix name then acc +. t else acc)
      tbl 0.0
  in
  put "service.self_us"
    ((inclusive "service.handle." -. inclusive "service.decomposed") /. requests *. 1e6);
  layer tbl ~prefix:"service.resolve" ~metric:"service.resolve_us" ~calls:None;
  put "service.resident_networks"
    (match
       Proto.member "resident_networks"
         (Serve.Service.handle svc
            { Proto.id = Proto.Null; op = "stats"; network = None; spec = None; n = 4;
              method_ = None; deadline_ms = None })
     with
    | Proto.Int k -> float_of_int k
    | _ -> nan);
  layer tbl ~prefix:"spec_io.parse" ~metric:"spec_io.parse_us" ~calls:(Some "spec_io.calls");
  layer tbl ~prefix:"mi_digraph.pack" ~metric:"mi_digraph.pack_us" ~calls:(Some "mi_digraph.calls");
  layer tbl ~prefix:"fingerprint" ~metric:"fingerprint.us" ~calls:(Some "fingerprint.calls");
  put "fingerprint.minor_w" (!fp_words /. float_of_int (max 1 (calls_of tbl "fingerprint")));
  List.iter
    (fun (name, memo_rate) -> put ("memo.hit_rate." ^ name) memo_rate)
    [ ("equiv", Memo.hit_rate equiv_memo); ("lint", Memo.hit_rate lint_memo);
      ("blocking", Memo.hit_rate blocking_memo) ];
  layer tbl ~prefix:"memo.probe" ~metric:"memo.probe_us" ~calls:(Some "memo.calls");
  List.iter
    (fun m ->
      layer tbl ~prefix:("equivalence." ^ m) ~metric:(Printf.sprintf "equivalence.%s_us" m) ~calls:None)
    [ "characterization"; "independence"; "isomorphism" ];
  put "equivalence.calls" (float_of_int (calls_of tbl "equivalence."));
  layer tbl ~prefix:"iso.find" ~metric:"iso.find_us" ~calls:(Some "iso.calls");
  layer tbl ~prefix:"lint.run" ~metric:"lint.run_us" ~calls:(Some "lint.calls");
  layer tbl ~prefix:"report.to_json" ~metric:"report.to_json_us" ~calls:(Some "report.calls");
  layer tbl ~prefix:"bit_follow.of_network" ~metric:"bit_follow.of_network_us"
    ~calls:(Some "bit_follow.calls");
  layer tbl ~prefix:"certify.survey" ~metric:"certify.survey_us" ~calls:(Some "certify.calls");
  (match snapshot with
  | None -> ()
  | Some path ->
      let loads =
        Array.init 5 (fun i ->
            let t0 = now () in
            ignore (span "snapshot.load" ~req:i (fun () -> Serve.Snapshot.load ~path));
            (now () -. t0) *. 1e3)
      in
      Array.sort compare loads;
      put "snapshot.load_ms" loads.(2);
      put "snapshot.calls" 5.0;
      put "snapshot.bytes" (float_of_int (Unix.stat path).Unix.st_size);
      put "snapshot.entries"
        (float_of_int (Serve.Snapshot.entry_count (Option.get warm))));
  put "trace.overhead_pct" ((!traced -. untraced) /. untraced *. 100.0);
  (* Direct (in-process) cost of a request, for the socket breakdown. *)
  put "direct_us" (untraced /. requests *. 1e6)

(* Offline replay -------------------------------------------------------------- *)

let benes_perm ~terminals seed =
  (* route benes --perm random:SEED's permutation. *)
  let st = Mineq_engine.Seeds.state seed in
  let img = Array.init terminals Fun.id in
  for i = terminals - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = img.(i) in
    img.(i) <- img.(j);
    img.(j) <- t
  done;
  img

let churn ~n ~ops ~seed ~trials =
  let connects = ref 0 and moved = ref 0 and words = ref 0.0 in
  for trial = 0 to trials - 1 do
    let st = Mineq_engine.Seeds.derive ~root:seed trial in
    let rr = R.Rearrange.create n in
    let nt = R.Rearrange.terminals rr in
    let rec free_output () =
      let o = Random.State.int st nt in
      if R.Rearrange.input_of rr o < 0 then o else free_output ()
    in
    for op = 1 to ops do
      let (), w =
        minor_words (fun () ->
            span "rearrange.toggle" ~req:op (fun () ->
                let i = Random.State.int st nt in
                if R.Rearrange.output_of rr i >= 0 then ignore (R.Rearrange.disconnect rr ~input:i)
                else begin
                  ignore (R.Rearrange.connect rr ~input:i ~output:(free_output ()));
                  incr connects;
                  moved := !moved + R.Rearrange.last_moved rr
                end))
      in
      words := !words +. w
    done
  done;
  put "rearrange.moved_per_connect" (float_of_int !moved /. float_of_int (max 1 !connects));
  put "rearrange.minor_w" (!words /. float_of_int (ops * trials))

let offline ~seed ~mix ~count =
  let module S = Mineq_engine.Stream_census in
  Array.iteri
    (fun req job ->
      match job with
      | W.Equiv (name, n, m) ->
          let g = W.network_of_name name ~n in
          let meth =
            List.find (fun x -> String.equal (Equivalence.method_name x) m) Equivalence.all_methods
          in
          ignore (span ("equivalence." ^ m) ~req (fun () -> Equivalence.decide meth g))
      | W.Check _ -> ()
      | W.Iso (a, b, n) ->
          let ga = W.network_of_name a ~n and gb = W.network_of_name b ~n in
          ignore (span "iso_min.find" ~req (fun () -> Iso_min.find ga gb))
      | W.Route (name, n, s, d) ->
          let g = W.network_of_name name ~n in
          ignore (span "routing.route" ~req (fun () -> Routing.route g ~input:s ~output:d))
      | W.Perm (n, s) ->
          let router = R.Loop.create n in
          let plan = R.Loop.plan router in
          let img = benes_perm ~terminals:(R.Loop.terminals router) s in
          span "loop.route" ~req (fun () -> R.Loop.route router plan img)
      | W.Lint (_, text) ->
          let g = span "spec_io.parse" ~req (fun () -> get (Spec_io.of_string text)) in
          let declared = snd (get (Spec_io.gaps_of_string text)) in
          let rep = span "lint.run" ~req (fun () -> A.Lint.run ~declared g) in
          ignore (span "report.to_json" ~req (fun () -> A.Report.to_json rep))
      | W.Census _ | W.Churn _ | W.Simulate _ -> ())
    (W.oneshots ~seed ~mix ~count);
  let tbl_words = ref 0.0 and fp_calls = ref 0 in
  Array.iter
    (fun job ->
      match job with
      | W.Census { n; specs; seed } ->
          let run jobs =
            let t0 = now () in
            let s =
              span (Printf.sprintf "stream_census.run.jobs%d" jobs) ~req:jobs (fun () ->
                  S.run ~jobs ~root:seed ~n ~specs ~generator:S.Pipid)
            in
            (s, now () -. t0)
          in
          let _, t1 = run 1 in
          let s, t2 = run 2 in
          put "pool.efficiency" (t1 /. (2.0 *. t2));
          put "pool.calls" 2.0;
          put "stream_census.buckets" (float_of_int s.S.buckets);
          put "stream_census.collisions" (float_of_int s.S.collisions);
          (* The census fingerprints every spec: the same call on the
             same kind of network, freshly built and packed. *)
          for k = 0 to specs - 1 do
            let g = Link_spec.random_pipid_network (Mineq_engine.Seeds.derive ~root:seed k) ~n in
            ignore (Mi_digraph.packed g);
            let _, w = minor_words (fun () -> span "fingerprint" ~req:k (fun () -> Fingerprint.of_network g)) in
            tbl_words := !tbl_words +. w;
            incr fp_calls
          done
      | W.Churn { n; ops; seed } -> churn ~n ~ops ~seed ~trials:4
      | W.Simulate { n; cycles; seed } ->
          let config =
            { Sim.default_config with injection_rate = 0.5; cycles; pattern = Mineq_sim.Traffic.uniform }
          in
          let g = W.network_of_name "omega" ~n in
          let t0 = now () in
          let s =
            span "network_sim.run" ~req:0 (fun () -> Sim.run ~config (Mineq_engine.Seeds.state seed) g)
          in
          put "network_sim.cycle_us"
            ((now () -. t0) /. float_of_int (config.Sim.warmup + cycles) *. 1e6);
          put "network_sim.delivered_ratio"
            (float_of_int s.Sim.delivered /. float_of_int (max 1 s.Sim.injected));
          put "network_sim.calls" 1.0
      | _ -> ())
    (W.batch ~seed);
  let tbl = self_times () in
  put "stream_census.calls" (float_of_int (calls_of tbl "stream_census.run"));
  put "fingerprint.minor_w" (!tbl_words /. float_of_int (max 1 !fp_calls));
  layer tbl ~prefix:"fingerprint" ~metric:"fingerprint.us" ~calls:(Some "fingerprint.calls");
  List.iter
    (fun m ->
      layer tbl ~prefix:("equivalence." ^ m) ~metric:(Printf.sprintf "equivalence.%s_us" m) ~calls:None)
    [ "characterization"; "independence"; "isomorphism" ];
  put "equivalence.calls" (float_of_int (calls_of tbl "equivalence."));
  layer tbl ~prefix:"iso_min.find" ~metric:"iso_min.find_us" ~calls:(Some "iso_min.calls");
  layer tbl ~prefix:"routing.route" ~metric:"routing.route_us" ~calls:(Some "routing.calls");
  layer tbl ~prefix:"loop.route" ~metric:"loop.route_us" ~calls:(Some "loop.calls");
  layer tbl ~prefix:"spec_io.parse" ~metric:"spec_io.parse_us" ~calls:(Some "spec_io.calls");
  layer tbl ~prefix:"lint.run" ~metric:"lint.run_us" ~calls:(Some "lint.calls");
  layer tbl ~prefix:"report.to_json" ~metric:"report.to_json_us" ~calls:(Some "report.calls");
  layer tbl ~prefix:"rearrange.toggle" ~metric:"rearrange.toggle_us" ~calls:(Some "rearrange.calls")

(* Command line ----------------------------------------------------------------- *)

let flag name args =
  let rec go = function
    | k :: v :: _ when String.equal k name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let required name args =
  match flag name args with Some v -> v | None -> failwith ("pb_trace: missing " ^ name)

let () =
  let args = Array.to_list Sys.argv in
  (match args with
  | _ :: "serve" :: _ -> serve ~dir:(required "--dir" args) ~snapshot:(flag "--snapshot" args)
  | _ :: "offline" :: _ ->
      offline
        ~seed:(int_of_string (required "--seed" args))
        ~mix:(List.map (fun ((l, _), w) -> (l, w)) (W.parse_mix (required "--mix" args)))
        ~count:(int_of_string (required "--oneshots" args))
  | _ ->
      prerr_endline "usage: pb_trace (serve|offline) ... --spans FILE";
      exit 2);
  write_spans (required "--spans" args);
  print_endline
    ("{"
    ^ String.concat ", "
        (List.rev_map
           (fun (k, v) -> Printf.sprintf "%s: %s" (W.json_string k) (if Float.is_nan v then "null" else Printf.sprintf "%.17g" v))
           !figures)
    ^ "}")
