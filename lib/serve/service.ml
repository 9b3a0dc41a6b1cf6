module Memo = Mineq_engine.Memo
module Seeds = Mineq_engine.Seeds
open Mineq
open Proto

type t = {
  equiv : Proto.verdict Memo.t;
  lint : Proto.lint_cached Memo.t;
  blocking : Proto.blocking_cached Memo.t;
  metrics : Metrics.t;
  networks : (string, Mi_digraph.t) Hashtbl.t;
  networks_m : Mutex.t;
  mutable note : string;
  note_m : Mutex.t;
}

let create () =
  { equiv = Memo.create ();
    lint = Memo.create ();
    blocking = Memo.create ();
    metrics = Metrics.create ();
    networks = Hashtbl.create 64;
    networks_m = Mutex.create ();
    note = "cold";
    note_m = Mutex.create ()
  }

let metrics t = t.metrics

let snapshot_note t =
  Mutex.lock t.note_m;
  let n = t.note in
  Mutex.unlock t.note_m;
  n

let set_note t n =
  Mutex.lock t.note_m;
  t.note <- n;
  Mutex.unlock t.note_m

let note_snapshot_error t m = set_note t (Printf.sprintf "load failed: %s" m)

(* Network resolution ------------------------------------------------

   The same specification grammar as the CLI's NETWORK argument, plus
   inline spec text.  Parse results (with their lazily packed CSR
   forms) stay resident, so only a spec's first appearance pays
   construction. *)

let parse_named spec ~n =
  match Classical.of_name spec with
  | Some kind -> Ok (Classical.network kind ~n)
  | None -> (
      let seeded name build = function
        | Some s -> Ok (build (Seeds.state s) ~n)
        | None -> Error (Printf.sprintf "%s:SEED needs an integer seed" name)
      in
      match String.split_on_char ':' spec with
      | [ "random"; seed ] -> seeded "random" Link_spec.random_network (int_of_string_opt seed)
      | [ "pipid"; seed ] ->
          seeded "pipid" Link_spec.random_pipid_network (int_of_string_opt seed)
      | [ "buddy"; seed ] ->
          seeded "buddy" Counterexample.random_buddy_network (int_of_string_opt seed)
      | _ ->
          Error
            (Printf.sprintf
               "unknown network %S (expected a classical name, random:SEED, pipid:SEED or \
                buddy:SEED)"
               spec))

let resident t key build =
  Mutex.lock t.networks_m;
  match Hashtbl.find_opt t.networks key with
  | Some g ->
      Mutex.unlock t.networks_m;
      Ok g
  | None -> (
      Mutex.unlock t.networks_m;
      (* Build outside the lock: parsing is pure and deterministic, so
         a racing duplicate build is harmless and the first insert
         wins. *)
      match build () with
      | Error _ as e -> e
      | Ok g ->
          Mutex.lock t.networks_m;
          let g =
            match Hashtbl.find_opt t.networks key with
            | Some g0 -> g0
            | None ->
                Hashtbl.add t.networks key g;
                g
          in
          Mutex.unlock t.networks_m;
          Ok g)

let network_of_spec t ~spec ~n =
  resident t (Printf.sprintf "%s@%d" spec n) (fun () -> parse_named spec ~n)

let network_of_inline t text =
  resident t ("inline:" ^ Digest.string text) (fun () ->
      match Spec_io.of_string text with
      | Ok g -> Ok g
      | Error e -> Error (Spec_io.error_to_string e))

let resolve t (r : Proto.request) =
  match (r.network, r.spec) with
  | Some spec, None -> network_of_spec t ~spec ~n:r.n
  | None, Some text -> network_of_inline t text
  | Some _, Some _ -> Error "give either \"network\" or \"spec\", not both"
  | None, None -> Error "request needs a \"network\" name or inline \"spec\" text"

(* Verdict computation ------------------------------------------------ *)

let verdict_of g : Proto.verdict =
  let v = Equivalence.by_characterization g in
  { equivalent = v.Equivalence.equivalent; banyan = v.Equivalence.banyan;
    detail = v.Equivalence.detail
  }

let cached_verdict t g = Memo.find_or_compute t.equiv g verdict_of

(* The report is encoded once, here: [Report.to_json]'s pretty text
   parsed and rendered compactly, the bytes a parsed tree in the
   response would render to.  Every hit then splices them. *)
let lint_of g : Proto.lint_cached =
  let module A = Mineq_analysis in
  let report = A.Lint.run g in
  let encoded =
    match Proto.json_of_string (A.Report.to_json report) with
    | Ok v -> Proto.Raw (Proto.json_to_string v)
    | Error _ -> Proto.Null (* unreachable: Report emits valid JSON *)
  in
  { report = encoded; errors = A.Lint.errors report; warnings = A.Lint.warnings report;
    infos = A.Lint.infos report
  }

let blocking_of g : Proto.blocking_cached =
  let module V = Mineq_route_verify in
  match Mineq_route.Bit_follow.of_network g with
  | None -> { delta = false; rows = [] }
  | Some router ->
      { delta = true;
        rows =
          List.map
            (fun ((tr : V.Certify.traffic), result) ->
              (tr.V.Certify.name, Format.asprintf "%a" V.Certify.pp_result result))
            (V.Certify.survey_classes router)
      }

(* Request evaluation ------------------------------------------------- *)

let bad_request ~id message =
  Proto.error_response ~id ~code:"MINEQ-S003" ~message

let with_network t r f =
  match resolve t r with
  | Error m -> bad_request ~id:r.Proto.id m
  | Ok g -> f g

let handle_equiv t (r : Proto.request) =
  with_network t r (fun g ->
      let respond name (v : Proto.verdict) =
        Proto.ok_response ~id:r.id
          [ ("op", Str "equiv");
            ("method", Str name);
            ("equivalent", Bool v.equivalent);
            ("banyan", Bool v.banyan);
            ("detail", Str v.detail)
          ]
      in
      match Option.value r.method_ ~default:"characterization" with
      | "characterization" -> respond "characterization" (cached_verdict t g)
      | ("independence" | "isomorphism") as name ->
          (* Computed fresh: only the default decider has a cache. *)
          let m =
            if String.equal name "independence" then Equivalence.Independence
            else Equivalence.Isomorphism
          in
          let v = Equivalence.decide m g in
          respond name
            { equivalent = v.Equivalence.equivalent; banyan = v.Equivalence.banyan;
              detail = v.Equivalence.detail
            }
      | other -> bad_request ~id:r.id (Printf.sprintf "unknown method %S" other))

let handle_banyan t (r : Proto.request) =
  with_network t r (fun g ->
      let v = cached_verdict t g in
      Proto.ok_response ~id:r.id [ ("op", Str "banyan"); ("banyan", Bool v.banyan) ])

let handle_lint t (r : Proto.request) =
  with_network t r (fun g ->
      let l = Memo.find_or_compute t.lint g lint_of in
      Proto.ok_response ~id:r.id
        [ ("op", Str "lint");
          ("errors", Int l.errors);
          ("warnings", Int l.warnings);
          ("infos", Int l.infos);
          ("exit_code", Int (if l.errors = 0 && l.warnings = 0 then 0 else 1));
          ("report", l.report)
        ])

let handle_blocking t (r : Proto.request) =
  with_network t r (fun g ->
      let b = Memo.find_or_compute t.blocking g blocking_of in
      Proto.ok_response ~id:r.id
        [ ("op", Str "blocking");
          ("delta", Bool b.delta);
          ( "classes",
            Arr
              (List.map
                 (fun (name, verdict) ->
                   Proto.Obj [ ("class", Proto.Str name); ("verdict", Proto.Str verdict) ])
                 b.rows) )
        ])

let cache_sizes t = (Memo.size t.equiv, Memo.size t.lint, Memo.size t.blocking)

let pooled_rate hits misses =
  let total = hits + misses in
  if total = 0 then nan else float_of_int hits /. float_of_int total

let hit_rate t =
  pooled_rate
    (Memo.hits t.equiv + Memo.hits t.lint + Memo.hits t.blocking)
    (Memo.misses t.equiv + Memo.misses t.lint + Memo.misses t.blocking)

let cache_json name memo : string * Proto.json =
  ( name,
    Proto.Obj
      [ ("keying", Proto.Str (Memo.keying_name (Memo.keying memo)));
        ("size", Proto.Int (Memo.size memo));
        ("hits", Proto.Int (Memo.hits memo));
        ("misses", Proto.Int (Memo.misses memo));
        ( "hit_rate",
          let r = Memo.hit_rate memo in
          if Float.is_nan r then Proto.Null else Proto.Float r )
      ] )

let handle_stats t (r : Proto.request) =
  Proto.ok_response ~id:r.id
    [ ("op", Str "stats");
      ("metrics", Metrics.to_json t.metrics);
      ( "caches",
        Obj
          [ cache_json "equiv" t.equiv;
            cache_json "lint" t.lint;
            cache_json "blocking" t.blocking
          ] );
      ( "hit_rate",
        let rate = hit_rate t in
        if Float.is_nan rate then Null else Float rate );
      ("resident_networks", Int (Hashtbl.length t.networks));
      ("snapshot", Str (snapshot_note t))
    ]

let dispatch_op t (r : Proto.request) =
  match r.op with
  | "ping" -> Proto.ok_response ~id:r.id [ ("op", Str "ping"); ("pong", Bool true) ]
  | "equiv" -> handle_equiv t r
  | "banyan" -> handle_banyan t r
  | "lint" -> handle_lint t r
  | "blocking" -> handle_blocking t r
  | "stats" -> handle_stats t r
  | "shutdown" ->
      Proto.ok_response ~id:r.id [ ("op", Str "shutdown"); ("stopping", Bool true) ]
  | other ->
      Proto.error_response ~id:r.id ~code:"MINEQ-S002"
        ~message:(Printf.sprintf "unknown op %S" other)

(* The exception barrier.  Kernels below validate with
   [Invalid_argument]/[Failure], and a pathological request can
   exhaust memory; any of those escaping here would cross the pool
   back onto the event loop and take the whole daemon down with it.
   One bad request costs one [MINEQ-S007] response, nothing more. *)
let handle t (r : Proto.request) =
  match dispatch_op t r with
  | response -> response
  | exception e ->
      let detail =
        match e with
        | Invalid_argument m | Failure m -> m
        | Out_of_memory -> "out of memory"
        | Stack_overflow -> "stack overflow"
        | e -> Printexc.to_string e
      in
      Proto.error_response ~id:r.id ~code:"MINEQ-S007"
        ~message:("internal error: " ^ detail)

(* Snapshots ---------------------------------------------------------- *)

let to_payload t : Snapshot.payload =
  { equiv = Memo.export t.equiv;
    lint = Memo.export t.lint;
    blocking = Memo.export t.blocking
  }

let adopt t (p : Snapshot.payload) =
  let adopted =
    Memo.import t.equiv p.equiv + Memo.import t.lint p.lint
    + Memo.import t.blocking p.blocking
  in
  set_note t (Printf.sprintf "loaded %d entries" adopted);
  adopted
