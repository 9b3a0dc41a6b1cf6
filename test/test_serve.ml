(* The mineq_serve layer: wire protocol round trips, snapshot
   durability (checksums, version gates, torn writes), service
   semantics against the underlying library verdicts, and the daemon
   end to end over a real Unix socket — including the overload and
   deadline error paths. *)

open Helpers
module Serve = Mineq_serve
module Proto = Serve.Proto
module Snapshot = Serve.Snapshot
module Service = Serve.Service
module Server = Serve.Server
module Memo = Mineq_engine.Memo

(* proto --------------------------------------------------------------- *)

let rec json_equal a b =
  match (a, b) with
  | Proto.Null, Proto.Null -> true
  | Proto.Bool x, Proto.Bool y -> x = y
  | Proto.Int x, Proto.Int y -> x = y
  | Proto.Float x, Proto.Float y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | Proto.Str x, Proto.Str y -> String.equal x y
  | Proto.Arr x, Proto.Arr y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Proto.Obj x, Proto.Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && json_equal v v') x y
  | _ -> false

let roundtrips v =
  match Proto.json_of_string (Proto.json_to_string v) with
  | Ok v' -> json_equal v v'
  | Error _ -> false

let test_json_roundtrip () =
  let v =
    Proto.Obj
      [ ("op", Proto.Str "equiv");
        ("id", Proto.Int 7);
        ("nested", Proto.Arr [ Proto.Null; Proto.Bool false; Proto.Float 2.5 ]);
        ("text", Proto.Str "line\nbreak \"quoted\" tab\t backslash \\ unicode \xc3\xa9");
        ("empty_obj", Proto.Obj []);
        ("empty_arr", Proto.Arr []);
        ("neg", Proto.Int (-42))
      ]
  in
  check_true "nested object round-trips" (roundtrips v)

let test_json_parse () =
  let ok s v =
    match Proto.json_of_string s with
    | Ok v' -> check_true (Printf.sprintf "parse %S" s) (json_equal v v')
    | Error m -> Alcotest.failf "parse %S: %s" s m
  in
  ok "null" Proto.Null;
  ok " [ 1 , -2.5e1 , true ] " (Proto.Arr [ Proto.Int 1; Proto.Float (-25.0); Proto.Bool true ]);
  ok {|"a\nbA\\"|} (Proto.Str "a\nbA\\");
  ok {|{"k": {"kk": []}}|} (Proto.Obj [ ("k", Proto.Obj [ ("kk", Proto.Arr []) ]) ]);
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "reject %S" s)
        (match Proto.json_of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "{"; "[1,"; "tru"; "{\"k\":}"; "\"unterminated"; "1 2"; "{'k':1}" ]

(* Bytes a key or string can hold: mostly printable, plus every byte
   the escaper rewrites (quote, backslash, all of 0x00-0x1f, so
   newline, tab, carriage return and the \uXXXX forms) and bytes it
   must copy as they are (DEL, non-ASCII). *)
let wire_char =
  QCheck.Gen.(
    frequency
      [ (6, printable);
        (2, oneofl [ '"'; '\\' ]);
        (2, map Char.chr (int_range 0x00 0x1f));
        (1, return '\x7f');
        (2, map Char.chr (int_range 0x80 0xff))
      ])

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Proto.Null;
        map (fun b -> Proto.Bool b) bool;
        map (fun i -> Proto.Int i) (int_range (-1000000) 1000000);
        map (fun f -> Proto.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Proto.Str s) (string_size ~gen:wire_char (int_bound 12))
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          (1, map (fun l -> Proto.Arr l) (list_size (int_bound 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs -> Proto.Obj kvs)
              (list_size (int_bound 4)
                 (pair (string_size ~gen:wire_char (int_bound 6)) (tree (depth - 1)))) )
        ]
  in
  QCheck.make ~print:Json_oracle.to_string (tree 3)

(* [t] spliced as [Raw] text between two ordinary fields. *)
let raw_splice_reparses t =
  let holding x = Proto.Obj [ ("before", Proto.Int 1); ("raw", x); ("after", Proto.Str "\n") ] in
  match Proto.json_of_string (Proto.json_to_string (holding (Proto.Raw (Proto.json_to_string t)))) with
  | Ok v -> json_equal v (holding t)
  | Error _ -> false

let proto_props =
  [ qcheck "printer and parser are inverse" ~count:200 json_gen roundtrips;
    qcheck "encoder equals the reference renderer byte for byte" ~count:300 json_gen (fun t ->
        String.equal (Proto.json_to_string t) (Json_oracle.to_string t));
    qcheck "a Raw splice re-parses to the tree it encodes" ~count:200 json_gen
      raw_splice_reparses
  ]

let test_escaper_bytes () =
  let every_byte = String.init 256 Char.chr in
  Alcotest.(check string)
    "every byte escapes as the reference does"
    (Json_oracle.json_string every_byte)
    (Mineq_analysis.Report.json_string every_byte);
  Alcotest.(check string)
    "carriage return stays \\u000d" {|"a\u000db"|}
    (Mineq_analysis.Report.json_string "a\rb")

let test_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.init 300 (fun i -> Char.chr (33 + (i mod 90))) in
  Proto.write_frame a payload;
  Proto.write_frame a "";
  (match Proto.read_frame b with
  | Ok got -> check_true "frame payload intact" (String.equal got payload)
  | Error _ -> Alcotest.fail "first frame did not arrive");
  (match Proto.read_frame b with
  | Ok got -> check_true "empty frame allowed" (String.equal got "")
  | Error _ -> Alcotest.fail "empty frame did not arrive");
  Proto.write_frame a (String.make 100 'x');
  (match Proto.read_frame ~max_frame:10 b with
  | Error (Proto.Oversized n) -> check_int "oversized reports declared length" 100 n
  | Ok _ | Error Proto.Closed -> Alcotest.fail "oversized frame was accepted");
  Unix.close a;
  (* [a]'s unread oversized bytes then EOF: whatever remains cannot
     form a full frame. *)
  Unix.close b

let test_request_codec () =
  let r : Proto.request =
    { id = Proto.Int 3; op = "equiv"; network = Some "omega"; spec = None; n = 5;
      method_ = Some "isomorphism"; deadline_ms = Some 120.0
    }
  in
  match Proto.request_of_json (Proto.request_to_json r) with
  | Ok r' ->
      check_true "request codec round-trips" (r = r')
  | Error m -> Alcotest.failf "request codec: %s" m

let test_request_n_bounds () =
  let req n =
    Proto.Obj
      [ ("op", Proto.Str "equiv"); ("network", Proto.Str "omega"); ("n", Proto.Int n) ]
  in
  let rejected n =
    match Proto.request_of_json (req n) with Error _ -> true | Ok _ -> false
  in
  check_true "n below 2 is rejected" (rejected 1);
  check_true "n above the limit is rejected" (rejected (Proto.n_limit + 1));
  check_true "n at the limit is accepted" (not (rejected Proto.n_limit));
  check_true "n = 2 is accepted" (not (rejected 2));
  (* Ops that ignore n still parse without one. *)
  match Proto.request_of_json (Proto.Obj [ ("op", Proto.Str "stats") ]) with
  | Ok r -> check_int "absent n defaults in range" 4 r.Proto.n
  | Error m -> Alcotest.failf "stats without n: %s" m

let proto_suite =
  [ quick "json round trip" test_json_roundtrip;
    quick "json parse cases" test_json_parse;
    quick "string escaper on every byte" test_escaper_bytes;
    quick "frame round trip and oversize" test_frames;
    quick "request codec" test_request_codec;
    quick "request n bounds" test_request_n_bounds
  ]
  @ proto_props

(* snapshot ------------------------------------------------------------ *)

let request ?(id = Proto.Null) ?network ?spec ?(n = 4) ?method_ ?deadline_ms op :
    Proto.request =
  { id; op; network; spec; n; method_; deadline_ms }

(* A service warmed with a few verdicts of every kind, so snapshots
   exercise all three caches. *)
let warmed_service () =
  let s = Service.create () in
  List.iter
    (fun (op, network) -> ignore (Service.handle s (request op ~network)))
    [ ("equiv", "omega"); ("equiv", "flip"); ("banyan", "baseline");
      ("lint", "random:5"); ("blocking", "omega")
    ];
  s

let temp_snapshot () = Filename.temp_file "mineq_test" ".snap"

let test_snapshot_roundtrip () =
  let s = warmed_service () in
  let payload = Service.to_payload s in
  check_true "warmed caches are non-empty" (Snapshot.entry_count payload > 0);
  let path = temp_snapshot () in
  Snapshot.save ~path payload;
  (match Snapshot.load ~path with
  | Ok p ->
      check_int "entry count preserved" (Snapshot.entry_count payload)
        (Snapshot.entry_count p);
      let fresh = Service.create () in
      check_int "fresh service adopts every entry" (Snapshot.entry_count payload)
        (Service.adopt fresh p);
      (* The hottest query must now be a pure cache hit. *)
      let resp = Service.handle fresh (request "equiv" ~network:"omega") in
      check_true "adopted verdict answers" (Proto.response_ok resp);
      check_true "equivalent field preserved"
        (json_equal (Proto.member "equivalent" resp) (Proto.Bool true))
  | Error e -> Alcotest.failf "load: %s" (Snapshot.error_to_string e));
  Sys.remove path

let mangle path f =
  let ic = open_in_bin path in
  let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let s = f s in
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

let test_snapshot_rejections () =
  let payload = Service.to_payload (warmed_service ()) in
  let path = temp_snapshot () in
  let expect name want =
    match (Snapshot.load ~path, want) with
    | Error got, expected when got = expected -> check_true name true
    | got, _ ->
        Alcotest.failf "%s: got %s" name
          (match got with
          | Ok _ -> "Ok"
          | Error e -> Snapshot.error_to_string e)
  in
  (* Corrupted payload byte: checksum must catch it. *)
  Snapshot.save ~path payload;
  mangle path (fun s ->
      let i = Bytes.length s - 1 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
      s);
  expect "flipped payload bit is Bad_checksum" Snapshot.Bad_checksum;
  (* Bumped version header: rejected before unmarshal. *)
  Snapshot.save ~path ~version:(Snapshot.version + 1) payload;
  expect "future version is Stale_version"
    (Snapshot.Stale_version (Snapshot.version + 1));
  (* Truncation below the declared payload length. *)
  Snapshot.save ~path payload;
  mangle path (fun s -> Bytes.sub s 0 (Bytes.length s - 7));
  expect "short file is Truncated" Snapshot.Truncated;
  (* Wrong magic: not a snapshot at all. *)
  Snapshot.save ~path payload;
  mangle path (fun s ->
      Bytes.set s 0 'X';
      s);
  expect "wrong magic is Bad_magic" Snapshot.Bad_magic;
  Sys.remove path;
  expect "no file is Missing" Snapshot.Missing

let test_snapshot_torn_write () =
  let s = warmed_service () in
  let first = Service.to_payload s in
  let path = temp_snapshot () in
  Snapshot.save ~path first;
  (* Grow the cache, then die mid-way through the next save: the
     completed snapshot must survive untouched. *)
  ignore (Service.handle s (request "equiv" ~network:"pipid:9"));
  let second = Service.to_payload s in
  check_true "second payload is larger"
    (Snapshot.entry_count second > Snapshot.entry_count first);
  (match Snapshot.save ~path ~crash_after:20 second with
  | () -> Alcotest.fail "crash_after did not raise"
  | exception Snapshot.Injected_crash -> ());
  (match Snapshot.load ~path with
  | Ok p ->
      check_int "previous snapshot intact after torn write"
        (Snapshot.entry_count first) (Snapshot.entry_count p)
  | Error e -> Alcotest.failf "load after torn write: %s" (Snapshot.error_to_string e));
  Sys.remove path;
  if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp")

let test_snapshot_permissions () =
  let payload = Service.to_payload (warmed_service ()) in
  let path = temp_snapshot () in
  Snapshot.save ~path payload;
  (* Marshal data is trusted once the checksum matches, so nobody
     else may write (or read) the file. *)
  check_int "snapshot file is private (0o600)" 0o600
    ((Unix.stat path).Unix.st_perm land 0o777);
  Sys.remove path

let snapshot_suite =
  [ quick "round trip through disk" test_snapshot_roundtrip;
    quick "typed rejection of bad files" test_snapshot_rejections;
    quick "torn write keeps the last snapshot" test_snapshot_torn_write;
    quick "saved file is private" test_snapshot_permissions
  ]

(* service ------------------------------------------------------------- *)

let code resp = Option.value (Proto.error_code resp) ~default:"-"

let test_service_verdicts () =
  let s = Service.create () in
  let omega = Mineq.Classical.network Mineq.Classical.Omega ~n:4 in
  let direct = Mineq.Equivalence.by_characterization omega in
  let resp = Service.handle s (request "equiv" ~network:"omega" ~id:(Proto.Int 9)) in
  check_true "equiv ok" (Proto.response_ok resp);
  check_true "id echoed" (json_equal (Proto.member "id" resp) (Proto.Int 9));
  check_true "equivalent matches the library"
    (json_equal (Proto.member "equivalent" resp)
       (Proto.Bool direct.Mineq.Equivalence.equivalent));
  check_true "banyan matches the library"
    (json_equal (Proto.member "banyan" resp) (Proto.Bool direct.Mineq.Equivalence.banyan));
  let resp = Service.handle s (request "banyan" ~network:"omega") in
  check_true "banyan op agrees"
    (json_equal (Proto.member "banyan" resp) (Proto.Bool direct.Mineq.Equivalence.banyan));
  let report = Mineq_analysis.Lint.run omega in
  let resp = Service.handle s (request "lint" ~network:"omega") in
  check_true "lint errors match"
    (json_equal (Proto.member "errors" resp)
       (Proto.Int (Mineq_analysis.Lint.errors report)));
  check_true "lint warnings match"
    (json_equal (Proto.member "warnings" resp)
       (Proto.Int (Mineq_analysis.Lint.warnings report)));
  let resp = Service.handle s (request "blocking" ~network:"omega") in
  check_true "omega has a destination-tag router"
    (json_equal (Proto.member "delta" resp) (Proto.Bool true));
  check_true "blocking lists traffic classes"
    (match Proto.member "classes" resp with Proto.Arr (_ :: _) -> true | _ -> false)

(* The verdict fields of an [equiv] response against a library
   verdict, [detail] included. *)
let matches_verdict resp (v : Mineq.Equivalence.verdict) =
  Proto.response_ok resp
  && json_equal (Proto.member "equivalent" resp) (Proto.Bool v.Mineq.Equivalence.equivalent)
  && json_equal (Proto.member "banyan" resp) (Proto.Bool v.Mineq.Equivalence.banyan)
  && json_equal (Proto.member "detail" resp) (Proto.Str v.Mineq.Equivalence.detail)

let test_service_warm_hits () =
  let s = Service.create () in
  ignore (Service.handle s (request "equiv" ~network:"omega"));
  ignore (Service.handle s (request "equiv" ~network:"omega"));
  (* Exact keys: flip is isomorphic to omega but a different labelled
     digraph, so it misses and stores an entry with its own verdict. *)
  let resp = Service.handle s (request "equiv" ~network:"flip") in
  check_true "flip is answered with its own verdict"
    (matches_verdict resp
       (Mineq.Equivalence.by_characterization (Mineq.Classical.network Mineq.Classical.Flip ~n:4)));
  let equiv = Proto.member "equiv" (Proto.member "caches" (Service.handle s (request "stats"))) in
  check_true "the repeated omega query hits"
    (json_equal (Proto.member "hits" equiv) (Proto.Int 1));
  check_true "omega and flip each miss once"
    (json_equal (Proto.member "misses" equiv) (Proto.Int 2));
  check_true "flip stores its own entry"
    (json_equal (Proto.member "size" equiv) (Proto.Int 2));
  check_true "keying is advertised"
    (json_equal (Proto.member "keying" equiv) (Proto.Str "structural"))

let test_service_collision_pair () =
  (* buddy:543963097 at n = 4 is not Banyan, yet its WL fingerprint
     equals that of the Banyan buddy:202: under a fingerprint-keyed
     memo the second query was answered from the first one's entry. *)
  let s = Service.create () in
  let banyan network =
    Proto.member "banyan" (Service.handle s (request "banyan" ~network ~n:4))
  in
  check_true "buddy:202 is Banyan" (json_equal (banyan "buddy:202") (Proto.Bool true));
  check_true "buddy:543963097 is not Banyan"
    (json_equal (banyan "buddy:543963097") (Proto.Bool false))

let test_service_port_swap () =
  (* Omega with one cell's output ports exchanged is the same digraph
     but no longer a destination-tag network.  A key that ignores the
     port assignment answered it from Omega's blocking entry. *)
  let s = Service.create () in
  let omega = Mineq.Classical.network Mineq.Classical.Omega ~n:4 in
  let swapped = swap_ports omega ~gap:2 ~cell:0 in
  let spec = Mineq.Spec_io.to_string swapped in
  let parsed =
    match Mineq.Spec_io.of_string spec with
    | Ok g -> g
    | Error e -> Alcotest.fail (Mineq.Spec_io.error_to_string e)
  in
  let delta resp = Proto.member "delta" resp in
  check_true "omega has a destination-tag router"
    (json_equal (delta (Service.handle s (request "blocking" ~network:"omega"))) (Proto.Bool true));
  check_true "the port-swapped copy does not"
    (json_equal (delta (Service.handle s (request "blocking" ~spec))) (Proto.Bool false));
  ignore (Service.handle s (request "lint" ~network:"omega"));
  (* The cached report is encoded text ([Proto.Raw]), so the two sides
     are compared as the bytes they put on the wire. *)
  Alcotest.(check string)
    "the copy's lint report is its own"
    (match Proto.json_of_string (Mineq_analysis.Report.to_json (Mineq_analysis.Lint.run parsed)) with
    | Ok v -> Proto.json_to_string v
    | Error m -> Alcotest.fail m)
    (Proto.json_to_string (Proto.member "report" (Service.handle s (request "lint" ~spec))))

(* A non-Banyan network and a relabelled copy whose [detail] strings
   differ: the violation names stage labels. *)
let relabelled_non_banyan_pair () =
  let rec search seed =
    if seed > 200 then Alcotest.fail "no relabelling changed the detail in 200 seeds"
    else begin
      let rng = rng_of seed in
      let g = Mineq.Link_spec.random_network rng ~n:4 in
      let g' = Mineq.Counterexample.relabelled_equivalent rng g in
      let v = Mineq.Equivalence.by_characterization g
      and v' = Mineq.Equivalence.by_characterization g' in
      if (not v.Mineq.Equivalence.banyan) && v.Mineq.Equivalence.detail <> v'.Mineq.Equivalence.detail
      then (g, g')
      else search (seed + 1)
    end
  in
  search 0

let test_service_relabelled_detail () =
  let g, g' = relabelled_non_banyan_pair () in
  let s = Service.create () in
  let ask g = Service.handle s (request "equiv" ~spec:(Mineq.Spec_io.to_string g)) in
  check_true "the original gets its own detail"
    (matches_verdict (ask g) (Mineq.Equivalence.by_characterization g));
  check_true "the relabelled copy gets its own detail, not the original's"
    (matches_verdict (ask g') (Mineq.Equivalence.by_characterization g'))

let test_service_no_fingerprint () =
  (* Characterization, banyan, lint and blocking requests, and an
     isomorphism request on a non-Banyan network, leave the resident
     record's fingerprint slot empty. *)
  let s = Service.create () in
  let ask ?method_ op network = ignore (Service.handle s (request op ~network ?method_)) in
  let unfingerprinted network =
    match Service.network_of_spec s ~spec:network ~n:4 with
    | Ok g -> Option.is_none (Mineq.Mi_digraph.fingerprint_cache g)
    | Error m -> Alcotest.failf "%s: %s" network m
  in
  List.iter
    (fun network ->
      ask "equiv" network;
      ask "equiv" network ~method_:"characterization";
      ask "banyan" network;
      ask "lint" network;
      ask "blocking" network;
      check_true (network ^ " is never fingerprinted") (unfingerprinted network))
    [ "omega"; "buddy:543963097" ];
  ask "equiv" "buddy:543963097" ~method_:"isomorphism";
  check_true "nor by an isomorphism request, being non-Banyan"
    (unfingerprinted "buddy:543963097")

(* A seeded request mix: named networks (classical, random, PIPID,
   buddy) and inline spec text, then an inline relabelled copy of each,
   in every equiv method and the banyan op.  The whole mix is asked
   twice, so hits are checked as well as misses. *)
let service_props =
  [ qcheck "equiv/banyan answers equal the direct library call" ~count:25 seed_gen
      (fun seed ->
        let rng = rng_of seed in
        let s = Service.create () in
        (* The daemon parses the text, and a theta gap line parses to
           Pipid_net's port assignment, which need not be [g]'s: the
           library is asked about the parsed network, as the daemon
           is. *)
        let inline g =
          let spec = Mineq.Spec_io.to_string g in
          match Mineq.Spec_io.of_string spec with
          | Ok parsed -> (parsed, fun ?method_ op -> request ~spec ?method_ op)
          | Error e -> Alcotest.fail (Mineq.Spec_io.error_to_string e)
        in
        (* n <= 4 keeps every isomorphism-method request fast. *)
        let original () =
          let n = 3 + Random.State.int rng 2 in
          let named name =
            match Service.network_of_spec s ~spec:name ~n with
            | Ok g -> (g, fun ?method_ op -> request ~network:name ~n ?method_ op)
            | Error m -> Alcotest.failf "%s: %s" name m
          in
          let seeded family = Printf.sprintf "%s:%d" family (Random.State.int rng 1000) in
          match Random.State.int rng 6 with
          | 0 -> named "omega"
          | 1 -> named "baseline"
          | 2 -> named (seeded "random")
          | 3 -> named (seeded "pipid")
          | 4 -> named (seeded "buddy")
          | _ -> inline (Mineq.Link_spec.random_network rng ~n)
        in
        let originals = List.init 5 (fun _ -> original ()) in
        let copies =
          List.map
            (fun (g, _) -> inline (Mineq.Counterexample.relabelled_equivalent rng g))
            originals
        in
        let agrees ((g, req) : Mineq.Mi_digraph.t * (?method_:string -> string -> Proto.request))
            =
          List.for_all
            (fun m ->
              matches_verdict
                (Service.handle s (req ~method_:(Mineq.Equivalence.method_name m) "equiv"))
                (Mineq.Equivalence.decide m g))
            Mineq.Equivalence.all_methods
          && json_equal
               (Proto.member "banyan" (Service.handle s (req "banyan")))
               (Proto.Bool (Mineq.Banyan.is_banyan g))
        in
        let mix = originals @ copies in
        List.for_all agrees (mix @ mix))
  ]

let test_service_errors () =
  let s = Service.create () in
  check_true "unknown op is MINEQ-S002"
    (String.equal (code (Service.handle s (request "frobnicate"))) "MINEQ-S002");
  check_true "unknown network is MINEQ-S003"
    (String.equal (code (Service.handle s (request "equiv" ~network:"nonesuch"))) "MINEQ-S003");
  check_true "seedless random is MINEQ-S003"
    (String.equal (code (Service.handle s (request "equiv" ~network:"random:x"))) "MINEQ-S003");
  check_true "missing network is MINEQ-S003"
    (String.equal (code (Service.handle s (request "equiv"))) "MINEQ-S003");
  check_true "bad inline spec is MINEQ-S003"
    (String.equal (code (Service.handle s (request "equiv" ~spec:"not a spec"))) "MINEQ-S003");
  check_true "unknown method is MINEQ-S003"
    (String.equal
       (code (Service.handle s (request "equiv" ~network:"omega" ~method_:"oracle")))
       "MINEQ-S003")

let test_service_inline_spec () =
  let s = Service.create () in
  let text = Mineq.Spec_io.to_string (Mineq.Classical.network Mineq.Classical.Omega ~n:3) in
  let resp = Service.handle s (request "equiv" ~spec:text) in
  check_true "inline spec evaluates" (Proto.response_ok resp);
  check_true "inline omega is equivalent"
    (json_equal (Proto.member "equivalent" resp) (Proto.Bool true))

let test_service_internal_error () =
  let s = Service.create () in
  (* n = 1 bypasses the protocol bound (the record is built directly,
     as a future admission bug might): the classical constructors
     raise Invalid_argument, and the barrier must turn that into a
     response instead of letting it cross the pool. *)
  let resp = Service.handle s (request "banyan" ~network:"omega" ~n:1) in
  check_true "kernel exception becomes MINEQ-S007" (code resp = "MINEQ-S007");
  check_true "internal error is not ok" (not (Proto.response_ok resp));
  let resp = Service.handle s (request "banyan" ~network:"omega") in
  check_true "service keeps answering afterwards" (Proto.response_ok resp)

let service_suite =
  [ quick "verdicts match the library" test_service_verdicts;
    quick "warm hits on exact keys" test_service_warm_hits;
    quick "fingerprint-colliding pair answered apart" test_service_collision_pair;
    quick "relabelled copy gets its own detail" test_service_relabelled_detail;
    quick "port-swapped copy gets its own blocking and lint" test_service_port_swap;
    quick "no fingerprint on the request path" test_service_no_fingerprint;
    quick "typed request errors" test_service_errors;
    quick "inline spec text" test_service_inline_spec;
    quick "exception barrier" test_service_internal_error
  ]
  @ service_props

(* server -------------------------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "mineq_test" ".sock" in
  Sys.remove path;
  path

let with_server ?(configure = fun c -> c) f =
  let path = temp_socket () in
  let config =
    configure
      { (Server.default_config ~socket_path:path) with jobs = 1; handle_signals = false }
  in
  let service = Service.create () in
  let thread = Thread.create (fun () -> Server.run config service) () in
  let result =
    match Server.connect ~retries:100 ~path () with
    | Error m -> Alcotest.failf "connect: %s" m
    | Ok fd -> Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f path fd)
  in
  (* A shutdown frame on a fresh connection stops the loop even if the
     test's own connection died mid-scenario. *)
  (match Server.connect ~retries:10 ~path () with
  | Ok fd ->
      ignore (Server.call fd (Proto.Obj [ ("op", Proto.Str "shutdown") ]));
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | Error _ -> ());
  Thread.join thread;
  result

let call_exn fd v =
  match Server.call fd v with Ok resp -> resp | Error m -> Alcotest.failf "call: %s" m

let req_json ?deadline_ms op network =
  Proto.request_to_json (request op ~network ?deadline_ms)

let test_server_session () =
  with_server (fun _path fd ->
      let pong = call_exn fd (Proto.Obj [ ("op", Proto.Str "ping") ]) in
      check_true "ping pongs" (json_equal (Proto.member "pong" pong) (Proto.Bool true));
      let v1 = call_exn fd (req_json "equiv" "omega") in
      check_true "equiv over the wire" (Proto.response_ok v1);
      let v2 = call_exn fd (req_json "equiv" "omega") in
      check_true "verdicts agree" (json_equal v1 v2);
      let stats = call_exn fd (Proto.Obj [ ("op", Proto.Str "stats") ]) in
      let equiv = Proto.member "equiv" (Proto.member "caches" stats) in
      check_true "second query was a warm hit"
        (json_equal (Proto.member "hits" equiv) (Proto.Int 1));
      (* Pipelining: several frames before any read, answered in order. *)
      Proto.write_frame fd (Proto.json_to_string (req_json "banyan" "flip"));
      Proto.write_frame fd (Proto.json_to_string (req_json "lint" "baseline"));
      (match (Proto.read_frame fd, Proto.read_frame fd) with
      | Ok a, Ok b ->
          let op v =
            match Proto.json_of_string v with
            | Ok j -> Proto.to_string_opt (Proto.member "op" j)
            | Error _ -> None
          in
          check_true "pipelined responses in order"
            (op a = Some "banyan" && op b = Some "lint")
      | _ -> Alcotest.fail "pipelined frames lost"))

(* Frames sent back to back in one write are answered in request
   order, each with exactly the bytes the service's encoder gives it,
   also when a write ends partway through a frame's length header. *)
let test_server_pipelined_batch () =
  let mix =
    [| ("equiv", Some "omega"); ("banyan", Some "flip"); ("lint", Some "baseline");
       ("ping", None); ("blocking", Some "omega"); ("lint", Some "random:5");
       ("equiv", Some "pipid:3")
    |]
  in
  let requests =
    Array.init 64 (fun i ->
        let op, network = mix.(i mod Array.length mix) in
        { (request op ~id:(Proto.Int i)) with network })
  in
  let local = Service.create () in
  let expected = Array.map (fun r -> Proto.json_to_string (Service.handle local r)) requests in
  let frame r = Proto.frame (Proto.json_to_string (Proto.request_to_json r)) in
  let wire = String.concat "" (Array.to_list (Array.map frame requests)) in
  with_server (fun _path fd ->
      let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
      let read_all round =
        Array.iteri
          (fun i want ->
            match Proto.read_frame fd with
            | Ok got -> Alcotest.(check string) (Printf.sprintf "%s: response %d" round i) want got
            | Error _ -> Alcotest.failf "%s: response %d lost" round i)
          expected
      in
      send wire;
      read_all "one write";
      (* Two bytes into the third frame's header: the first read ends
         on an incomplete frame, whose tail must be kept. *)
      let cut = String.length (frame requests.(0)) + String.length (frame requests.(1)) + 2 in
      send (String.sub wire 0 cut);
      Unix.sleepf 0.05;
      send (String.sub wire cut (String.length wire - cut));
      read_all "split write")

let test_server_malformed () =
  with_server (fun _path fd ->
      Proto.write_frame fd "{\"op\": ";
      (match Proto.read_frame fd with
      | Ok resp -> (
          match Proto.json_of_string resp with
          | Ok v -> check_true "malformed JSON is MINEQ-S001" (code v = "MINEQ-S001")
          | Error m -> Alcotest.failf "unparseable error response: %s" m)
      | Error _ -> Alcotest.fail "no response to the malformed frame");
      (* A syntactically valid frame that is not a request object. *)
      Proto.write_frame fd "[1,2,3]";
      match Proto.read_frame fd with
      | Ok resp -> (
          match Proto.json_of_string resp with
          | Ok v -> check_true "non-object request is MINEQ-S001" (code v = "MINEQ-S001")
          | Error m -> Alcotest.failf "unparseable error response: %s" m)
      | Error _ -> Alcotest.fail "no response to the non-object frame")

let test_server_oversized () =
  with_server
    ~configure:(fun c -> { c with max_frame = 64 })
    (fun _path fd ->
      Proto.write_frame fd (String.make 200 ' ');
      (match Proto.read_frame fd with
      | Ok resp -> (
          match Proto.json_of_string resp with
          | Ok v -> check_true "oversized frame is MINEQ-S006" (code v = "MINEQ-S006")
          | Error m -> Alcotest.failf "unparseable error response: %s" m)
      | Error _ -> Alcotest.fail "no response to the oversized frame");
      (* The stream is unframeable, so the server hangs up after the
         error. *)
      match Proto.read_frame fd with
      | Error Proto.Closed -> check_true "connection closed after S006" true
      | Ok _ | Error (Proto.Oversized _) -> Alcotest.fail "connection survived S006")

let test_server_deadline () =
  with_server (fun _path fd ->
      let resp = call_exn fd (req_json ~deadline_ms:0.0 "equiv" "omega") in
      check_true "zero deadline is MINEQ-S004" (code resp = "MINEQ-S004"))

let test_server_shed () =
  with_server
    ~configure:(fun c -> { c with queue_cap = 0 })
    (fun _path fd ->
      let resp = call_exn fd (req_json "equiv" "omega") in
      check_true "full queue sheds with MINEQ-S005" (code resp = "MINEQ-S005");
      (* Shutdown bypasses the queue, so the daemon stays stoppable
         even while shedding everything — with_server's final shutdown
         below exercises exactly that. *)
      let resp = call_exn fd (Proto.Obj [ ("op", Proto.Str "ping") ]) in
      check_true "ping is shed too" (code resp = "MINEQ-S005"))

let test_server_snapshot_restart () =
  let snap = Filename.temp_file "mineq_test" ".snap" in
  Sys.remove snap;
  let configure (c : Server.config) =
    { c with snapshot_path = Some snap; snapshot_every_s = 3600.0 }
  in
  (* First life: answer queries, then shut down (which saves). *)
  with_server ~configure (fun _path fd ->
      ignore (call_exn fd (req_json "equiv" "omega"));
      ignore (call_exn fd (req_json "lint" "baseline")));
  check_true "shutdown wrote a snapshot" (Sys.file_exists snap);
  (* Second life: boots warm and answers the same query from cache. *)
  with_server ~configure (fun _path fd ->
      let stats = call_exn fd (Proto.Obj [ ("op", Proto.Str "stats") ]) in
      check_true "snapshot note reports the load"
        (match Proto.to_string_opt (Proto.member "snapshot" stats) with
        | Some note ->
            String.length note >= 6 && String.equal (String.sub note 0 6) "loaded"
        | None -> false);
      ignore (call_exn fd (req_json "equiv" "omega"));
      let stats = call_exn fd (Proto.Obj [ ("op", Proto.Str "stats") ]) in
      let equiv = Proto.member "equiv" (Proto.member "caches" stats) in
      check_true "first query after restart is a warm hit"
        (json_equal (Proto.member "hits" equiv) (Proto.Int 1)));
  Sys.remove snap

let test_server_stale_snapshot () =
  (* Version 1 predates the structural equiv keys and the network
     record's hash slot; version 2 lint entries hold parsed trees where
     version 3 holds [Proto.Raw] text.  Either file must be refused
     unread (unmarshalling it would be memory-unsafe or misread), and
     the daemon must boot cold, saying why. *)
  List.iter
    (fun stale ->
      let snap = Filename.temp_file "mineq_test" ".snap" in
      Snapshot.save ~path:snap ~version:stale (Service.to_payload (warmed_service ()));
      check_true
        (Printf.sprintf "a version-%d file is Stale_version %d" stale stale)
        (match Snapshot.load ~path:snap with
        | Error (Snapshot.Stale_version v) -> v = stale
        | Ok _ | Error _ -> false);
      let configure (c : Server.config) =
        { c with snapshot_path = Some snap; snapshot_every_s = 3600.0 }
      in
      with_server ~configure (fun _path fd ->
          let stats = call_exn fd (Proto.Obj [ ("op", Proto.Str "stats") ]) in
          check_true "the boot note names the stale version"
            (Proto.to_string_opt (Proto.member "snapshot" stats)
            = Some ("load failed: " ^ Snapshot.error_to_string (Snapshot.Stale_version stale)));
          let equiv = Proto.member "equiv" (Proto.member "caches" stats) in
          check_true "the equiv cache boots empty"
            (json_equal (Proto.member "size" equiv) (Proto.Int 0)));
      if Sys.file_exists snap then Sys.remove snap)
    [ 1; 2 ]

let test_server_bad_n () =
  with_server (fun _path fd ->
      (* Before the n bound and the service's exception barrier, this
         request crashed the daemon outright (Classical.thetas
         requires n >= 2). *)
      Proto.write_frame fd {|{"op":"banyan","network":"omega","n":1}|};
      (match Proto.read_frame fd with
      | Ok resp -> (
          match Proto.json_of_string resp with
          | Ok v -> check_true "out-of-range n is MINEQ-S001" (code v = "MINEQ-S001")
          | Error m -> Alcotest.failf "unparseable error response: %s" m)
      | Error _ -> Alcotest.fail "no response to the bad-n request");
      let pong = call_exn fd (Proto.Obj [ ("op", Proto.Str "ping") ]) in
      check_true "daemon survives the bad-n request"
        (json_equal (Proto.member "pong" pong) (Proto.Bool true)))

let test_server_slow_reader () =
  with_server
    ~configure:(fun c -> { c with max_out_buf = 4096; queue_cap = 8 })
    (fun path fd ->
      (* [fd] floods requests without ever reading a response.  Once
         the kernel buffer back to it fills, responses park in the
         per-connection buffer until the 4 KiB cap sheds the
         connection — the event loop must never block in a write. *)
      let ping = Proto.json_to_string (Proto.Obj [ ("op", Proto.Str "ping") ]) in
      (try
         for _ = 1 to 20_000 do
           Proto.write_frame fd ping
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      (* A well-behaved client on a fresh connection is still served. *)
      match Server.connect ~retries:10 ~path () with
      | Error m -> Alcotest.failf "connect during the flood: %s" m
      | Ok fd2 ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
            (fun () ->
              let pong = call_exn fd2 (Proto.Obj [ ("op", Proto.Str "ping") ]) in
              check_true "daemon serves other clients past a slow reader"
                (json_equal (Proto.member "pong" pong) (Proto.Bool true))))

let test_server_early_answer_shed () =
  (* Empty frames are malformed payloads, answered (MINEQ-S001) as
     they are read, before any batch runs.  One write of many of them
     from a peer that never reads must not pile their answers up in
     the server: once a response leaves [out] past [max_out_buf] even
     after a flush, the connection closes.  What the server discarded
     at the close is every byte it answered minus every byte the peer
     can still read, and that must stay within the bound plus one
     response. *)
  let max_out_buf = 4096 in
  let answer =
    match Proto.json_of_string "" with
    | Ok _ -> Alcotest.fail "the empty payload parsed"
    | Error m ->
        Proto.frame
          (Proto.json_to_string
             (Proto.error_response ~id:Proto.Null ~code:"MINEQ-S001"
                ~message:("malformed frame payload: " ^ m)))
  in
  let answer_len = String.length answer in
  with_server
    ~configure:(fun c -> { c with max_out_buf })
    (fun path fd ->
      (* Enough answers to overfill the kernel's socket buffer four
         times over, so the shed must happen. *)
      let sndbuf = Unix.getsockopt_int fd Unix.SO_SNDBUF in
      let frames = max 16_384 ((4 * sndbuf / answer_len) + 1) in
      let flood = String.make (4 * frames) '\000' in
      (try
         let rec write_from off =
           if off < String.length flood then
             write_from (off + Unix.write_substring fd flood off (String.length flood - off))
         in
         write_from 0
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let answered =
        match Server.connect ~retries:10 ~path () with
        | Error m -> Alcotest.failf "connect during the flood: %s" m
        | Ok fd2 ->
            Fun.protect
              ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
              (fun () ->
                let errors () =
                  let stats = call_exn fd2 (Proto.Obj [ ("op", Proto.Str "stats") ]) in
                  match Proto.member "errors" (Proto.member "metrics" stats) with
                  | Proto.Int e -> e
                  | _ -> Alcotest.fail "stats lacks metrics.errors"
                in
                (* Two equal readings a loop tick apart: the daemon has
                   read everything the flood left it. *)
                let rec settle prev tries =
                  let e = errors () in
                  if (e > 0 && e = prev) || tries = 0 then e
                  else begin
                    Unix.sleepf 0.02;
                    settle e (tries - 1)
                  end
                in
                settle (-1) 250)
      in
      check_true "the flood was cut short" (answered > 0 && answered < frames);
      let chunk = Bytes.create 65536 in
      let rec drain received =
        match Unix.select [ fd ] [] [] 2.0 with
        | [], _, _ -> Alcotest.fail "the flooding connection was never closed"
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> received
            | n -> drain (received + n)
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> received)
      in
      let received = drain 0 in
      let discarded = (answered * answer_len) - received in
      if discarded > max_out_buf + answer_len then
        Alcotest.failf
          "%d answers (%d bytes) and %d bytes readable: %d bytes held past the %d-byte bound"
          answered (answered * answer_len) received discarded max_out_buf)

let test_server_conn_cap () =
  with_server
    ~configure:(fun c -> { c with max_conns = 2 })
    (fun path _fd ->
      (* The harness connection occupies slot 1. *)
      let fd2 =
        match Server.connect ~retries:10 ~path () with
        | Ok fd -> fd
        | Error m -> Alcotest.failf "second connect: %s" m
      in
      let fd3 =
        match Server.connect ~path () with
        | Ok fd -> fd
        | Error m -> Alcotest.failf "third connect: %s" m
      in
      (* The daemon runs in this process, so it may accept fd3's
         connection into fd2's number once fd2 is closed: closing fd2
         a second time would close that socket under the daemon's
         select (EBADF), killing the loop and hanging the suite. *)
      let fd2_open = ref true in
      Fun.protect
        ~finally:(fun () ->
          if !fd2_open then (try Unix.close fd2 with Unix.Unix_error _ -> ());
          try Unix.close fd3 with Unix.Unix_error _ -> ())
        (fun () ->
          (* At the cap the daemon stops accepting: the third client's
             request waits in the kernel backlog, unanswered. *)
          Proto.write_frame fd3 (Proto.json_to_string (Proto.Obj [ ("op", Proto.Str "ping") ]));
          (match Unix.select [ fd3 ] [] [] 0.5 with
          | [], _, _ -> check_true "no response while at the connection cap" true
          | _ -> Alcotest.fail "served past max_conns");
          (* Freeing a slot lets the backlogged client in. *)
          Unix.close fd2;
          fd2_open := false;
          match Proto.read_frame fd3 with
          | Ok resp -> (
              match Proto.json_of_string resp with
              | Ok v ->
                  check_true "backlogged client served once a slot frees"
                    (json_equal (Proto.member "pong" v) (Proto.Bool true))
              | Error m -> Alcotest.failf "bad response after the cap lifted: %s" m)
          | Error _ -> Alcotest.fail "backlogged client never served"))

let server_suite =
  [ quick "scripted session" test_server_session;
    quick "64 pipelined requests in one write" test_server_pipelined_batch;
    quick "malformed frames" test_server_malformed;
    quick "oversized frame closes" test_server_oversized;
    quick "expired deadline" test_server_deadline;
    quick "overload sheds" test_server_shed;
    quick "out-of-range n is typed, not fatal" test_server_bad_n;
    quick "slow reader cannot stall the loop" test_server_slow_reader;
    quick "early answers to a non-reading peer shed at the bound"
      test_server_early_answer_shed;
    quick "connection cap pauses accepts" test_server_conn_cap;
    quick "snapshot warms a restart" test_server_snapshot_restart;
    quick "version-1 snapshot boots cold" test_server_stale_snapshot
  ]
