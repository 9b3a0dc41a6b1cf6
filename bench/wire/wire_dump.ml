(* wire_dump: serve responses, one per line, exactly as
   [Proto.json_to_string (Service.handle ...)] renders them.

     wire_dump serve WORKLOAD SEED MIX CLOSED OPEN
     wire_dump errors

   [serve] replays perfbench's generated inputs (Pb_work, with MIX and
   the phase sizes as perfbench/workloads.json gives them) on one
   service: for serve_hot the priming pass, then a snapshot round trip
   into a fresh service, as perfbench warm-boots its daemons; then the
   closed and open phases.  [errors] replays the error paths
   (MINEQ-S001, S002, S003, S007) and requests whose ids hold control
   characters, DEL and non-ASCII bytes.

   Each payload takes the daemon's steps: parse, [request_of_json],
   [Service.handle]; a payload the daemon rejects before the service
   is answered as its event loop answers it (MINEQ-S001).  No response
   holds a raw newline, so one line is one response. *)

module Proto = Mineq_serve.Proto
module Service = Mineq_serve.Service
module Snapshot = Mineq_serve.Snapshot
module W = Pb_work

(* The server's answer to a frame payload that never reaches the
   service, or the service's answer to the request it parses to. *)
let answer svc payload =
  match Proto.json_of_string payload with
  | Error m ->
      Proto.error_response ~id:Proto.Null ~code:"MINEQ-S001"
        ~message:("malformed frame payload: " ^ m)
  | Ok v -> (
      match Proto.request_of_json v with
      | Error m -> Proto.error_response ~id:(Proto.member "id" v) ~code:"MINEQ-S001" ~message:m
      | Ok req -> Service.handle svc req)

let emit json =
  print_string (Proto.json_to_string json);
  print_char '\n'

let replay svc reqs = Array.iter (fun r -> emit (answer svc (W.payload r))) reqs

let serve ~workload ~seed ~mix ~closed ~open_ =
  let mix = W.parse_mix mix in
  let svc =
    if String.equal workload "serve_hot" then begin
      let primer = Service.create () in
      replay primer (W.hot_priming ~seed);
      let path = Filename.temp_file "wire_dump" ".snap" in
      Snapshot.save ~path (Service.to_payload primer);
      let warm = Service.create () in
      (match Snapshot.load ~path with
      | Ok p -> ignore (Service.adopt warm p)
      | Error e -> failwith (Snapshot.error_to_string e));
      Sys.remove path;
      warm
    end
    else Service.create ()
  in
  replay svc (W.requests ~workload ~seed ~mix ~phase:`Closed ~first:0 ~count:closed);
  replay svc (W.requests ~workload ~seed ~mix ~phase:`Open ~first:closed ~count:open_)

(* Every byte the escaper treats specially, and some it must not. *)
let awkward = String.init 32 Char.chr ^ "\x7f \"quoted\" back\\slash \xc3\xa9 \xe2\x82\xac \xff"

let errors () =
  let svc = Service.create () in
  let id_str = Proto.json_to_string (Proto.Str awkward) in
  let payloads =
    [ (* MINEQ-S001: not JSON, or not a request. *)
      {|{"op": |};
      "[1,2,3]";
      {|"just a string"|};
      {|{"op":42}|};
      {|{"id":7}|};
      {|{"op":"equiv","network":"omega","n":"four"}|};
      {|{"op":"equiv","network":"omega","n":1,"id":|} ^ id_str ^ "}";
      {|{"op":"equiv","network":"omega","n":99,"id":{"k|} ^ "\\u0001" ^ {|":[null,-0.5]}}|};
      {|{"op":"ping","deadline_ms":"soon","id":|} ^ id_str ^ "}";
      {|{"op":"ping","id":"\q"}|};
      {|{"op":"ping","id":"\u12"}|};
      {|{"op":"ping","id":"\uzzzz"}|};
      {|{"op":"ping","id":"unterminated|};
      {|{"op":"ping","id":"\|};
      "{\"op\":\"ping\"\xc3\xa9}";
      "{\"op\":\"ping\"\x01}";
      "{\"op\":\"ping\"} trailing";
      (* MINEQ-S002: unknown op, the name echoed in the message. *)
      {|{"op":"frob\u0000nicate\t\r","id":[1,"\u001b"]}|};
      "{\"op\":\"caf\xc3\xa9\x7f\",\"id\":" ^ id_str ^ "}";
      (* MINEQ-S003: bad network, spec or method. *)
      {|{"op":"equiv","network":"omega\u0007","id":1}|};
      "{\"op\":\"lint\",\"network\":\"\xc3\xa9\",\"id\":2}";
      {|{"op":"equiv","network":"random:x","id":3}|};
      {|{"op":"equiv","network":"omega","spec":"x","id":4}|};
      {|{"op":"banyan","id":5}|};
      {|{"op":"lint","spec":"gap theta 9\u0000\n\u001f","id":6}|};
      {|{"op":"equiv","network":"omega","method":"or\u0008acle","id":|} ^ id_str ^ "}";
      (* Answered requests whose ids carry the awkward bytes, raw and
         escaped, on every op (lint's cached report included). *)
      {|{"op":"ping","id":|} ^ id_str ^ "}";
      "{\"op\":\"ping\",\"id\":\"raw \x01\x1f\x7f\xc3\xa9\"}";
      {|{"op":"equiv","network":"omega","id":|} ^ id_str ^ "}";
      {|{"op":"banyan","network":"flip","n":5,"id":{"\u0002":"é"}}|};
      {|{"op":"lint","network":"baseline","id":|} ^ id_str ^ "}";
      {|{"op":"lint","network":"random:7","id":|} ^ id_str ^ "}";
      {|{"op":"lint","network":"random:7","id":|} ^ id_str ^ "}";
      {|{"op":"blocking","network":"omega","id":|} ^ id_str ^ "}";
      {|{"op":"equiv","network":"buddy:2","method":"independence","id":-1.25e3}|};
      {|{"op":"shutdown","id":|} ^ id_str ^ "}"
    ]
  in
  List.iter (fun p -> emit (answer svc p)) payloads;
  (* MINEQ-S007: n = 1 only reaches the service when a request record
     bypasses the protocol's bound, as an admission bug would. *)
  let internal : Proto.request =
    { id = Proto.Str awkward; op = "banyan"; network = Some "omega"; spec = None; n = 1;
      method_ = None; deadline_ms = None
    }
  in
  emit (Service.handle svc internal)

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; workload; seed; mix; closed; open_ ] ->
      serve ~workload ~seed:(int_of_string seed) ~mix ~closed:(int_of_string closed)
        ~open_:(int_of_string open_)
  | [ _; "errors" ] -> errors ()
  | _ ->
      prerr_endline "usage: wire_dump serve WORKLOAD SEED MIX CLOSED OPEN | wire_dump errors";
      exit 2
