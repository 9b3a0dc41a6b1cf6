module Pool = Mineq_engine.Pool

type config = {
  socket_path : string;
  jobs : int;
  queue_cap : int;
  batch_max : int;
  deadline_ms : float;
  max_frame : int;
  max_conns : int;
  max_out_buf : int;
  snapshot_path : string option;
  snapshot_every_s : float;
  handle_signals : bool;
}

let default_config ~socket_path =
  { socket_path;
    jobs = Pool.default_jobs ();
    queue_cap = 256;
    batch_max = 64;
    deadline_ms = 2000.0;
    max_frame = Proto.max_frame_default;
    max_conns = 512;
    max_out_buf = 4 lsl 20;
    snapshot_path = None;
    snapshot_every_s = 5.0;
    handle_signals = true
  }

(* Connections -------------------------------------------------------

   Each connection owns a reassembly buffer: reads append raw bytes,
   and every complete frame (4-byte length known and satisfied) is
   handed over by offset, after which the unconsumed tail is kept
   once per read.

   The outbound side mirrors it: responses are framed straight into
   [out], and each connection a batch answered is flushed once after
   that batch, so pipelined answers leave in one write.  Client
   sockets are non-blocking, and whatever the kernel will not take
   immediately stays in [out] and drains through select's write set.
   A peer that stops reading therefore stalls only its own buffer —
   never the event loop — and is closed as soon as a response takes
   [out] past [max_out_buf] and a flush cannot bring it back under. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* inbound frame reassembly *)
  out : Buffer.t;  (* outbound bytes the kernel has not yet accepted *)
  mutable alive : bool;
  mutable touched : bool;  (* answered since the last flush pass *)
}

type pending = { conn : conn; req : Proto.request; arrival : float }

type evaluated = { p : pending; response : string; expired : bool }

let close_conn conns c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Drop the first [k] bytes of [buf], keeping the rest. *)
let drop_front buf k =
  let len = Buffer.length buf in
  if k = len then Buffer.clear buf
  else if k > 0 then begin
    let rest = Buffer.sub buf k (len - k) in
    Buffer.clear buf;
    Buffer.add_string buf rest
  end

(* Push as much of [c.out] as the socket will take without blocking. *)
let flush_out conns c =
  if c.alive && Buffer.length c.out > 0 then begin
    let s = Buffer.contents c.out in
    let len = String.length s in
    let off = ref 0 in
    let blocked = ref false in
    (try
       while (not !blocked) && !off < len do
         match Unix.write_substring c.fd s !off (len - !off) with
         | 0 -> blocked := true
         | written -> off := !off + written
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
             blocked := true
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done
     with Unix.Unix_error _ -> close_conn conns c);
    if c.alive then begin
      Buffer.clear c.out;
      if !off < len then Buffer.add_substring c.out s !off (len - !off)
    end
  end

(* Hand each complete frame at the front of [c.buf] to [f], reading
   the lengths in place, until [c] closes; then keep the unconsumed
   tail.  [Error len] when a declared length exceeds [max_frame]; the
   frames before it have been handed over. *)
let peel_frames ~max_frame c f =
  let buf = c.buf in
  let have = Buffer.length buf in
  let byte i = Char.code (Buffer.nth buf i) in
  let rec go off =
    if (not c.alive) || have - off < 4 then Ok off
    else begin
      let len =
        (byte off lsl 24) lor (byte (off + 1) lsl 16) lor (byte (off + 2) lsl 8)
        lor byte (off + 3)
      in
      if len > max_frame then Error len
      else if have - off - 4 < len then Ok off
      else begin
        f (Buffer.sub buf (off + 4) len);
        go (off + 4 + len)
      end
    end
  in
  match go 0 with
  | Error _ as e -> e
  | Ok off ->
      drop_front buf off;
      Ok ()

(* The event loop ----------------------------------------------------- *)

let now () = Unix.gettimeofday ()

let run ?(on_ready = fun () -> ()) config service =
  let metrics = Service.metrics service in
  let stop = ref false in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if config.handle_signals then begin
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler
  end;

  (* Boot-time snapshot load: every failure mode is a warning and an
     empty cache, never a crash. *)
  (match config.snapshot_path with
  | None -> ()
  | Some path -> (
      match Snapshot.load ~path with
      | Ok payload ->
          let adopted = Service.adopt service payload in
          Printf.eprintf "mineq serve: snapshot %s: loaded %d entries\n%!" path adopted
      | Error Snapshot.Missing -> Service.note_snapshot_error service "no snapshot file"
      | Error e ->
          let m = Snapshot.error_to_string e in
          Service.note_snapshot_error service m;
          Printf.eprintf "mineq serve: warning: %s (%s); booting cold\n%!" m path));

  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;

  let pool = Pool.create ~jobs:config.jobs () in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let queue : pending Queue.t = Queue.create () in
  let read_buf = Bytes.create 65536 in
  let touched = ref [] in

  (* Push what the kernel takes, then close: the stream cannot carry
     anything after this. *)
  let hang_up c =
    flush_out conns c;
    close_conn conns c
  in
  let send c payload =
    if c.alive then
      match Proto.add_frame c.out payload with
      | exception Invalid_argument _ ->
          (* A response beyond the 4-byte length header cannot be
             framed; hang up rather than desynchronize the stream. *)
          hang_up c
      | () ->
          if not c.touched then begin
            c.touched <- true;
            touched := c :: !touched
          end;
          (* Slow-reader shed: a peer that keeps requesting but never
             reads cannot pin unbounded response bytes in the server.
             Past the bound, push what the kernel takes now, and close
             if that does not bring [out] back under it. *)
          if Buffer.length c.out > config.max_out_buf then begin
            flush_out conns c;
            if c.alive && Buffer.length c.out > config.max_out_buf then close_conn conns c
          end
  in
  let send_json c v = send c (Proto.json_to_string v) in
  (* One write per answered connection, in place of one per response. *)
  let flush_touched () =
    List.iter
      (fun c ->
        c.touched <- false;
        flush_out conns c)
      !touched;
    touched := []
  in

  let cache_total () =
    let e, l, b = Service.cache_sizes service in
    e + l + b
  in
  let last_save = ref (now ()) in
  let saved_total = ref (cache_total ()) in
  let save_snapshot ~reason =
    match config.snapshot_path with
    | None -> ()
    | Some path -> (
        let total = cache_total () in
        if total <> !saved_total then
          match Snapshot.save ~path (Service.to_payload service) with
          | () ->
              saved_total := total;
              Printf.eprintf "mineq serve: snapshot %s: saved %d entries (%s)\n%!" path
                total reason
          | exception Sys_error m ->
              Printf.eprintf "mineq serve: warning: snapshot save failed: %s\n%!" m)
  in

  let admit c req =
    if String.equal req.Proto.op "shutdown" then begin
      (* Never queued and never shed: the stop request must get
         through precisely when the server is drowning.  Pending
         admitted work still drains before the loop exits. *)
      send_json c (Service.handle service req);
      stop := true
    end
    else if Queue.length queue >= config.queue_cap then begin
      Metrics.incr_shed metrics;
      send_json c
        (Proto.error_response ~id:req.Proto.id ~code:"MINEQ-S005"
           ~message:
             (Printf.sprintf "overloaded: %d requests pending, retry later"
                (Queue.length queue)))
    end
    else Queue.add { conn = c; req; arrival = now () } queue
  in

  let on_frame c payload =
    match Proto.json_of_string payload with
    | Error m ->
        Metrics.incr_error metrics;
        send_json c
          (Proto.error_response ~id:Proto.Null ~code:"MINEQ-S001"
             ~message:("malformed frame payload: " ^ m))
    | Ok v -> (
        match Proto.request_of_json v with
        | Error m ->
            Metrics.incr_error metrics;
            send_json c
              (Proto.error_response ~id:(Proto.member "id" v) ~code:"MINEQ-S001"
                 ~message:m)
        | Ok req -> admit c req)
  in

  let drain_frames c =
    match peel_frames ~max_frame:config.max_frame c (on_frame c) with
    | Ok () -> ()
    | Error len ->
        (* The stream can no longer be framed: answer and close. *)
        Metrics.incr_error metrics;
        send_json c
          (Proto.error_response ~id:Proto.Null ~code:"MINEQ-S006"
             ~message:
               (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
                  config.max_frame));
        hang_up c
  in

  let on_readable c =
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> close_conn conns c
    | n ->
        Buffer.add_subbytes c.buf read_buf 0 n;
        drain_frames c
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    | exception Unix.Unix_error _ -> close_conn conns c
  in

  let evaluate (p : pending) =
    let deadline =
      match p.req.Proto.deadline_ms with
      | Some d -> Float.min d config.deadline_ms
      | None -> config.deadline_ms
    in
    let waited_ms = (now () -. p.arrival) *. 1000.0 in
    if waited_ms > deadline then
      { p;
        expired = true;
        response =
          Proto.json_to_string
            (Proto.error_response ~id:p.req.Proto.id ~code:"MINEQ-S004"
               ~message:
                 (Printf.sprintf "deadline of %.0f ms exceeded after %.1f ms queued"
                    deadline waited_ms))
      }
    else
      { p; expired = false; response = Proto.json_to_string (Service.handle service p.req) }
  in

  let dispatch () =
    while not (Queue.is_empty queue) do
      let batch =
        Array.init
          (min config.batch_max (Queue.length queue))
          (fun _ -> Queue.take queue)
      in
      Metrics.incr_batches metrics;
      let results = Pool.map_array pool evaluate batch in
      let finish = now () in
      Array.iter
        (fun r ->
          send r.p.conn r.response;
          if r.expired then Metrics.incr_deadline metrics
          else
            Metrics.record metrics ~op:r.p.req.Proto.op
              ~us:((finish -. r.p.arrival) *. 1e6))
        results;
      flush_touched ()
    done
  in

  on_ready ();
  while not !stop do
    let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    (* At the connection cap, stop polling the listen socket: new
       clients wait in the kernel backlog instead of pushing fd
       numbers toward FD_SETSIZE, where select itself would fail. *)
    let rfds =
      if Hashtbl.length conns < config.max_conns then listen_fd :: conn_fds
      else conn_fds
    in
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc)
        conns []
    in
    (match Unix.select rfds wfds [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> flush_out conns c
            | None -> ())
          ready_w;
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              match Unix.accept listen_fd with
              | client, _ ->
                  Unix.set_nonblock client;
                  Hashtbl.replace conns client
                    { fd = client; buf = Buffer.create 256; out = Buffer.create 256;
                      alive = true; touched = false
                    }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> on_readable c
              | None -> ())
          ready_r);
    dispatch ();
    (* Early answers (S001, S005, shutdown) of a tick no batch ran in. *)
    flush_touched ();
    if now () -. !last_save >= config.snapshot_every_s then begin
      save_snapshot ~reason:"write-behind";
      last_save := now ()
    end
  done;

  (* Best-effort drain of buffered responses (the shutdown ack,
     answers to late pipelined requests), bounded so a peer that
     never reads cannot hold up exit. *)
  let drain_until = now () +. 1.0 in
  let rec drain_outbound () =
    let pending =
      Hashtbl.fold
        (fun fd c acc -> if c.alive && Buffer.length c.out > 0 then fd :: acc else acc)
        conns []
    in
    if pending <> [] && now () < drain_until then begin
      (match Unix.select [] pending [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, writable, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> flush_out conns c
              | None -> ())
            writable);
      drain_outbound ()
    end
  in
  drain_outbound ();

  save_snapshot ~reason:"shutdown";
  prerr_string (Metrics.dump metrics);
  flush stderr;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  Pool.shutdown pool

(* Client helpers ----------------------------------------------------- *)

let connect ?(retries = 0) ~path () =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if attempt < retries then begin
          ignore (Unix.select [] [] [] 0.05);
          go (attempt + 1)
        end
        else Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))
  in
  go 0

let call ?(max_frame = 64 * Proto.max_frame_default) fd request =
  Proto.write_frame fd (Proto.json_to_string request);
  match Proto.read_frame ~max_frame fd with
  | Ok payload -> Proto.json_of_string payload
  | Error Proto.Closed -> Error "connection closed before a full response frame"
  | Error (Proto.Oversized n) -> Error (Printf.sprintf "oversized response frame (%d bytes)" n)
