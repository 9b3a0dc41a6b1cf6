(* pb_load: drives a running mineq serve daemon over its Unix socket.

     pb_load closed --socket P --requests F --out O --conns C --depth D
     pb_load open   --socket P --requests F --out O --conns C --schedule S
                    --late-limit-us L

   closed: C connections, each keeping D requests in flight -- callers
   that wait for their replies.  open: each request is sent at its
   scheduled offset (independent users; a Poisson schedule written by
   pb_ref), whatever the replies are doing, and its latency is timed
   from that scheduled time, so a stall is charged to every request it
   delays.

   Requests are pre-rendered JSON payloads, one per line; this program
   only frames, sends, receives and timestamps, and links nothing but
   unix, so it measures the wire protocol and nothing of the library.
   Each response is written as "index<TAB>due_us<TAB>sent_us<TAB>
   recv_us<TAB>payload" (times relative to the phase start); a summary
   JSON object goes to stdout.  Answers are checked afterwards, outside
   the timed window. *)

let now () = Unix.gettimeofday ()

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

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b 4 len;
  b

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | k -> write_all fd b (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

type conn = { fd : Unix.file_descr; inbuf : Buffer.t; mutable inflight : int }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbuf = Buffer.create 65536; inflight = 0 }

(* The integer after the first "id": of a payload.  Requests carry
   "id" = first id + line index; responses echo it near the front.
   Responses are matched by id, not by position: a shed (MINEQ-S005)
   answer overtakes the queued requests ahead of it. *)
let id_of payload =
  let key = "\"id\":" in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length payload then None
    else if String.sub payload i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < String.length payload && payload.[!stop] >= '0' && payload.[!stop] <= '9' do
        incr stop
      done;
      int_of_string_opt (String.sub payload start (!stop - start))

let read_chunk = Bytes.create 65536

(* Read what is available and hand every complete frame to
   [on_response].  Raises [End_of_file] when the daemon hangs up. *)
let drain c ~on_response =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> raise End_of_file
  | k ->
      let t = now () in
      Buffer.add_subbytes c.inbuf read_chunk 0 k;
      let rec peel () =
        let have = Buffer.length c.inbuf in
        if have >= 4 then begin
          let b i = Char.code (Buffer.nth c.inbuf i) in
          let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
          if have >= 4 + len then begin
            let payload = Buffer.sub c.inbuf 4 len in
            let rest = Buffer.sub c.inbuf (4 + len) (have - 4 - len) in
            Buffer.clear c.inbuf;
            Buffer.add_string c.inbuf rest;
            c.inflight <- c.inflight - 1;
            on_response t payload;
            peel ()
          end
        end
      in
      peel ()
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()

let flag name args =
  let rec go = function
    | k :: v :: _ when String.equal k name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("pb_load: missing " ^ name)
  in
  go args

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let run mode args =
  let lines = read_lines (flag "--requests" args) in
  let first_id = if Array.length lines = 0 then 0 else Option.value (id_of lines.(0)) ~default:0 in
  let payloads = Array.map frame lines in
  let total = Array.length payloads in
  let conns = Array.init (int_of_string (flag "--conns" args)) (fun _ -> connect (flag "--socket" args)) in
  let out = open_out_bin (flag "--out" args) in
  let t0 = ref 0.0 in
  let received = ref 0 in
  let due = Array.make total 0.0 in
  let sent = Array.make total 0.0 in
  let us t = (t -. !t0) *. 1e6 in
  let on_response t payload =
    incr received;
    match id_of payload with
    | Some id when id - first_id >= 0 && id - first_id < total ->
        let i = id - first_id in
        Printf.fprintf out "%d\t%.1f\t%.1f\t%.1f\t%s\n" i due.(i) (us sent.(i)) (us t) payload
    | _ -> Printf.fprintf out "-1\t0\t0\t0\t%s\n" payload
  in
  let send c index =
    let t = now () in
    sent.(index) <- t;
    c.inflight <- c.inflight + 1;
    write_all c.fd payloads.(index) 0 (Bytes.length payloads.(index));
    t
  in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wait_readable timeout =
    match Unix.select fds [] [] timeout with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            Array.iter (fun c -> if c.fd == fd then drain c ~on_response) conns)
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let summary =
    match mode with
    | `Closed ->
        let depth = int_of_string (flag "--depth" args) in
        let next = ref 0 in
        let refill c =
          while c.inflight < depth && !next < total do
            due.(!next) <- us (now ());
            ignore (send c !next);
            incr next
          done
        in
        t0 := now ();
        Array.iter refill conns;
        let progress = ref (now ()) in
        while !received < total && now () -. !progress < 60.0 do
          let before = !received in
          wait_readable 1.0;
          if !received > before then progress := now ();
          Array.iter refill conns
        done;
        Printf.sprintf "{\"phase\": \"closed\", \"requests\": %d, \"elapsed_s\": %.6f}" total
          (now () -. !t0)
    | `Open ->
        let schedule = Array.map float_of_string (read_lines (flag "--schedule" args)) in
        let late_limit = float_of_string (flag "--late-limit-us" args) in
        let late = Array.make total 0.0 in
        let backlog = Array.make total 0 in
        let lead = 0.005 in
        t0 := now () +. lead;
        let next = ref 0 in
        while !next < total do
          let t = now () in
          let due_t = !t0 +. (schedule.(!next) /. 1e6) in
          if t >= due_t then begin
            let c = conns.(!next mod Array.length conns) in
            due.(!next) <- schedule.(!next);
            let t_sent = send c !next in
            late.(!next) <- us t_sent -. schedule.(!next);
            backlog.(!next) <- !next + 1 - !received;
            incr next;
            (* Keep reading while catching up on overdue sends: a client
               that stops reading is closed by the daemon once its
               pending responses pass the daemon's output bound. *)
            wait_readable 0.0
          end
          else
            (* A timed sleep wakes up to the kernel's 50 us timer slack
               late, and lateness is charged to latency: sleep to 60 us
               short of the due time, then poll (without sleeping) the
               rest of the way, rather than spin through every gap. *)
            let gap = due_t -. t in
            wait_readable (if gap > 6e-5 then Float.min (gap -. 6e-5) 0.05 else 0.0)
        done;
        let last_send = now () in
        while !received < total && now () -. last_send < 60.0 do
          wait_readable 1.0
        done;
        let sorted = Array.copy late in
        Array.sort compare sorted;
        let mean lo hi =
          let s = ref 0 in
          for i = lo to hi - 1 do
            s := !s + backlog.(i)
          done;
          float_of_int !s /. float_of_int (max 1 (hi - lo))
        in
        (* Backlog growth: the last quarter of the schedule holds far
           more unanswered requests than the second quarter. *)
        let q2 = mean (total / 4) (total / 2) and q4 = mean (3 * total / 4) total in
        let late_p99 = percentile sorted 0.99 in
        (* Behind schedule: the typical send, not just a stall's worth
           of them, leaves late.  Stalls are charged to latency anyway,
           since latency runs from the due time. *)
        let late_p50 = percentile sorted 0.5 in
        let valid = late_p50 <= late_limit && q4 <= (2.0 *. q2) +. 8.0 && !received = total in
        Printf.sprintf
          "{\"phase\": \"open\", \"requests\": %d, \"received\": %d, \"late_p50_us\": %.1f, \
           \"late_p99_us\": %.1f, \"backlog_q2\": %.2f, \"backlog_q4\": %.2f, \"backlog_max\": %d, \
           \"valid\": %b}"
          total !received late_p50 late_p99 q2 q4
          (Array.fold_left max 0 backlog) valid
  in
  close_out out;
  Array.iter (fun c -> Unix.close c.fd) conns;
  print_endline summary

let () =
  match Array.to_list Sys.argv with
  | _ :: "closed" :: args -> run `Closed args
  | _ :: "open" :: args -> run `Open args
  | _ ->
      prerr_endline "usage: pb_load (closed|open) ...";
      exit 2
