(** The daemon: a Unix-domain-socket front end over {!Service}.

    One thread runs a [select] event loop (accept, frame reassembly,
    response writes, write-behind snapshot ticks); admitted requests
    queue — bounded — and drain in batches through the work-stealing
    {!Mineq_engine.Pool}, so a burst of probes from many connections
    is evaluated across every core while framing stays single-
    threaded and allocation-light.  Responses are framed straight
    into their connection's output buffer, and each connection a batch
    answered is flushed once after that batch: a client that
    pipelines requests gets their answers, in request order, in one
    write rather than one write per response.

    {b Overload: shed, not stall.}  When the pending queue holds
    [queue_cap] requests, further admissions are answered immediately
    with [MINEQ-S005] and dropped — the client learns within one
    round trip instead of watching its deadline burn in a queue the
    server cannot drain in time.  The same policy covers the two
    resources the queue cap cannot see: client sockets are
    non-blocking with per-connection write buffers drained via
    select's write set, and a peer that stops reading is closed as
    soon as a response takes its buffer past [max_out_buf] and a
    flush cannot bring it back under (a blocking write there would
    wedge the event loop for every client); at [max_conns] concurrent
    connections the listen socket is no longer polled, so new clients
    wait in the kernel backlog instead of pushing fd numbers past
    [select]'s [FD_SETSIZE] ceiling.

    {b Deadlines.}  Every request is stamped on arrival; when a
    worker picks it up past its deadline (the server default, lowered
    by the request's own ["deadline_ms"]) it is answered with
    [MINEQ-S004] without evaluation.  Deadlines are checked at
    dispatch, not mid-compute: verdict kernels are microseconds to
    milliseconds, so admission control is where lateness happens.

    {b Warm restarts.}  With [snapshot_path] set, the verdict caches
    are loaded on boot (stale or torn files boot an empty cache with
    a warning — never a crash) and written behind every
    [snapshot_every_s] seconds when dirty, plus once at shutdown, via
    {!Snapshot}'s atomic temp-file + rename. *)

type config = {
  socket_path : string;
  jobs : int;  (** pool width for batch evaluation *)
  queue_cap : int;  (** pending-request bound; above it, shed *)
  batch_max : int;  (** max requests per pool dispatch *)
  deadline_ms : float;  (** default per-request deadline *)
  max_frame : int;  (** request frame size bound (MINEQ-S006) *)
  max_conns : int;
      (** concurrent-connection cap; past it, accepts pause (keep
          below [FD_SETSIZE], 1024 on Linux) *)
  max_out_buf : int;
      (** per-connection pending-response bound; a peer that stops
          reading is closed once its buffer passes it *)
  snapshot_path : string option;
  snapshot_every_s : float;  (** write-behind period *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers for graceful shutdown (off
          when embedded in tests) *)
}

val default_config : socket_path:string -> config
(** [jobs = Pool.default_jobs ()], [queue_cap = 256],
    [batch_max = 64], [deadline_ms = 2000.], [max_frame] 1 MiB,
    [max_conns = 512], [max_out_buf] 4 MiB, no snapshot,
    [snapshot_every_s = 5.], signals handled. *)

val run : ?on_ready:(unit -> unit) -> config -> Service.t -> unit
(** Bind, listen and serve until a [shutdown] request or (when
    [handle_signals]) SIGTERM/SIGINT.  A stale socket file at
    [socket_path] is replaced.  [on_ready] fires once the socket is
    listening, before the first accept — the hook tests use to start
    their client.  On exit: final snapshot (if dirty), metrics dump
    to stderr, socket unlinked, pool shut down. *)

(** {1 Client helpers}

    The scripted-session building blocks the CLI's [--call] mode, the
    bench and the tests share. *)

val connect : ?retries:int -> path:string -> unit -> (Unix.file_descr, string) result
(** Connect to the daemon's socket, retrying [retries] times at 50 ms
    (default 0: one attempt) for just-booted daemons. *)

val call : ?max_frame:int -> Unix.file_descr -> Proto.json -> (Proto.json, string) result
(** One request frame out, one response frame back, parsed.
    [max_frame] bounds the {e response} and defaults to 64 MiB —
    well above the request-side default, since lint reports on large
    inline specs can outgrow 1 MiB. *)
