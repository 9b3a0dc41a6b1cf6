(** Wire protocol of the [mineq serve] daemon.

    One request, one response, both a single {e frame}: a 4-byte
    big-endian payload length followed by that many bytes of UTF-8
    JSON.  Frames are independent — a client may pipeline several
    requests on one connection and reads responses back in request
    order.

    Requests are JSON objects:

    {v
    { "op": "equiv", "network": "omega", "n": 4,
      "id": 7, "deadline_ms": 250 }
    v}

    - ["op"] (required): ["ping"], ["equiv"], ["banyan"], ["lint"],
      ["blocking"], ["stats"] or ["shutdown"].
    - ["network"]: a network specification in the CLI's syntax
      (classical name, [random:SEED], [pipid:SEED], [buddy:SEED]), or
      ["spec"]: inline spec-file text ({!Mineq.Spec_io.of_string}).
      Exactly the verdict ops need one of the two.
    - ["n"]: stage count for named networks (default 4).  Bounded to
      [2 <= n <= n_limit] at parse time, so a request can neither
      reach constructors that require [n >= 2] nor ask the server to
      materialize an absurdly large network.
    - ["method"]: equivalence decider for ["equiv"]
      ([characterization], [independence], [isomorphism]; default
      [characterization] — the only one served from the warm
      fingerprint cache).
    - ["id"]: any JSON value, echoed verbatim in the response.
    - ["deadline_ms"]: per-request deadline; the effective deadline is
      the minimum of this and the server's configured one.

    Responses carry ["ok": true] plus op-specific fields, or
    ["ok": false] with an ["error"] object holding a [MINEQ-S0xx]
    code:

    - [MINEQ-S001] — malformed frame payload (not valid JSON, or not
      a request object).
    - [MINEQ-S002] — unknown ["op"].
    - [MINEQ-S003] — bad ["network"]/["spec"] (unparseable, or both
      or neither given).
    - [MINEQ-S004] — deadline exceeded before the request reached a
      worker (the request was {e not} evaluated).
    - [MINEQ-S005] — overloaded: the bounded accept queue is full and
      the request was shed without evaluation.  Retry later.
    - [MINEQ-S006] — frame longer than the server's limit; the
      connection is closed after the error, since the stream can no
      longer be framed.
    - [MINEQ-S007] — internal error: evaluation raised instead of
      producing a verdict.  The daemon answers and keeps serving; the
      exception never escapes the request. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list
  | Raw of string
      (** Already-encoded JSON text, spliced into the output as it
          is.  It must hold exactly one JSON value in compact form (as
          {!json_to_string} writes it), with no raw newline: a
          response is one line on the wire and to every client that
          reads it line by line.  {!json_of_string} never produces
          it; the service's lint cache stores its reports this way,
          so a cache hit copies the encoded report instead of walking
          a tree. *)

val json_to_string : json -> string
(** Compact rendering, written in one pass into one buffer; keys and
    strings are escaped by {!Mineq_analysis.Report.add_json_string},
    and {!Raw} text is copied verbatim. *)

val json_of_string : string -> (json, string) result
(** Recursive-descent parser for the full JSON grammar (objects,
    arrays, strings with escapes, numbers, booleans, null).  Numbers
    without fraction or exponent parse as {!Int}.  The result never
    contains {!Raw}. *)

val member : string -> json -> json
(** Field of an object, {!Null} when absent or not an object. *)

val to_int : ?default:int -> json -> int option

val to_float : json -> float option
(** Accepts both {!Int} and {!Float}. *)

val to_string_opt : json -> string option

(** {1 Framing} *)

val max_frame_default : int
(** 1 MiB. *)

val frame_payload_max : int
(** [2^32 - 1], the largest payload the 4-byte length header can
    describe. *)

type frame_error =
  | Closed  (** EOF before a full frame *)
  | Oversized of int  (** declared length exceeded the limit *)

val add_frame : Buffer.t -> string -> unit
(** Append one frame to the buffer: 4-byte big-endian length prefix +
    payload (the daemon frames each response straight into its
    connection's output buffer).  Raises [Invalid_argument], leaving
    the buffer untouched, when the payload exceeds
    {!frame_payload_max} — a larger frame would silently truncate the
    header and desynchronize the stream. *)

val frame : string -> string
(** The on-wire bytes of one frame, as {!add_frame} writes them — the
    client side's framing.  Raises [Invalid_argument] as {!add_frame}
    does. *)

val write_frame : Unix.file_descr -> string -> unit
(** [frame] written out, handling short writes.  Raises
    [Invalid_argument] as {!frame} does. *)

val read_frame : ?max_frame:int -> Unix.file_descr -> (string, frame_error) result
(** Blocking read of one frame.  On {!Oversized} the descriptor is
    left mid-frame — callers must close it. *)

(** {1 Requests} *)

type request = {
  id : json;  (** echoed; [Null] when absent *)
  op : string;
  network : string option;
  spec : string option;
  n : int;
  method_ : string option;
  deadline_ms : float option;
}

val n_limit : int
(** Largest ["n"] {!request_of_json} admits (16); the lower bound is
    2.  Named-network constructors require [n >= 2], and an unbounded
    [n] would let one request allocate a [2^n]-terminal network. *)

val request_of_json : json -> (request, string) result
(** Validates shape only (op present and a string, fields well-typed,
    ["n"] within [2 .. n_limit]); op/spec semantics are the
    service's. *)

val request_to_json : request -> json
(** Inverse of {!request_of_json} up to field defaulting — the
    client-side builder. *)

(** {1 Responses} *)

val ok_response : id:json -> (string * json) list -> json

val error_response : id:json -> code:string -> message:string -> json

val response_ok : json -> bool
(** The ["ok"] field, [false] when missing. *)

val error_code : json -> string option
(** ["error"."code"] of a failure response. *)

(** {1 Cached verdict payloads}

    The value types the service's warm {!Mineq_engine.Memo} caches
    store and {!Snapshot} persists — plain data, no closures, so
    [Marshal] round-trips them. *)

type verdict = { equivalent : bool; banyan : bool; detail : string }
(** Equivalence verdict (iso-invariant fields of
    {!Mineq.Equivalence.by_characterization} — [detail] is the
    representative's rendering and may mention that network's
    labels). *)

type lint_cached = { report : json; errors : int; warnings : int; infos : int }
(** A structural lint report ready for embedding in a response: the
    service stores it as {!Raw} compact text, encoded once when the
    report is computed. *)

type blocking_cached = { delta : bool; rows : (string * string) list }
(** Affine blocking certificates per classical traffic class
    ([class name, verdict rendering]); [delta = false] means the
    network has no destination-tag router and [rows] is empty. *)
