(** The warm compute core behind the daemon: resident packed
    networks, sharded verdict caches and metrics, independent of any
    socket.

    Three {!Mineq_engine.Memo} caches hold verdicts, all keyed
    {e structurally}: the same children on the same ports at every
    cell, so a cached value is only ever returned for the network it
    was computed on:

    - [equiv] holds the default [characterization] decider's whole
      verdict, [detail] included, and serves both [equiv] and
      [banyan] requests.  Explicit [independence]/[isomorphism]
      requests compute fresh.
    - [lint] and [blocking] hold findings with stage/label witnesses
      and Certify survey rows.

    A relabelled copy of a known network is a different key and
    misses, and so is a copy with some cell's output ports exchanged
    (the same digraph, but not the same router).  Fingerprint keying
    is not used: WL fingerprints collide across isomorphism classes
    (see {!Mineq_engine.Memo}), and a verdict's [detail] is
    label-bearing.  No request computes a
    {!Mineq.Fingerprint} except an [isomorphism]-method request whose
    network is Banyan ({!Mineq.Equivalence.by_isomorphism}).

    Parsed networks (and their packed CSR forms, built lazily on
    first use and cached in the record) are resident in a spec-keyed
    table, so repeat queries skip parsing and packing entirely.  A
    resident record also carries its cached structural hash and, after
    its first hit, is the stored key of its cache entries: a repeat
    probe compares no network (see {!Mineq_engine.Memo}).

    {!handle} is safe to call from multiple pool workers at once: the
    caches are lock-striped, the network table has its own mutex, and
    metric updates are mutexed. *)

type t

val create : unit -> t

val metrics : t -> Metrics.t

val handle : t -> Proto.request -> Proto.json
(** Evaluate one request to its response.  Framing, queueing,
    deadlines and shedding are the server's job — by the time a
    request reaches [handle] it has already been admitted.

    [handle] never raises: an exception escaping evaluation (a kernel
    [Invalid_argument], [Out_of_memory] on a pathological request)
    becomes a [MINEQ-S007] internal-error response, so one bad
    request cannot crash a pool worker or the daemon. *)

val parse_named : string -> n:int -> (Mineq.Mi_digraph.t, string) result
(** The named-network grammar, shared with the CLI's NETWORK
    argument: one of the six classical names, [random:SEED],
    [pipid:SEED] or [buddy:SEED], built at [n] stages.  An unknown
    name or a non-integer seed is a one-line message.  [n] must be at
    least 2 ({!Proto.n_limit} bounds it from above). *)

val network_of_spec : t -> spec:string -> n:int -> (Mineq.Mi_digraph.t, string) result
(** {!parse_named} against the resident table, parsing and caching
    on first sight. *)

(** {1 Cache statistics and snapshots} *)

val cache_sizes : t -> int * int * int
(** [(equiv, lint, blocking)] entry counts. *)

val hit_rate : t -> float
(** Pooled hit rate across the three caches; [nan] before any
    probe. *)

val to_payload : t -> Snapshot.payload
(** Consistent export of all three caches. *)

val adopt : t -> Snapshot.payload -> int
(** Import a loaded snapshot into the caches (resident entries win);
    returns the number of entries adopted and records it for
    {!handle}'s [stats] op. *)

val snapshot_note : t -> string
(** Boot provenance shown in [stats]: what {!adopt} or
    {!note_snapshot_error} recorded, or ["cold"] initially. *)

val note_snapshot_error : t -> string -> unit
