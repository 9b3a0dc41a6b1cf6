(** Memo cache for per-network analysis results, sharded for parallel
    probes.

    Two keyings are available, chosen at {!create}:

    - {!Structural} (the default): a cheap multiply-xor hash over the
      [(f x, g x)] child pair of every node (no serialization, no MD5)
      with full structural equality on bucket collisions, so two
      networks share an entry exactly when every cell has the same
      two children on the same ports.  That is finer than
      {!Mineq.Mi_digraph.equal}, which ignores the non-canonical
      [(f, g)] split: the split is each cell's port assignment, and
      destination-tag routing, the blocking survey and lint's
      independence findings all depend on it.  Exact, so any value
      computed from the network may be cached under it, label- and
      port-bearing ones included.
    - {!Fingerprint}: keys on the canonical {!Mineq.Fingerprint}, so
      all isomorphic networks share one entry and a relabelled probe
      hits the cache the structural keying would miss.  {b Unsound
      whenever two classes share a fingerprint}, and they do: the WL
      fingerprint is a sound negative, not a complete invariant.
      [buddy:543963097] at [n = 4] is not Banyan, yet it has the same
      fingerprint as the Banyan networks [buddy:202], [buddy:271] and
      [buddy:318]; a [banyan] verdict cached for one is then returned
      for the other.  Even without a collision the keying is wrong
      for any value with a label-bearing field (the [detail] of an
      equivalence verdict names stages and labels of the network it
      was computed on).  It remains for callers that accept an
      approximate iso-class cache; nothing on the serving path uses
      it.

    {b Repeat probes are O(1).}  {!structural_hash} is computed once
    per network record and cached on it
    ({!Mineq.Mi_digraph.structural_hash_cache}), {!structural_equal}
    returns at once on the same physical record, and a hit rebinds
    the table's stored key to the probing record.  A key that entered
    from elsewhere ({!import}ed from a snapshot, or an equal record
    built earlier) costs full comparisons on its first hit only; from
    then on probes with that record walk no network.  The cached hash
    is a pure function of the connections, so it stays valid across a
    [Marshal]
    round trip; changing {!structural_hash}'s definition therefore
    changes the snapshot format.

    The cache is domain-safe and lock-striped across {!shard_count}
    shards selected by the key hash: workers probing different
    networks take different locks and never contend.  The compute
    function runs outside the lock, and each key is computed once:
    workers probing a key whose value is being computed wait for it
    (and count a hit) rather than computing it again.

    Hit/miss counters are exposed for the benches (summed over
    shards). *)

type 'a t

type keying = Structural | Fingerprint

val keying_name : keying -> string

val shard_count : int
(** Number of lock stripes (a power of two). *)

val create : ?size:int -> ?keying:keying -> unit -> 'a t
(** [keying] defaults to {!Structural}. *)

val keying : 'a t -> keying

val structural_hash : Mineq.Mi_digraph.t -> int
(** The shard/bucket hash: folds [width], [stages] and every gap's
    [(f x, g x)] child pairs.  Equal networks (in the sense of
    {!structural_equal}) hash equally.  Computed on a record's first
    call and cached on it; later calls read the slot.  Safe from
    parallel workers (a benign race: writers store the same int). *)

val structural_equal : Mineq.Mi_digraph.t -> Mineq.Mi_digraph.t -> bool
(** Same [f] and [g] child at every node of every gap, computed
    without allocation: {!Mineq.Mi_digraph.equal} plus the same port
    assignment.  [true] at once when both arguments are the same
    physical record. *)

val find_or_compute : 'a t -> Mineq.Mi_digraph.t -> (Mineq.Mi_digraph.t -> 'a) -> 'a
(** Cached value for the network, computing (and storing) on miss.
    Under {!Structural} keying a hit also rebinds the stored key to
    the probing record ([Hashtbl.replace]), so the table keeps the
    record its callers hold and drops an imported copy.  If the
    computation raises, the exception propagates, nothing is stored,
    and a worker waiting on the same key computes it instead.  The
    computation must not probe the same cache for the same key: it
    would wait for itself. *)

val hits : 'a t -> int

val misses : 'a t -> int

val size : 'a t -> int
(** Stored entries, counting a key whose value is being computed. *)

val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; [nan] before any probe. *)

val reset : 'a t -> unit
(** Drop all entries and zero the counters. *)

(** {1 Export / import}

    A point-in-time view of the cache for the serving layer's disk
    snapshots ([Mineq_serve.Snapshot]).  Entries carry their key in
    the keying the cache was created with. *)

type 'a entry =
  | Skey of Mineq.Mi_digraph.t * 'a  (** a {!Structural} entry *)
  | Fkey of Mineq.Fingerprint.t * 'a  (** a {!Fingerprint} entry *)

val export : 'a t -> 'a entry array
(** Every stored entry, copied under {e all} shard locks at once
    (acquired in index order) — a consistent cut: an entry either
    predates the export and appears, or postdates it and doesn't,
    never a mix that depends on shard visit order.  Entry order is
    unspecified. *)

val fold : ('acc -> 'a entry -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over {!export}'s consistent cut. *)

val import : 'a t -> 'a entry array -> int
(** Adopt entries whose key kind matches the cache's keying, skipping
    keys already present (resident entries win) and entries of the
    other kind.  Returns the number adopted.  Neither hits nor misses
    are counted. *)
