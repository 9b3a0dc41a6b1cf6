(** Multistage interconnection digraphs (paper, Section 2).

    An MI-digraph with [n] stages has [n * 2^(n-1)] nodes partitioned
    into stages [1 .. n] of [2^(n-1)] nodes each, with arcs only from
    stage [i] to stage [i+1]; every node has out-degree 2 (except
    stage [n]) and in-degree 2 (except stage 1).  Nodes are labelled
    by [(n-1)]-bit strings within their stage.

    Internally the adjacency is stored as one {!Connection.t} per
    inter-stage gap — the decomposition [(f, g)] the paper introduces
    ("such a decomposition ... exists as the outdegree of a node is
    always two").  The decomposition is not canonical (swapping [f]
    and [g] anywhere yields the same digraph); graph-level operations
    are insensitive to it. *)

type t

type packed = private {
  p_stages : int;  (** [n] *)
  p_width : int;  (** [n - 1] label digits *)
  p_radix : int;  (** digits run over [0 .. p_radix - 1]; [2] here *)
  p_per : int;  (** [r^(n-1)] nodes per stage *)
  p_child : int array array;
      (** Per-gap child tables on stage labels, interleaved by port:
          [p_child.(k).(r * x + j)] is the [h_j]-child label of label
          [x] across gap [k+1] (0-based gap arrays, 1-based paper
          gaps).  For [r = 2], port 0 is the [f]-child and port 1 the
          [g]-child. *)
  p_succ : int array;
      (** Children in dense node ids, CSR with implicit stride-[r]
          offsets (out-degree is uniformly [r]): node [id] of stages
          [1 .. n-1] has children [p_succ.(r * id + j)] for
          [j in 0 .. r-1] (port order).  Length [r (n-1) r^(n-1)]. *)
  p_pred : int array;
      (** Parents in dense node ids: node [id] of stages [2 .. n] has
          parents [p_pred.(r * (id - per) + j)] for [j in 0 .. r-1],
          filled in deterministic order (ascending source label,
          ascending out-port — for [r = 2]: [f]-arc before [g]-arc) —
          the order that numbers a cell's input ports in the
          simulator. *)
}
(** One-shot flat-array compilation of a whole network: dense
    stage-major node ids [(stage - 1) * r^(n-1) + label], per-gap
    digit-word child tables, and stride-[r] CSR
    successor/predecessor adjacency.  The record is radix-generic so
    the same kernels ({!Packed}) serve this module's binary networks
    ([r = 2], obtained via {!packed}) and the [r x r] networks of
    [lib/radix] (obtained via {!pack_tables}).  Read-only (enforced
    by [private]). *)

val packed : t -> packed
(** The packed compilation of the network (always [p_radix = 2]),
    built on first use and cached on the record (so
    reverse/relabel/map_gaps results, being new records, repack
    independently).  Safe to call from parallel engine workers:
    packing is deterministic and idempotent. *)

val pack : t -> packed
(** The same compilation built afresh and not cached, for a one-off
    consumer that should not keep the tables alive on a long-lived
    record (a daemon keeps every parsed network resident). *)

val fingerprint_cache : t -> (int * int) option
(** The cached structural-fingerprint halves, if [Fingerprint] has
    already computed them for this record.  The slot lives on the
    network record (like the packed cache) so derived records —
    reverse, relabel, map_gaps results — fingerprint independently;
    only [Fingerprint] interprets the two ints. *)

val set_fingerprint_cache : t -> int * int -> unit
(** Store the fingerprint halves.  Benign race under Domains: the
    computation is deterministic, so concurrent writers agree. *)

val structural_hash_cache : t -> int option
(** The cached structural hash, if [Mineq_engine.Memo.structural_hash]
    has already computed it for this record.  A slot on the record,
    like {!fingerprint_cache}, so a verdict-cache probe with a network
    it has seen before walks none of its gaps; only [Memo] interprets
    the int.  The value is a pure function of the connections, so it
    survives a [Marshal] round trip (the serving layer's snapshots). *)

val set_structural_hash_cache : t -> int -> unit
(** Store the structural hash.  Same benign race as
    {!set_fingerprint_cache}. *)

val pack_tables :
  stages:int -> radix:int -> width:int -> child:(gap:int -> port:int -> int -> int) -> packed
(** General packed constructor for radix-[r] stage networks:
    [child ~gap ~port x] is the label of the [port]-child of cell [x]
    across the 1-based [gap].  Tabulates the child functions, builds
    the stride-[r] CSR adjacency and validates the result.  Raises
    [Invalid_argument] when [radix < 2], [width < 0],
    [stages <> width + 1] (for [stages > 1]; a 1-stage network may
    pair any width with its zero gaps), [radix^width] overflows, a
    child label falls outside [0 .. r^width - 1], or some cell's
    in-degree exceeds [radix] (each gap carries exactly
    [r · r^width] arcs, so no excess means in-degree exactly [radix]
    everywhere). *)

val stages : t -> int
(** The number of stages, [n >= 1]. *)

val width : t -> int
(** Label bits per node: [n - 1]. *)

val nodes_per_stage : t -> int
(** [2^(n-1)]. *)

val total_nodes : t -> int

val inputs : t -> int
(** [N = 2^n], the number of network inputs (and outputs). *)

val create : Connection.t list -> t
(** [create conns] builds the [n]-stage MI-digraph whose gap
    [i -> i+1] is [List.nth conns (i-1)].  Raises [Invalid_argument]
    when the list is empty (the degenerate 1-stage network has no
    connections — build it with {!single_stage} instead), when widths
    disagree, when the width does not match the stage count, or when
    any connection violates the in-degree-2 requirement.  The
    [Invalid_argument] message of the empty case names
    [single_stage] explicitly. *)

val single_stage : width:int -> t
(** The degenerate 1-stage MI-digraph with [2^width] isolated nodes
    (only meaningful for recursion base cases when [width = 0]).
    Raises [Invalid_argument] on a negative width; [~width:0] is the
    smallest valid instance (one node, no arcs). *)

val connection : t -> int -> Connection.t
(** [connection g i] is the connection between stages [i] and [i+1],
    [1 <= i <= n-1] (stages are 1-based as in the paper). *)

val connections : t -> Connection.t list

val children : t -> stage:int -> Mineq_bitvec.Bv.t -> Mineq_bitvec.Bv.t * Mineq_bitvec.Bv.t
(** Children in the next stage of a node at [stage < n]. *)

val parents : t -> stage:int -> Mineq_bitvec.Bv.t -> Mineq_bitvec.Bv.t list
(** Parents in the previous stage of a node at [stage > 1]. *)

val reverse : t -> t
(** The MI-digraph of the reverse network [G^-1]: arcs flipped and
    stages renumbered so stage 1 of the result is stage [n] of the
    argument. *)

val to_digraph : t -> Mineq_graph.Digraph.t
(** The flat digraph over all [n * 2^(n-1)] nodes, vertex ids
    stage-major and label-minor ([(stage - 1) * 2^(n-1) + label]),
    successors in port order: {!digraph_of_packed} of {!packed}.
    Only the generic isomorphism search reads it. *)

val digraph_of_packed : packed -> Mineq_graph.Digraph.t
(** The flat digraph of any packing, binary or radix-[r]: vertex
    [(stage - 1) * r^(n-1) + label] has its [r] children as
    successors in port order. *)

val equal : t -> t -> bool
(** Same stage count and identical arc multisets at every gap
    (i.e. label-preserving equality, not mere isomorphism). *)

val relabel : t -> (stage:int -> Mineq_bitvec.Bv.t -> Mineq_bitvec.Bv.t) -> t
(** Apply a bijection to the node labels of every stage (checked).
    Produces an isomorphic MI-digraph; used to manufacture equivalent
    networks whose connections are no longer independent. *)

val map_gaps : t -> (int -> Connection.t -> Connection.t) -> t
(** Rebuild with transformed connections (1-based gap index). *)

val is_valid : t -> bool
(** Re-checks the degree invariants (always true for values built by
    {!create}). *)

val pp : Format.formatter -> t -> unit
