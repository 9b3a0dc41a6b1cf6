(** MI-digraphs with [r x r] cells: [n] stages of [r^(n-1)] cells,
    with the Banyan property, the [P(i,j)] component properties
    (expected count [r^(n-1-(j-i))]) and the equivalence deciders,
    all generalized from the binary development.

    The paper proves Theorem 3 only for [r = 2] and notes the graph
    characterization generalizes; whether {e independence} still
    implies Baseline-equivalence at higher radix is exactly what
    experiment X6 tests (spoiler: every sampled instance agrees).

    The deciders run on the same packed CSR compilation as the binary
    library ({!Mi_digraph.packed} at stride [r], kernels in
    {!Mineq.Packed}): Banyan by the two-row path-count DP, the
    censuses by the flat union-find — no boxed child lists, no
    subgraph materialization.  The test suite holds them against a
    boxed oracle that reads children through {!Rconnection}. *)

module Mi_digraph := Mineq.Mi_digraph

type t

val create : Rconnection.t list -> t
(** [n-1] connections over the same context, each a valid MI stage;
    the digit width must be [n - 1].  Raises [Invalid_argument] on an
    empty list, a context mismatch, a radix below 2, a width not
    matching the stage count, or a connection violating the in-degree
    requirement. *)

val stages : t -> int

val ctx : t -> Rv.ctx

val radix : t -> int

val cells_per_stage : t -> int

val terminals : t -> int
(** [r^n]. *)

val connection : t -> int -> Rconnection.t
(** 1-based gap index. *)

val connections : t -> Rconnection.t list

val reverse : t -> t

val packed : t -> Mi_digraph.packed
(** The stride-[r] packed compilation ({!Mi_digraph.pack_tables}):
    dense stage-major ids, per-gap digit-word child tables, CSR
    adjacency.  Built on first use and cached on the record; safe
    under parallel domains (packing is deterministic and
    idempotent).  Every {!Mineq.Packed} kernel accepts the result. *)

val to_digraph : t -> Mineq_graph.Digraph.t
(** The flat digraph of {!packed}
    ({!Mineq.Mi_digraph.digraph_of_packed}): vertex
    [(stage - 1) * r^(n-1) + cell]. *)

val equal : t -> t -> bool

(** {1 Properties} *)

val is_banyan : t -> bool
(** Packed path-count DP ({!Mineq.Packed.first_violation}). *)

val path_count_matrix : t -> int array array
(** [m.(u).(v)]: number of stage-1-[u] to stage-n-[v] cell paths, by
    the packed DP. *)

val component_count : t -> lo:int -> hi:int -> int
(** Flat union-find over the packed child tables
    ({!Mineq.Packed.component_count}). *)

(** {1 Equivalence with the radix-r Baseline} *)

val by_characterization : t -> bool
(** Banyan + both [P] families (the generalized [12] theorem):
    {!Mineq.Packed.satisfies_characterization}, the loop the binary
    {!Mineq.Equivalence.equivalent_enum} runs too. *)

val by_independence : t -> bool
(** Banyan + every connection independent — the radix-r {e analogue}
    of Theorem 3 (conjectured; validated experimentally, X6). *)

val isomorphic : ?limit:int -> t -> t -> bool
(** Ground truth: generic digraph isomorphism between two radix
    networks (small sizes only).  [Rbuild.baseline] provides the
    canonical comparison target. *)
