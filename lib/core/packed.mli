(** Zero-allocation enumeration kernels over the packed network
    representation.

    {!Mi_digraph.packed} compiles a network once into flat int arrays
    (dense stage-major node ids, per-gap digit-word child tables,
    stride-[r] CSR adjacency); this module provides the enumeration
    deciders that run on them: the flat-DSU component census behind
    [P(i,j)], the Banyan path-count DP, and the simulator's downstream
    routing tables.  None of the kernels allocates per arc; with an
    explicit {!scratch} they allocate nothing at all per query, which
    is what lets a census over every stage window — or a parallel
    worker sweeping many networks — run allocation-free after setup.

    Every kernel is radix-generic: the same code serves the binary
    networks of {!Mi_digraph} ([p_radix = 2], via {!of_network}) and
    the [r x r] networks of [lib/radix] (packed via
    {!Mi_digraph.pack_tables}).  The binary case is a specialized
    fast path — inner loops unrolled over the two ports — so [r = 2]
    pays nothing for the generalization.

    The symbolic deciders of [lib/analysis] remain the fast path when
    every gap is affine; these kernels are the {e enumeration
    fallbacks}.  The test suite holds them against a boxed oracle of
    its own at [r = 2], [3] and [4]. *)

type t = Mi_digraph.packed

val of_network : Mi_digraph.t -> t
(** Same as {!Mi_digraph.packed}: built on first use, cached on the
    network record. *)

val stages : t -> int

val width : t -> int
(** Label digits per node. *)

val radix : t -> int
(** [r]: ports per cell side; 2 for packings of {!Mi_digraph}. *)

val nodes_per_stage : t -> int

val total_nodes : t -> int

val node_id : t -> stage:int -> int -> int
(** Dense id of [(stage, label)] (stage 1-based, as in the paper). *)

val node_of_id : t -> int -> int * int
(** Inverse of {!node_id}: [(stage, label)]. *)

val child : t -> gap:int -> port:int -> int -> int
(** [child p ~gap ~port x]: the [h_port]-child label of label [x]
    across the 1-based [gap], [port in 0 .. r-1]. *)

val child_f : t -> gap:int -> int -> int
(** [child_f p ~gap x]: the [f]-child ([port = 0]) of label [x]
    across the 1-based [gap] — binary port naming, meaningful for
    [radix p = 2]. *)

val child_g : t -> gap:int -> int -> int
(** Likewise for [g] ([port = 1]). *)

val parent : t -> gap:int -> port:int -> int -> int
(** [parent p ~gap ~port y]: the [port]-th parent label of label [y]
    across [gap], in deterministic port-fill order (in-degree is
    exactly [r], so all [r] slots exist; they coincide only on
    multi-links). *)

val parent_a : t -> gap:int -> int -> int
(** [parent_a p ~gap y]/[parent_b p ~gap y]: parent slots 0 and 1 —
    the two parents of a binary packing. *)

val parent_b : t -> gap:int -> int -> int

type scratch
(** Reusable working memory for the kernels, sized for one network:
    a flat DSU over dense node ids plus two stage-wide DP rows.
    Sequential queries may share one scratch; parallel workers must
    each hold their own. *)

val scratch : t -> scratch

val component_count : ?scratch:scratch -> t -> lo:int -> hi:int -> int
(** Connected components of the sub-digraph on stages [lo .. hi]
    (underlying undirected graph), by flat union-find over the child
    tables.  With [?scratch], allocation-free. *)

val component_labels : ?scratch:scratch -> t -> lo:int -> hi:int -> int array * int
(** [(comp, count)]: window-relative component labels
    ([comp.((stage - lo) * per + label)]), components numbered by
    their minimal member in dense-id order (the numbering the
    ascending-vertex BFS used). *)

val first_violation : ?scratch:scratch -> t -> (int * int * int) option
(** Banyan check by forward path-count DP: [Some (source, sink,
    paths)] for the first stage-1/stage-n pair (ascending source,
    then sink) whose path count differs from 1, [None] when the
    network is Banyan.  With [?scratch], allocation-free. *)

val path_count_matrix : t -> int array array
(** [m.(u).(v)]: number of stage-1-[u] to stage-n-[v] paths.  Fresh
    matrix; the DP itself reuses two rows. *)

val expected_components : t -> lo:int -> hi:int -> int
(** [r^(n-1-(hi-lo))]: the component count [P(lo, hi)] asks of the
    window on stages [lo .. hi]. *)

val satisfies_characterization : t -> bool
(** The characterization of [12] by enumeration alone, at any radix:
    Banyan ({!first_violation}), then [P(1, j)] for every [j] and
    [P(i, n)] for every [i] ({!component_count} against
    {!expected_components}), on one scratch.  The verdict behind both
    {!Equivalence.equivalent_enum} and [Rnetwork.by_characterization]. *)

val downstream : t -> int array array
(** Per-gap flat routing tables for the packet simulator: entry
    [r * cell + out_port] of table [gap - 1] encodes the downstream
    cell and its input-port index as [cell * r + in_port] (for
    [r = 2], the historic [(cell lsl 1) lor in_port]).  Port
    numbering follows the predecessor fill order of
    {!Mi_digraph.packed}. *)
