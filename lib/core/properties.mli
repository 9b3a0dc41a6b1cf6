(** The paper's component-counting properties [P(i,j)], [P(1,each j)],
    [P(each i,n)] (Section 2), the buddy properties of Agrawal used for
    contrast, and the component structure examined by Lemma 2.

    [P(i,j)] holds when the sub-digraph on stages [i..j] has exactly
    [2^(n-1-(j-i))] connected components (components of the undirected
    underlying graph).  The characterization theorem of [12]: a Banyan
    MI-digraph satisfying [P(1,each j)] and [P(each i,n)] is isomorphic to the
    Baseline MI-digraph. *)

val expected_components : Mi_digraph.t -> lo:int -> hi:int -> int
(** [2^(n-1-(hi-lo))]. *)

val component_count : Mi_digraph.t -> lo:int -> hi:int -> int
(** Number of connected components of [(G)_{lo..hi}], by flat
    union-find over the packed child tables
    ({!Packed.component_count}) — no arc materialization. *)

val component_count_affine : Mi_digraph.t -> lo:int -> hi:int -> int option
(** Symbolic count for windows whose every gap is independent
    (children [B x xor cf, B x xor cg]): the stage-[lo] slice of each
    component is a coset of the subspace reached by the downward
    recursion [S_hi = 0], [S_j = B_j^-1(span(S_{j+1} + {delta_j}))],
    so the count is [2^(width - dim S_lo)] — O((hi-lo) poly(width))
    rank/kernel computations, no traversal.  [None] when some gap in
    the window is not independent; always agrees with
    {!component_count} when defined (qcheck-enforced). *)

val p_ij : Mi_digraph.t -> lo:int -> hi:int -> bool
(** The [P(lo, hi)] property.  Decided by {!component_count_affine}
    when the window supports it, by {!component_count} otherwise. *)

val p_one_star : Mi_digraph.t -> bool
(** [P(1, j)] for every [j in 1..n]. *)

val p_star_n : Mi_digraph.t -> bool
(** [P(i, n)] for every [i in 1..n]. *)

val full_matrix : Mi_digraph.t -> (int * int * int * int) list
(** Diagnostic: [(lo, hi, found, expected)] for every [lo <= hi]. *)

val satisfies_all : Mi_digraph.t -> bool
(** [P(i,j)] for {e every} pair — strictly stronger than the
    theorem's hypotheses; holds for the Baseline (experimentally
    interesting: the theorem only needs the two families). *)

(** {1 Buddy properties (Agrawal [8])}

    Two nodes are (output) buddies when they have the same two
    children.  The stage has the output-buddy property when the
    children sets of its nodes are pairwise equal or disjoint, and
    the input-buddy property symmetrically for parents.  Agrawal's
    Theorem 1 claimed these suffice for equivalence; [10] showed they
    do not — our counterexample search regenerates that gap. *)

val output_buddy_stage : Mi_digraph.t -> int -> bool
(** [output_buddy_stage g i] checks the gap [i -> i+1],
    [1 <= i <= n-1]. *)

val input_buddy_stage : Mi_digraph.t -> int -> bool

val has_buddy_property : Mi_digraph.t -> bool
(** Both buddy properties at every gap. *)

(** {1 Lemma 2 component structure (Figure 3)} *)

type component_profile = {
  lo : int;
  hi : int;
  components : Mineq_bitvec.Bv.t list array array;
      (** [components.(c).(s)] = labels of component [c]'s nodes in
          stage [lo + s], ascending. *)
}

val component_profile : Mi_digraph.t -> lo:int -> hi:int -> component_profile
(** The stage-by-stage membership of every component of
    [(G)_{lo..hi}] — the objects [A_j] in Lemma 2's proof. *)

val lemma2_translate_structure : Mi_digraph.t -> bool
(** Verifies the inductive invariant inside Lemma 2's proof on an
    {e independent-connection} Banyan digraph: for every suffix window
    [(G)_{j..n}] and every component [A] of it, the set of buddies
    [B_j] of [A]'s stage-[j] slice is a translated set of that slice
    (and the component intersects each stage in [2^(n-hi... )]
    equally-sized slices).  Returns [false] on any violation; on
    digraphs without independent connections the invariant may
    legitimately fail. *)
