(** Deciding Baseline-equivalence three ways.

    - {!by_independence} is the paper's Theorem 3: Banyan + every
      connection independent.  It is {e sufficient but not necessary}:
      relabelling the nodes of an equivalent network destroys
      independence without changing the isomorphism class (see
      experiment X5).
    - {!by_characterization} is the graph-theoretical
      characterization of [12] (the theorem quoted in Section 2):
      Banyan + [P(1,j)] for all [j] + [P(i,n)] for all [i].
      Sound and complete.
    - {!by_isomorphism} is the ground truth: an explicit isomorphism
      search against the Baseline MI-digraph.  Sound, complete, and
      expensive — it exists to validate the other two.

    All three agree on independent-connection networks; the test
    suite and experiment T1/T3 enforce this. *)

type method_ = Independence | Characterization | Isomorphism

val all_methods : method_ list

val method_name : method_ -> string

type verdict = {
  equivalent : bool;
  banyan : bool;  (** false forces [equivalent = false] *)
  detail : string;  (** human-readable reason *)
}

val by_independence : Mi_digraph.t -> verdict
(** Uses the analysis-backed fast paths: affine inference for the
    per-gap independence test ({!Connection.is_independent_fast}) and
    the symbolic D-matrix Banyan check when it applies
    ({!Banyan.symbolic_check} via {!Banyan.is_banyan}); falls back to
    enumeration on non-independent gaps. *)

val by_independence_any_split : Mi_digraph.t -> verdict
(** Like {!by_independence} but insensitive to the stored [(f, g)]
    decomposition: each gap is first re-split canonically
    ({!Connection.independent_split}), so a network whose arc
    structure admits independent connections passes even when its
    stored split is unlucky (e.g. after {!Mi_digraph.reverse}, whose
    arbitrary parent split usually destroys stored independence).
    Still only sufficient: relabelled networks whose graphs admit no
    independent decomposition at some gap must fall back to the
    characterization. *)

val by_characterization : Mi_digraph.t -> verdict

val by_isomorphism : ?limit:int -> Mi_digraph.t -> verdict
(** Two sound negatives run before the search.  First the Banyan
    test, computed once: the Baseline MI-digraph is Banyan, so a
    non-Banyan network is answered with the same verdict as
    {!by_characterization} gives it, without a fingerprint.  Then
    {!Fingerprint}: a mismatch against the Baseline is an immediate
    negative (on MI-digraphs every digraph isomorphism is
    stage-respecting), so the exhaustive search only runs on
    fingerprint-equal pairs — refutations, its most expensive
    outcomes, are mostly decided without search.  The Baseline record
    for each stage count is built once per process and shared, so its
    packed form and fingerprint are computed once. *)

val equivalent_enum : Mi_digraph.t -> bool
(** Enumeration-only characterization verdict
    ({!Packed.satisfies_characterization}: Banyan by the packed
    path-count DP, both [P] families by the packed flat-DSU census),
    bypassing every affine/symbolic fast path.  Always agrees with
    {!by_characterization}'s [equivalent] field (qcheck-enforced);
    exists as the isolated enumeration engine for benchmarking and
    agreement gates. *)

val decide : ?limit:int -> method_ -> Mi_digraph.t -> verdict

val equivalent_networks : ?limit:int -> method_ -> Mi_digraph.t -> Mi_digraph.t -> bool
(** Both equivalent to Baseline (equivalence is transitive through
    the Baseline class); for the [Isomorphism] method this tests the
    two digraphs against each other directly. *)
