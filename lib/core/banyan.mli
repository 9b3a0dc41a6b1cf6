(** The Banyan property (paper, Section 2): between any input and any
    output there is exactly one path.

    Inputs and outputs attach to the first and last stages (two per
    node) and play no role in the digraph, so the property reduces to:
    for every node [u] of stage 1 and every node [v] of stage [n],
    there is exactly one directed path from [u] to [v]. *)

type violation = {
  source : Mineq_bitvec.Bv.t;  (** stage-1 node label *)
  sink : Mineq_bitvec.Bv.t;  (** stage-n node label *)
  paths : int;  (** the offending path count ([0] or [>= 2]) *)
}

val path_count_matrix : Mi_digraph.t -> int array array
(** [m.(u).(v)] = number of stage-1-node-[u] to stage-n-node-[v]
    paths.  Parallel arcs (double links) count separately.  Computed
    over the packed child tables ({!Packed.path_count_matrix}). *)

val is_banyan : Mi_digraph.t -> bool
(** Tries {!symbolic_check} first and falls back to the path-count
    enumeration when some gap is not independent. *)

val check : Mi_digraph.t -> (unit, violation) result
(** Like {!is_banyan} but produces the first violation found (row
    major), always by path-count enumeration — the packed DP of
    {!Packed.first_violation}. *)

val symbolic_check : Mi_digraph.t -> (unit, violation) result option
(** O(n^3) decision for networks whose every gap is independent
    (affine with a shared linear part [B_j]): the port word
    [p in {0,1}^(n-1)] reaches stage-n node
    [M u xor base xor D p], so the digraph is Banyan iff the GF(2)
    matrix [D] — column [j] is [B_{n-1}..B_{j+1}(cf_j xor cg_j)] — is
    invertible.  [None] when some gap is not independent (no symbolic
    verdict; use {!check}).  A [Some (Error _)] violation carries a
    concrete zero-path source/sink witness (not necessarily the
    row-major first one {!check} reports).  Agreement with {!check}
    is qcheck-enforced. *)

val pp_violation : Format.formatter -> violation -> unit
