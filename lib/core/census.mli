(** Isomorphism-class census of MI-digraphs.

    The paper proves every independent-connection Banyan falls into
    {e one} class (the Baseline's).  The census machinery measures
    how many classes the rest of the Banyan universe occupies
    (experiment X15): sampling at [n = 3] finds a handful of classes,
    of which exactly one is the Baseline's.

    Classification is hash-bucketed: networks shard by their
    {!Fingerprint} (any two isomorphic networks share one), and the
    {!Iso_min} search runs only within a bucket.  The classified
    output is identical to exhaustive pairwise refinement — the
    fingerprint only prunes comparisons it has already refuted.
    {!classify_keyed} with a constant key is that pairwise
    refinement: the quadratic baseline the census bench measures the
    bucketing against. *)

type 'a classified = {
  representative : Mi_digraph.t;
  members : 'a list;  (** the tags of the instances in this class *)
}

val classify_keyed : key:(Mi_digraph.t -> 'k) -> (Mi_digraph.t * 'a) list -> 'a classified list
(** Group tagged networks by MI-digraph isomorphism ({!Iso_min}),
    bucketing by [key] first — [key] must be an isomorphism invariant
    (isomorphic networks map to equal keys, where equality is
    structural as used by [Hashtbl]); the search then runs only
    within a bucket.  Classes are ordered by first appearance in the
    input and members stay in input order, so the result is
    independent of the key used (the key only changes cost). *)

val classify : (Mi_digraph.t * 'a) list -> 'a classified list
(** {!classify_keyed} with the {!Fingerprint} key — the production
    census path. *)

val bucket_stats : (Mi_digraph.t * 'a) list -> int * int
(** [(buckets, classes)] for the fingerprint keying of the input:
    [buckets] distinct fingerprints against [classes] true iso
    classes.  Every class maps to one fingerprint, so
    [classes >= buckets] always; [classes - buckets > 0] counts
    fingerprint collisions (distinct classes sharing a bucket, each
    resolved by the within-bucket {!Iso_min} fallback).  The census
    bench reports the rate. *)

val class_count : Mi_digraph.t list -> int

val contains_baseline : 'a classified -> bool
(** Is this the Baseline's class? *)

val sample_banyan_census :
  Random.State.t -> n:int -> samples:int -> attempts:int -> int classified list
(** Draw up to [samples] random Banyan networks (each within
    [attempts] rejection attempts), classify them, and tag each member
    with its sample index.  The Baseline class is almost always
    present; the remainder estimates the diversity of non-equivalent
    Banyans. *)
