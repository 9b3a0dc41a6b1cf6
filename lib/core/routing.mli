(** Paths and destination-tag routing through MI-digraphs, binary and
    radix-[r].

    The [N = r^n] inputs attach [r] per node to stage 1 (input [i]
    enters cell [i / r] on port [i mod r]) and likewise the outputs
    leave stage [n].  On a Banyan network the input-output path is
    unique; PIPID-built networks additionally support "very simple bit
    directed routing" (paper, Sections 1 and 4): at each stage the
    out-port is a fixed digit of the destination — the delta property
    of Kruskal and Snir.

    Two kernels over the stride-[r] child tables of
    {!Mi_digraph.packed} do the work for every radix: {!walk}, the
    single-pair path, and {!port_words}, one enumeration of the port
    words from each source cell.  The delta schedule and the
    delta/bidelta checks, [Mineq_route.Bit_follow]'s control table and
    [Mineq_sim.Network_sim]'s per-cell routing words all come from
    that enumeration.  Binary networks use the [Mi_digraph.t]
    wrappers below; radix-[r] networks pass
    [Mineq_radix.Rnetwork.packed g] to the kernels.  The module also
    analyses link conflicts of permutation traffic (used by
    [Mineq_sim]). *)

type path = {
  input : int;  (** terminal id, [0 .. r^n - 1] *)
  output : int;
  cells : int array;  (** visited cell label at each stage, length [n] *)
  ports : int array;  (** out-port chosen at stages [1 .. n-1], then the output port *)
}

(** {1 Packed kernels (any radix)} *)

val walk : Mi_digraph.packed -> input:int -> output:int -> path option
(** The unique input-to-output path, or [None] if there is no path:
    backward reachability of the output cell, then a forward walk.
    Raises [Failure] if there are several (non-Banyan), and
    [Invalid_argument] on a terminal outside [0 .. r^n - 1]. *)

val port_words : Mi_digraph.packed -> int array array
(** [w.(c).(o)]: the port word from source cell [c] to output
    terminal [o] — the path's [ports] as base-[r] digits, stage-1
    choice most significant and the output port last.  Raises
    [Failure] if some source cell reaches an output cell twice or
    never (non-Banyan). *)

val schedule : Mi_digraph.packed -> int array option
(** When delta: for each output terminal, the port word every source
    cell shares ({!port_words} rows all equal); [None] otherwise,
    non-Banyan networks included. *)

(** {1 Binary networks} *)

val route : Mi_digraph.t -> input:int -> output:int -> path option
(** {!walk} on the packed network. *)

val port_word : path -> int
(** The port choices packed into an integer, stage-1 choice as the
    {e most} significant bit and the output port as bit 0 — on a delta
    network this is a function of [output] only. *)

val delta_schedule : Mi_digraph.t -> int array option
(** {!schedule} on the packed network. *)

val is_delta : Mi_digraph.t -> bool
(** Every output is reached by the same port word from every input. *)

val is_bidelta : Mi_digraph.t -> bool
(** Delta in both directions (Kruskal–Snir): [is_delta] of the
    network and of its reverse. *)

(** {1 Permutation traffic analysis} *)

type conflict_report = {
  max_link_load : int;
  conflicted_links : int;  (** links carrying more than one path *)
  paths_routed : int;
}

val link_loads : Mi_digraph.t -> (int * int) list -> conflict_report
(** [(input, output)] pairs, each routed on its unique path; loads
    counted on every inter-stage link and on the output links.
    Non-routable pairs are ignored (and not counted in
    [paths_routed]). *)

val is_admissible : Mi_digraph.t -> (int * int) list -> bool
(** The pairs can be routed simultaneously without sharing any link
    ([max_link_load <= 1]). *)

val admissible_fraction :
  Random.State.t -> Mi_digraph.t -> samples:int -> float
(** Monte-Carlo estimate of the fraction of full permutations that
    are admissible (a classic MIN figure of merit; Omega passes
    exactly [2^...] of them — see the experiments). *)
