(** Destination-tag ("bit-controlled") path setup on delta networks.

    On a delta network — every Baseline-equivalent network is one —
    the output terminal alone determines the port to take at each
    stage, independently of the input: the defining property of
    {!Mineq.Routing.schedule}.  A router tabulates that
    schedule into a per-stage control table once; setting up a path
    is then a single forward walk claiming one {!Plan} assignment
    per stage.  No backtracking exists in this model: the first
    occupied link the walk meets blocks the whole path, which is why
    Banyan networks block and the {!Planes} ensembles exist.

    The walk is allocation-free.  A blocked {!try_route} unwinds its
    partial path (re-walking the deterministic prefix and releasing
    each claim) and leaves the plan {e bit-identical} to its pre-call
    state: every cell's state word — occupancy masks and assignment
    fields alike — compares equal to a {!Plan.snapshot} taken before
    the call.  This is an invariant, not a best effort: the unwind
    re-derives the exact prefix the forward walk claimed (the control
    digits are deterministic in the output), and [Plan.release]
    restores each word to what a never-claimed cell holds.  A qcheck
    gate in the test suite routes, blocks and compares plan words so
    the invariant cannot silently rot.  {!route} additionally reports
    the contested link, allocating only the {!type-blocked} record and
    only on failure.

    Each input terminal may carry at most one path per plan.
    Re-routing an identical [(input, output)] pair is a harmless
    no-op, but routing one input toward two different outputs in the
    same plan is a caller error with unspecified plan state. *)

type t

val of_network : Mineq.Mi_digraph.t -> t option
(** [None] when the network is not delta (has no shared schedule).
    The schedule is {!Mineq.Routing.schedule} of a fresh
    {!Mineq.Mi_digraph.pack} of the network and the fabric
    {!Fabric.of_packed} of the same record, so nothing is cached on
    [g]. *)

val of_rnetwork : Mineq_radix.Rnetwork.t -> t option
(** Radix-[r] variant: the same construction on
    {!Mineq_radix.Rnetwork.packed}. *)

val of_fabric : Fabric.t -> schedule:int array -> t
(** Build from an explicit port-word schedule — [schedule.(o)] is
    the base-[radix] word whose most significant digit is the stage-1
    port toward output [o] (the {!Mineq.Routing.schedule}
    convention).  Raises [Invalid_argument] on size mismatch. *)

val fabric : t -> Fabric.t

val control : t -> stage:int -> output:int -> int
(** The out-port toward [output] at 0-based [stage]: the tabulated
    digit of the schedule word. *)

(** The contested link of a blocked path: the walk, arriving at
    [cell] of 0-based [stage], needed output port [port] and found
    it carrying another path.  ([stage = 0] with an occupied {e
    input} port — the same input routed twice to different outputs —
    reports the input port instead.) *)
type blocked = {
  input : int;
  output : int;
  stage : int;
  cell : int;
  port : int;
}

type outcome = Routed | Blocked of blocked

val try_route : t -> Plan.t -> input:int -> output:int -> bool
(** Claim the path's switch assignments stage by stage.  On the
    first conflict, release the partial path and return [false];
    the plan is unchanged.  Never allocates. *)

val route : t -> Plan.t -> input:int -> output:int -> outcome
(** Like {!try_route}, but a failure identifies the contested
    link.  Allocates only the [Blocked] record, only on failure. *)
