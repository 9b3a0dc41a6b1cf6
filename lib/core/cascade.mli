(** Rectangular stage cascades: like {!Mi_digraph} but without the
    square constraint (an MI-digraph must have exactly [width + 1]
    stages; a cascade may have any number of gaps over a fixed stage
    width).

    The motivating instance is the Benes network ({!Benes}): the
    [n]-stage Baseline followed by its mirror — [2n - 1] stages of
    [2^(n-1)] cells, which no MI-digraph can represent.  Cascades
    also let one study what happens to the Banyan property as stages
    accumulate (extra-stage networks trade the unique path for fault
    tolerance). *)

type t

val create : Connection.t list -> t
(** Non-empty, equal widths, every connection a valid MI stage. *)

val of_mi_digraph : Mi_digraph.t -> t

val to_mi_digraph : t -> Mi_digraph.t option
(** [Some] exactly when the cascade is square
    ([stages = width + 1]). *)

val stages : t -> int

val width : t -> int

val cells_per_stage : t -> int

val terminals : t -> int

val connection : t -> int -> Connection.t
(** 1-based gap index. *)

val connections : t -> Connection.t list

val concat : t -> t -> t
(** Output stage of the first glued to the input stage of the second
    (the shared stage is counted once); widths must agree. *)

val reverse : t -> t

val path_counts : t -> int array array
(** [counts.(u).(v)] = directed paths from stage-1 cell [u] to
    last-stage cell [v]. *)

val is_banyan : t -> bool
(** Unique paths — typically {e false} for cascades with more than
    [width + 1] stages (extra stages add path diversity). *)

(** {1 Path checking} *)

type route = { input : int; output : int; cells : int array }
(** A terminal-to-terminal route as the visited cell per stage. *)

val route_is_valid : t -> route -> bool
(** Endpoints attach correctly and every hop is an arc. *)

val link_disjoint : t -> route list -> bool
(** No two routes share an inter-stage arc slot or an output link.
    Routes on the same (from, to) cell pair conflict (all cascades
    built here are simple at each gap); terminal attachment links are
    implicitly disjoint per terminal. *)
