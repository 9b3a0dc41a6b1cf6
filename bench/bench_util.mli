(** Shared measurement helpers for the bench executables. *)

val smoke_requested : unit -> bool
(** [true] when [--smoke] appears in [Sys.argv]: the bench should run
    a tiny iteration budget (CI crash/format check, not a
    measurement). *)

val output_path : default:string -> string
(** First [.json]-suffixed positional argument, or [default]: where
    the JSON artifact goes.  Restricting to [.json] names keeps
    option values (e.g. the [200] of [--trials 200]) from being
    mistaken for the destination. *)

val scaled_reps : reps:int -> int
(** The repetition budget: [1] under [--smoke], else [reps]. *)

val time_us : reps:int -> (unit -> 'a) -> float
(** Mean microseconds per call over [reps] calls, best of three
    batches (damps scheduler noise on shared runners). *)

val time_ms : (unit -> 'a) -> 'a * float
(** [(result, milliseconds)] of a single call, best of three runs;
    the result is from the first run. *)

val minor_words_per_op : reps:int -> (unit -> 'a) -> float
(** Minor-heap words allocated per call, averaged over [reps] calls
    after one unbilled warmup call (so one-time lazy setup, e.g.
    packing a network, is excluded). *)
