(* Shared measurement helpers for the bench executables.  Both
   artifact writers (analysis_bench, engine_bench) used to carry their
   own copy of the best-of-three timing loop; this module is the one
   copy, plus the allocation probe the packed-kernel rows report. *)

let smoke_requested () = Array.exists (String.equal "--smoke") Sys.argv

let output_path ~default =
  (* First [.json]-suffixed positional argument after the executable
     name, if any.  The old "first non-flag token" scan let the value
     of an option like [--trials 200] hijack the artifact path; only a
     token that names a JSON file can be the destination. *)
  let is_json s =
    String.length s > 5
    && s.[0] <> '-'
    && String.equal (String.sub s (String.length s - 5) 5) ".json"
  in
  let rec scan i =
    if i >= Array.length Sys.argv then default
    else if is_json Sys.argv.(i) then Sys.argv.(i)
    else scan (i + 1)
  in
  scan 1

let scaled_reps ~reps = if smoke_requested () then 1 else reps

let time_us ~reps f =
  (* Best of three batches, to damp scheduler noise. *)
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let t1 = Unix.gettimeofday () in
    (t1 -. t0) *. 1e6 /. float_of_int reps
  in
  let m1 = batch () in
  let m2 = batch () in
  let m3 = batch () in
  List.fold_left min m1 [ m2; m3 ]

let time_ms f =
  (* Best of three single runs, keeping the first run's result. *)
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    (r, (t1 -. t0) *. 1e3)
  in
  let r1, m1 = once () in
  let _, m2 = once () in
  let _, m3 = once () in
  (r1, List.fold_left min m1 [ m2; m3 ])

let minor_words_per_op ~reps f =
  (* One warmup call so lazy one-time setup (e.g. packing a network)
     is not billed to the per-op figure. *)
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int reps
