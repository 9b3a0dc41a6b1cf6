(* Seeded workload inputs for the perfbench benchmark.

   Everything the program under test receives -- network names, inline
   spec text, spec files, one-shot command lines and the open-loop
   send schedule -- is derived here from the workload seed, so one
   seed reproduces a run exactly.  pb_ref (the answer oracle) and
   pb_trace (the traced in-process replay) both build their inputs
   through this module.

   Mixes are stratified: each op (and each network family / size
   within an op) gets an exact share of the requests, then the list is
   shuffled by the seed.  Seeds change which networks are drawn and in
   what order, never how much of each kind of work a run holds, which
   keeps run-to-run spread down. *)

open Mineq
module Seeds = Mineq_engine.Seeds

let stream ~seed purpose = Seeds.derive ~root:(Seeds.fold seed purpose) 0

(* The CLI's network-name grammar, for computing references on the
   same network the program builds from a name.  A copy, so that no
   reference is resolved through the code under test. *)
let network_of_name name ~n =
  match Classical.of_name name with
  | Some kind -> Classical.network kind ~n
  | None -> (
      let seeded s = Seeds.state (int_of_string s) in
      match String.split_on_char ':' name with
      | [ "random"; s ] -> Link_spec.random_network (seeded s) ~n
      | [ "pipid"; s ] -> Link_spec.random_pipid_network (seeded s) ~n
      | [ "buddy"; s ] -> Counterexample.random_buddy_network (seeded s) ~n
      | _ -> invalid_arg ("pb_work: unknown network name " ^ name))

let is_classical name = Option.is_some (Classical.of_name name)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Exact counts by largest remainder: [count] items split over [mix]
   shares, each label repeated its count times, in mix order. *)
let apportion ~count mix =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
  let exact = List.map (fun (l, w) -> (l, float_of_int count *. w /. total)) mix in
  let floors = List.map (fun (l, x) -> (l, int_of_float x, x -. Float.of_int (int_of_float x))) exact in
  let assigned = List.fold_left (fun acc (_, k, _) -> acc + k) 0 floors in
  let by_remainder =
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) floors
    |> List.mapi (fun i (l, _, _) -> (l, i < count - assigned))
  in
  List.concat_map
    (fun (l, k, _) ->
      let extra = if List.assoc l by_remainder then 1 else 0 in
      List.init (k + extra) (fun _ -> l))
    floors

(* Round-robin over [cells] within each label's block, so every label
   sees every cell in equal measure. *)
let with_cells labels cells =
  let cells = Array.of_list cells in
  let seen = Hashtbl.create 8 in
  List.map
    (fun l ->
      let k = Option.value (Hashtbl.find_opt seen l) ~default:0 in
      Hashtbl.replace seen l (k + 1);
      (l, cells.(k mod Array.length cells)))
    labels

(* "a=0.6,b:x=0.4" -> [(("a", None), 0.6); (("b", Some "x"), 0.4)]. *)
let parse_mix text =
  List.map
    (fun item ->
      match String.split_on_char '=' item with
      | [ label; share ] -> (
          let share = float_of_string share in
          match String.split_on_char ':' label with
          | [ op ] -> ((op, None), share)
          | [ op; m ] -> ((op, Some m), share)
          | _ -> invalid_arg ("pb_work: bad mix label " ^ label))
      | _ -> invalid_arg ("pb_work: bad mix item " ^ item))
    (String.split_on_char ',' text)

(* JSON ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Serve requests ------------------------------------------------------ *)

type target =
  | Named of string * int  (** network name, stage count *)
  | Inline of string  (** spec-file text *)

type request = { id : int; op : string; method_ : string option; target : target }

let payload r =
  let b = Buffer.create 256 in
  Printf.bprintf b "{\"id\":%d,\"op\":%s" r.id (json_string r.op);
  Option.iter (fun m -> Printf.bprintf b ",\"method\":%s" (json_string m)) r.method_;
  (match r.target with
  | Named (name, n) -> Printf.bprintf b ",\"network\":%s,\"n\":%d" (json_string name) n
  | Inline text -> Printf.bprintf b ",\"spec\":%s" (json_string text));
  Buffer.add_char b '}';
  Buffer.contents b

(* The network a request resolves to, built the way the daemon builds
   it (inline text goes through the spec parser). *)
let network_of_target = function
  | Named (name, n) -> network_of_name name ~n
  | Inline text -> (
      match Spec_io.of_string text with
      | Ok g -> g
      | Error e -> failwith ("pb_work: generated spec does not parse: " ^ Spec_io.error_to_string e))

(* serve_hot: a Zipf-ranked pool of named networks.  The six classical
   families at n = 4..8 hold the top ranks; seeded random/PIPID/buddy
   tails at n = 4..6 follow. *)
let zipf_s = 1.1

let hot_pool ~seed =
  let classical =
    List.concat_map
      (fun n -> List.map (fun k -> (Classical.name k, n)) Classical.all_kinds)
      [ 4; 5; 6; 7; 8 ]
  in
  let st = stream ~seed 11 in
  let tail =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun (prefix, count) ->
            List.init count (fun _ ->
                (Printf.sprintf "%s:%d" prefix (Random.State.bits st), n)))
          [ ("random", 10); ("pipid", 8); ("buddy", 6) ])
      [ 4; 5; 6 ]
  in
  Array.of_list (classical @ tail)

let zipf_cdf size =
  let w = Array.init size (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  cdf.(size - 1) <- 1.0;
  cdf

let zipf_draw cdf st =
  let u = Random.State.float st 1.0 in
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
  in
  bisect 0 (Array.length cdf - 1)

(* [count] requests, ids from [first]; [purpose] separates the closed
   and open phases' draw streams.  [mix] gives each op's share. *)
let hot_requests ~seed ~mix ~purpose ~first ~count =
  let pool = hot_pool ~seed in
  let cdf = zipf_cdf (Array.length pool) in
  let st = stream ~seed purpose in
  let ops = Array.of_list (apportion ~count mix) in
  shuffle st ops;
  Array.mapi
    (fun i (op, method_) ->
      let name, n = pool.(zipf_draw cdf st) in
      { id = first + i; op; method_; target = Named (name, n) })
    ops

(* serve_cold: every request carries inline spec text for a network
   the daemon has not seen. *)
type family = Random_links | Pipid | Buddy | Relabelled_baseline

let families = [ Random_links; Pipid; Buddy; Relabelled_baseline ]

let build_family st family ~n =
  match family with
  | Random_links -> Link_spec.random_network st ~n
  | Pipid -> Link_spec.random_pipid_network st ~n
  | Buddy -> Counterexample.random_buddy_network st ~n
  | Relabelled_baseline -> Counterexample.relabelled_equivalent st (Baseline.network n)

(* Known defects at this commit, which would otherwise stall a run
   for minutes (a daemon cannot abort a running request):
   - [Equivalence.by_isomorphism] searches for seconds to minutes on
     Baseline-class networks whose labels are not PIPID once n >= 6.
     Its refutations are fingerprint mismatches and stay cheap.  So
     isomorphism-method inputs draw such networks at n = 5 and redraw
     equivalent non-PIPID draws at n >= 6.
   - [Iso_min.find] (the CLI's [iso]) has no fingerprint prefilter:
     refuting a non-isomorphic pair costs ~20 ms (worst 200 ms) at
     n = 5 and minutes at n >= 6.  So [iso] pairs a classical network
     with a seeded one at n = 4 only, and with another classical one
     at every size. *)
let search_size family n = if family = Relabelled_baseline then min n 5 else n

let rec searchable_draw st family ~n =
  let g = build_family st family ~n in
  if n >= 6 && family <> Pipid && Equivalence.equivalent_enum g then
    searchable_draw st family ~n
  else g

let cold_requests ~seed ~mix ~purpose ~first ~count =
  let cells = List.concat_map (fun f -> [ (f, 6); (f, 7) ]) families in
  let st = stream ~seed purpose in
  let items = Array.of_list (with_cells (apportion ~count mix) cells) in
  shuffle st items;
  Array.mapi
    (fun i ((op, method_), (family, n)) ->
      let g =
        if method_ = Some "isomorphism" then searchable_draw st family ~n:(search_size family n)
        else build_family st family ~n
      in
      { id = first + i; op; method_; target = Inline (Spec_io.to_string g) })
    items

let requests ~workload ~seed ~mix ~phase ~first ~count =
  let purpose = match phase with `Closed -> 21 | `Open -> 22 in
  match workload with
  | "serve_hot" -> hot_requests ~seed ~mix ~purpose ~first ~count
  | "serve_cold" -> cold_requests ~seed ~mix ~purpose ~first ~count
  | w -> invalid_arg ("pb_work: not a serve workload: " ^ w)

(* Every (pool network, cached op) pair once: the untimed pass whose
   shutdown snapshot warm-boots serve_hot's daemons. *)
let hot_priming ~seed =
  let pool = hot_pool ~seed in
  Array.concat
    (List.mapi
       (fun k op ->
         Array.mapi
           (fun i (name, n) ->
             { id = (k * Array.length pool) + i; op; method_ = None; target = Named (name, n) })
           pool)
       [ "equiv"; "lint"; "blocking" ])

(* Open-loop arrivals: a Poisson process at [rate] per second, as send
   offsets in microseconds from the phase start. *)
let poisson_schedule ~seed ~rate ~count =
  let st = stream ~seed 31 in
  let t = ref 0.0 in
  Array.init count (fun _ ->
      let u = Random.State.float st 1.0 in
      t := !t +. (-.Float.log (1.0 -. u) /. rate *. 1e6);
      !t)

(* Offline jobs ---------------------------------------------------------- *)

type job =
  | Equiv of string * int * string  (** network, n, method *)
  | Check of string * int
  | Iso of string * string * int
  | Route of string * int * int * int  (** network, n, source, dest *)
  | Perm of int * int  (** Benes n, permutation seed *)
  | Lint of string * string  (** spec file name, spec text *)
  | Census of { n : int; specs : int; seed : int }
  | Churn of { n : int; ops : int; seed : int }
  | Simulate of { n : int; cycles : int; seed : int }

let argv = function
  | Equiv (name, n, m) -> [ "equiv"; name; "-n"; string_of_int n; "-m"; m ]
  | Check (name, n) -> [ "check"; name; "-n"; string_of_int n ]
  | Iso (a, b, n) -> [ "iso"; a; b; "-n"; string_of_int n ]
  | Route (name, n, s, d) ->
      [ "route"; name; "-n"; string_of_int n; "-s"; string_of_int s; "-d"; string_of_int d ]
  | Perm (n, s) -> [ "route"; "benes"; "-n"; string_of_int n; "--perm"; Printf.sprintf "random:%d" s ]
  | Lint (file, _) -> [ "lint"; "--json"; file ]
  | Census { n; specs; seed } ->
      [ "census"; "--stream"; "-n"; string_of_int n; "--generator"; "pipid"; "--jobs"; "2";
        "--specs"; string_of_int specs; "--seed"; string_of_int seed ]
  | Churn { n; ops; seed } ->
      [ "route"; "benes"; "-n"; string_of_int n; "--churn"; Printf.sprintf "%d:%d" ops seed;
        "--jobs"; "1" ]
  | Simulate { n; cycles; seed } ->
      [ "simulate"; "omega"; "-n"; string_of_int n; "--cycles"; string_of_int cycles; "--seed";
        string_of_int seed ]

let kind = function
  | Equiv _ -> "equiv"
  | Check _ -> "check"
  | Iso _ -> "iso"
  | Route _ -> "route"
  | Perm _ -> "perm"
  | Lint _ -> "lint"
  | Census _ -> "census"
  | Churn _ -> "churn"
  | Simulate _ -> "simulate"

let classical_names = List.map Classical.name Classical.all_kinds

(* The one-shot calls, [mix] giving each command's share.  Stage ranges
   per command keep every call in the milliseconds: [check] and the
   isomorphism deciders grow steeply past n = 7..8. *)
let oneshots ~seed ~mix ~count =
  let st = stream ~seed 41 in
  let seeded () =
    let prefix = [| "random"; "pipid"; "buddy" |].(Random.State.int st 3) in
    Printf.sprintf "%s:%d" prefix (Random.State.bits st)
  in
  let classical () = List.nth classical_names (Random.State.int st 6) in
  let any () = if Random.State.bool st then classical () else seeded () in
  (* See [search_size] for why searches draw what they draw. *)
  let rec searchable n =
    let name = any () in
    if n >= 6 && (not (is_classical name))
       && (not (String.starts_with ~prefix:"pipid:" name))
       && Equivalence.equivalent_enum (network_of_name name ~n)
    then searchable n
    else name
  in
  let sizes lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let ranges =
    [ ("equiv-characterization", sizes 4 10);
      ("equiv-independence", sizes 4 10);
      ("equiv-isomorphism", sizes 4 7);
      ("check", sizes 4 7);
      ("iso", sizes 4 8);
      ("route", sizes 4 10);
      ("perm", sizes 4 10);
      ("lint", sizes 4 7)
    ]
  in
  let labels = apportion ~count mix in
  let seen = Hashtbl.create 8 in
  let jobs =
    List.map
      (fun label ->
        let k = Option.value (Hashtbl.find_opt seen label) ~default:0 in
        Hashtbl.replace seen label (k + 1);
        let range =
          Array.of_list (Option.value (List.assoc_opt label ranges) ~default:[ 4 ])
        in
        let n = range.(k mod Array.length range) in
        match label with
        | "equiv-characterization" -> Equiv (any (), n, "characterization")
        | "equiv-independence" -> Equiv (any (), n, "independence")
        | "equiv-isomorphism" -> Equiv (searchable n, n, "isomorphism")
        | "check" -> Check (any (), n)
        | "iso" -> Iso (classical (), (if n <= 4 then any () else classical ()), n)
        | "route" ->
            let t = 1 lsl n in
            Route (classical (), n, Random.State.int st t, Random.State.int st t)
        | "perm" -> Perm (n, Random.State.bits st)
        | "lint" ->
            let g =
              if Random.State.bool st then
                Counterexample.relabelled_equivalent st (Baseline.network n)
              else build_family st (List.nth families (Random.State.int st 3)) ~n
            in
            Lint (Printf.sprintf "lint_%d.min" k, Spec_io.to_string g)
        | other -> invalid_arg ("pb_work: unknown one-shot command " ^ other))
      labels
    |> Array.of_list
  in
  shuffle st jobs;
  jobs

(* The batch jobs, sized to comparable run times so each moves their
   total in similar measure. *)
let batch ~seed =
  let s = Seeds.fold seed 51 land 0x3fffffff in
  [| Census { n = 6; specs = 1600; seed = s };
     Churn { n = 10; ops = 24000; seed = s };
     Simulate { n = 8; cycles = 1200; seed = s }
  |]
