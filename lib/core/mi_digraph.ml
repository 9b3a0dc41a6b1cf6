module Bv = Mineq_bitvec.Bv
module Digraph = Mineq_graph.Digraph

(* Packed representation: the whole network compiled once into flat
   int arrays so the enumeration deciders (component census, Banyan
   path counting, isomorphism refinement, per-packet routing) run with
   no per-arc allocation.  The record is radix-generic: stages of
   [r^(n-1)] cells whose labels are [(n-1)]-digit words in base [r]
   ([r = 2] for this module's own networks, arbitrary [r >= 2] for
   lib/radix).  Node ids are dense and stage-major:
   [id = (stage - 1) * r^(n-1) + label].

   The successor/predecessor adjacency is CSR with {e implicit}
   offsets: every non-boundary node has out-degree and in-degree
   exactly [r] (enforced by {!create} / {!pack_tables}), so the offset
   array of a general CSR degenerates to the constant stride [r] and
   only the target arrays are stored.  [p_succ] holds, for each node
   of stages [1 .. n-1], its [r] children as dense ids in port order
   (for [r = 2]: the [f]-child first); [p_pred] holds, for each node
   of stages [2 .. n], its [r] parents as dense ids, in deterministic
   fill order (ascending source label, ascending out-port — for
   [r = 2]: [f] before [g]) — the same order the simulator uses to
   number a cell's input ports.  [p_child] is the per-gap child table
   on stage labels, interleaved by port: [p_child.(k).(r * x + j)] is
   the [h_j]-child of label [x] across gap [k+1], for kernels that
   work stage-relative. *)
type packed = {
  p_stages : int;
  p_width : int;
  p_radix : int;
  p_per : int;
  p_child : int array array;
  p_succ : int array;
  p_pred : int array;
}

type t = {
  width : int;
  conns : Connection.t array;
  mutable packed_cache : packed option;
  mutable fp_cache : (int * int) option;
  mutable hash_cache : int option;
}

let make ~width conns =
  { width; conns; packed_cache = None; fp_cache = None; hash_cache = None }

let stages g = Array.length g.conns + 1

let width g = g.width

let nodes_per_stage g = Bv.universe_size ~width:g.width

let total_nodes g = stages g * nodes_per_stage g

let inputs g = 2 * nodes_per_stage g

let single_stage ~width =
  if width < 0 then invalid_arg "Mi_digraph.single_stage: negative width";
  make ~width [||]

let create conns =
  match conns with
  | [] -> invalid_arg "Mi_digraph.create: empty connection list (use single_stage)"
  | c0 :: rest ->
      let w = Connection.width c0 in
      List.iter
        (fun c ->
          if Connection.width c <> w then invalid_arg "Mi_digraph.create: width mismatch")
        rest;
      (* The paper requires stage count n and 2^(n-1) nodes per stage:
         with k connections we get n = k + 1 stages, so the width must
         be n - 1 = k... no: the width is a free parameter of the node
         labelling; the MI-digraph definition ties them.  Enforce it. *)
      let n = List.length conns + 1 in
      if w <> n - 1 then
        invalid_arg
          (Printf.sprintf
             "Mi_digraph.create: %d connections need width %d (2^(n-1) nodes per stage), got \
              %d"
             (n - 1) (n - 1) w);
      List.iter
        (fun c ->
          if not (Connection.is_mi_stage c) then
            invalid_arg "Mi_digraph.create: a connection violates the in-degree-2 requirement")
        conns;
      make ~width:w (Array.of_list conns)

let connection g i =
  if i < 1 || i > Array.length g.conns then invalid_arg "Mi_digraph.connection: bad gap index";
  g.conns.(i - 1)

let connections g = Array.to_list g.conns

let children g ~stage x =
  if stage < 1 || stage >= stages g then invalid_arg "Mi_digraph.children: bad stage";
  Connection.children g.conns.(stage - 1) x

let parents g ~stage x =
  if stage <= 1 || stage > stages g then invalid_arg "Mi_digraph.parents: bad stage";
  Connection.parents g.conns.(stage - 2) x

let reverse g =
  if Array.length g.conns = 0 then g
  else begin
    let rev = Array.map Connection.reverse_any g.conns in
    let m = Array.length rev in
    make ~width:g.width (Array.init m (fun i -> rev.(m - 1 - i)))
  end

(* Packing ---------------------------------------------------------- *)

let pack_tables ~stages:n ~radix ~width ~child =
  if radix < 2 then invalid_arg "Mi_digraph.pack_tables: radix must be >= 2";
  if width < 0 then invalid_arg "Mi_digraph.pack_tables: negative width";
  if n < 1 then invalid_arg "Mi_digraph.pack_tables: need stages >= 1";
  if n > 1 && n <> width + 1 then
    invalid_arg "Mi_digraph.pack_tables: need stages = width + 1";
  let per = ref 1 in
  for _ = 1 to width do
    if !per > max_int / radix then invalid_arg "Mi_digraph.pack_tables: radix^width overflows";
    per := !per * radix
  done;
  let per = !per in
  let gaps = n - 1 in
  let p_child =
    Array.init gaps (fun k ->
        Array.init (radix * per) (fun i ->
            let x = i / radix and j = i mod radix in
            let y = child ~gap:(k + 1) ~port:j x in
            if y < 0 || y >= per then
              invalid_arg "Mi_digraph.pack_tables: child label out of range";
            y))
  in
  let p_succ = Array.make (radix * gaps * per) 0 in
  let p_pred = Array.make (radix * gaps * per) 0 in
  let fill = Array.make per 0 in
  for k = 0 to gaps - 1 do
    let ch = p_child.(k) in
    let base_src = k * per in
    let base_dst = (k + 1) * per in
    Array.fill fill 0 per 0;
    for x = 0 to per - 1 do
      for j = 0 to radix - 1 do
        let c = ch.((radix * x) + j) in
        p_succ.((radix * (base_src + x)) + j) <- base_dst + c;
        (* Predecessor slots of the stage-(k+2) node [c] live at
           [radix * (k * per + label)]: each gap has exactly
           [radix * per] arcs, so no cell exceeding in-degree [radix]
           means every cell hits it exactly — the slots are always
           filled, ascending source label and out-port per source. *)
        let slot = fill.(c) in
        if slot >= radix then
          invalid_arg "Mi_digraph.pack_tables: a cell exceeds in-degree radix";
        p_pred.((radix * ((k * per) + c)) + slot) <- base_src + x;
        fill.(c) <- slot + 1
      done
    done
  done;
  { p_stages = n; p_width = width; p_radix = radix; p_per = per; p_child; p_succ; p_pred }

let pack g =
  pack_tables ~stages:(stages g) ~radix:2 ~width:g.width
    ~child:(fun ~gap ~port x ->
      let c = g.conns.(gap - 1) in
      if port = 0 then Connection.f c x else Connection.g c x)

let packed g =
  match g.packed_cache with
  | Some p -> p
  | None ->
      let p = pack g in
      (* Benign race under Domains: packing is deterministic, so
         concurrent builders store equal values and either wins. *)
      g.packed_cache <- Some p;
      p

(* Fingerprint cache slot.  The slot lives here (rather than in
   Fingerprint's own table) so it dies with the record, but this
   module never computes fingerprints — Fingerprint owns the halves'
   meaning.  Same benign race as [packed_cache]: the computation is
   deterministic, so concurrent writers store equal pairs. *)

let fingerprint_cache g = g.fp_cache

let set_fingerprint_cache g fp = g.fp_cache <- Some fp

(* Structural-hash cache slot: the same arrangement for the memo's
   bucket hash, which [Mineq_engine.Memo] owns and computes. *)

let structural_hash_cache g = g.hash_cache

let set_structural_hash_cache g h = g.hash_cache <- Some h

let digraph_of_packed p =
  let per = p.p_per in
  let r = p.p_radix in
  (* Successor arrays straight from the packed child tables, no
     intermediate arc list. *)
  let succ =
    Array.init (p.p_stages * per) (fun v ->
        let s = v / per in
        if s = p.p_stages - 1 then [||]
        else begin
          let ch = p.p_child.(s) in
          let base = (s + 1) * per in
          let x = v mod per in
          Array.init r (fun j -> base + ch.((r * x) + j))
        end)
  in
  Digraph.of_succ succ

let to_digraph g = digraph_of_packed (packed g)

let equal a b =
  stages a = stages b
  && width a = width b
  && Array.for_all2 Connection.equal_graph a.conns b.conns

let relabel g rename =
  let per = nodes_per_stage g in
  let n = stages g in
  let maps =
    Array.init n (fun s ->
        let stage = s + 1 in
        let img = Array.init per (fun x -> rename ~stage x) in
        let seen = Array.make per false in
        Array.iter
          (fun v ->
            if v < 0 || v >= per || seen.(v) then
              invalid_arg "Mi_digraph.relabel: not a bijection on a stage";
            seen.(v) <- true)
          img;
        img)
  in
  let inv =
    Array.map
      (fun img ->
        let inv = Array.make per 0 in
        Array.iteri (fun i v -> inv.(v) <- i) img;
        inv)
      maps
  in
  let conns =
    Array.mapi
      (fun k c ->
        (* Gap k joins stage k+1 (index k) to stage k+2 (index k+1):
           new_f(y) = map_{k+1}(f(inv_k(y))). *)
        Connection.make ~width:g.width
          ~f:(fun y -> maps.(k + 1).(Connection.f c inv.(k).(y)))
          ~g:(fun y -> maps.(k + 1).(Connection.g c inv.(k).(y))))
      g.conns
  in
  make ~width:g.width conns

let map_gaps g f = create (List.mapi (fun i c -> f (i + 1) c) (Array.to_list g.conns))

let is_valid g =
  (width g = stages g - 1 || Array.length g.conns = 0)
  && Array.for_all Connection.is_mi_stage g.conns

let pp ppf g =
  Format.fprintf ppf "@[<v>MI-digraph: %d stages, %d nodes per stage@," (stages g)
    (nodes_per_stage g);
  Array.iteri
    (fun i c -> Format.fprintf ppf "gap %d -> %d:@,  %a@," (i + 1) (i + 2) Connection.pp c)
    g.conns;
  Format.fprintf ppf "@]"
