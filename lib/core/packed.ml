(* Zero-allocation enumeration kernels over the packed network
   representation (Mi_digraph.packed).  These are the hot loops behind
   the P(i,j) component census, the Banyan path-count fallback and the
   simulator's routing tables: everything runs on flat int arrays —
   no boxed child lists, no per-query hashtables, no per-arc tuples —
   and the per-query working memory can be supplied as a reusable
   scratch so a census over many stage windows allocates nothing after
   the first query.

   The kernels are radix-generic (stride-r child tables, r parents per
   cell); the binary case keeps a specialized fast path whose inner
   loops are unrolled over the two ports, so the r = 2 deciders pay
   nothing for the generalization. *)

type t = Mi_digraph.packed

let of_network = Mi_digraph.packed

let stages (p : t) = p.p_stages

let width (p : t) = p.p_width

let radix (p : t) = p.p_radix

let nodes_per_stage (p : t) = p.p_per

let total_nodes (p : t) = p.p_stages * p.p_per

let node_id (p : t) ~stage x = ((stage - 1) * p.p_per) + x

let node_of_id (p : t) id = ((id / p.p_per) + 1, id mod p.p_per)

let child (p : t) ~gap ~port x = p.p_child.(gap - 1).((p.p_radix * x) + port)

(* Binary port names: the [f]-child is port 0, the [g]-child port 1
   (only meaningful for [p_radix = 2], the Mi_digraph case). *)
let child_f (p : t) ~gap x = p.p_child.(gap - 1).(p.p_radix * x)

let child_g (p : t) ~gap x = p.p_child.(gap - 1).((p.p_radix * x) + 1)

(* The parents (as stage labels) of label [y] across [gap], in
   port-fill order.  In-degree is exactly [r], so all slots exist. *)
let parent (p : t) ~gap ~port y =
  p.p_pred.((p.p_radix * (((gap - 1) * p.p_per) + y)) + port) mod p.p_per

let parent_a (p : t) ~gap y = parent p ~gap ~port:0 y

let parent_b (p : t) ~gap y = parent p ~gap ~port:1 y

(* Scratch ---------------------------------------------------------- *)

(* All working arrays any kernel needs, sized once for the network:
   a flat DSU (parent + size) over dense node ids and two stage-wide
   int rows for the path-count DP.  One scratch serves any number of
   sequential queries; parallel workers each make their own. *)
type scratch = {
  parent : int array;
  size : int array;
  row_a : int array;
  row_b : int array;
}

let scratch (p : t) =
  let total = total_nodes p in
  { parent = Array.make (max 1 total) 0;
    size = Array.make (max 1 total) 0;
    row_a = Array.make (max 1 p.p_per) 0;
    row_b = Array.make (max 1 p.p_per) 0
  }

let check_window (p : t) ~lo ~hi =
  if lo < 1 || hi > p.p_stages || lo > hi then invalid_arg "Packed: bad stage range"

(* Component census ------------------------------------------------- *)

(* Flat union-find restricted to the dense-id range of stages
   [lo .. hi]: path-halving find, union by size, component count
   maintained by decrement, in a single pass over the child tables.
   [union_gaps] is shared by the count and labelling kernels; the
   binary fast path unrolls the two ports. *)
let union_gaps (p : t) ~lo ~hi union =
  let per = p.p_per in
  let r = p.p_radix in
  for gap = lo to hi - 1 do
    let ch = p.p_child.(gap - 1) in
    let src = (gap - 1) * per in
    let dst = gap * per in
    if r = 2 then
      for x = 0 to per - 1 do
        union (src + x) (dst + ch.(2 * x));
        union (src + x) (dst + ch.((2 * x) + 1))
      done
    else
      for x = 0 to per - 1 do
        let base = r * x in
        for j = 0 to r - 1 do
          union (src + x) (dst + ch.(base + j))
        done
      done
  done

let component_count ?scratch:s (p : t) ~lo ~hi =
  check_window p ~lo ~hi;
  let s = match s with Some s -> s | None -> scratch p in
  let per = p.p_per in
  let base = (lo - 1) * per in
  let stop = hi * per in
  let parent = s.parent and size = s.size in
  for id = base to stop - 1 do
    parent.(id) <- id;
    size.(id) <- 1
  done;
  let rec find x =
    let px = parent.(x) in
    if px = x then x
    else begin
      parent.(x) <- parent.(px);
      find parent.(x)
    end
  in
  let count = ref (stop - base) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let big, small = if size.(ra) >= size.(rb) then (ra, rb) else (rb, ra) in
      parent.(small) <- big;
      size.(big) <- size.(big) + size.(small);
      decr count
    end
  in
  union_gaps p ~lo ~hi union;
  !count

(* Component labels over a window, BFS-free: run the same DSU, then
   densify roots to [0 .. count-1] in first-touch order (ascending
   dense id — the same numbering the old subgraph BFS produced,
   because both scan vertices in ascending order).  [comp] is indexed
   window-relative: [comp.((stage - lo) * per + label)]. *)
let component_labels ?scratch:s (p : t) ~lo ~hi =
  check_window p ~lo ~hi;
  let s = match s with Some s -> s | None -> scratch p in
  let per = p.p_per in
  let base = (lo - 1) * per in
  let stop = hi * per in
  let parent = s.parent and size = s.size in
  for id = base to stop - 1 do
    parent.(id) <- id;
    size.(id) <- 1
  done;
  let rec find x =
    let px = parent.(x) in
    if px = x then x
    else begin
      parent.(x) <- parent.(px);
      find parent.(x)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let big, small = if size.(ra) >= size.(rb) then (ra, rb) else (rb, ra) in
      parent.(small) <- big;
      size.(big) <- size.(big) + size.(small)
    end
  in
  union_gaps p ~lo ~hi union;
  (* Densify: number components by their minimal member (ascending-id
     first touch), the same numbering the old ascending-vertex BFS
     produced. *)
  let window = stop - base in
  let comp = Array.make window (-1) in
  let count = ref 0 in
  for id = base to stop - 1 do
    let root = find id in
    if comp.(root - base) < 0 then begin
      comp.(root - base) <- !count;
      incr count
    end
  done;
  for id = base to stop - 1 do
    comp.(id - base) <- comp.(find id - base)
  done;
  (comp, !count)

(* Banyan path counting --------------------------------------------- *)

(* Per-source forward DP through the child tables with two reusable
   stage rows: [first_violation] scans sources (then sinks) in
   ascending order and reports the first (u, v, paths <> 1), matching
   the enumeration order of the historical matrix scan.  The old DP
   allocated a fresh row per source per gap (O(n r^n) arrays per
   check); this allocates nothing beyond the scratch.  One gap's
   advance, binary fast path unrolled: *)
let dp_advance (p : t) k cur next =
  let per = p.p_per in
  let r = p.p_radix in
  let ch = p.p_child.(k) in
  Array.fill next 0 per 0;
  if r = 2 then
    for x = 0 to per - 1 do
      let w = cur.(x) in
      if w > 0 then begin
        let a = ch.(2 * x) and b = ch.((2 * x) + 1) in
        next.(a) <- next.(a) + w;
        next.(b) <- next.(b) + w
      end
    done
  else
    for x = 0 to per - 1 do
      let w = cur.(x) in
      if w > 0 then begin
        let base = r * x in
        for j = 0 to r - 1 do
          let y = ch.(base + j) in
          next.(y) <- next.(y) + w
        done
      end
    done

let first_violation ?scratch:s (p : t) =
  let per = p.p_per in
  let n = p.p_stages in
  let s = match s with Some s -> s | None -> scratch p in
  let rec scan_sources u =
    if u = per then None
    else begin
      let cur = ref s.row_a and next = ref s.row_b in
      Array.fill !cur 0 per 0;
      !cur.(u) <- 1;
      for k = 0 to n - 2 do
        dp_advance p k !cur !next;
        let t = !cur in
        cur := !next;
        next := t
      done;
      let final = !cur in
      let rec scan_sinks v =
        if v = per then scan_sources (u + 1)
        else if final.(v) <> 1 then Some (u, v, final.(v))
        else scan_sinks (v + 1)
      in
      scan_sinks 0
    end
  in
  scan_sources 0

let path_count_matrix (p : t) =
  let per = p.p_per in
  let n = p.p_stages in
  let s = scratch p in
  Array.init per (fun u ->
      let cur = ref s.row_a and next = ref s.row_b in
      Array.fill !cur 0 per 0;
      !cur.(u) <- 1;
      for k = 0 to n - 2 do
        dp_advance p k !cur !next;
        let t = !cur in
        cur := !next;
        next := t
      done;
      Array.copy !cur)

(* Characterization ------------------------------------------------- *)

let expected_components (p : t) ~lo ~hi =
  check_window p ~lo ~hi;
  let rec pow acc k = if k = 0 then acc else pow (acc * p.p_radix) (k - 1) in
  pow 1 (p.p_stages - 1 - (hi - lo))

(* Banyan by the path-count DP, then both P families by the flat-DSU
   census, all on one scratch: the enumeration verdict of the
   characterization of [12], at any radix (the expected count comes
   from [p_radix]).  The affine fast paths are never consulted. *)
let satisfies_characterization (p : t) =
  let n = p.p_stages in
  let scratch = scratch p in
  Option.is_none (first_violation ~scratch p)
  &&
  let window_ok ~lo ~hi = component_count ~scratch p ~lo ~hi = expected_components p ~lo ~hi in
  let rec prefixes j = j > n || (window_ok ~lo:1 ~hi:j && prefixes (j + 1)) in
  let rec suffixes i = i > n || (window_ok ~lo:i ~hi:n && suffixes (i + 1)) in
  prefixes 1 && suffixes 1

(* Simulator routing tables ----------------------------------------- *)

(* For gap [k+1], a flat table indexed by [r * cell + out_port] whose
   entry encodes the downstream cell and the input-port index it
   enters on as [cell * r + in_port] (for [r = 2] this is the historic
   [(cell lsl 1) lor in_port]).  Port numbering follows the
   deterministic p_pred fill order (ascending source, ascending
   out-port), so it agrees with {!Mi_digraph.packed}'s predecessor
   slots. *)
let downstream (p : t) =
  let per = p.p_per in
  let r = p.p_radix in
  Array.init
    (p.p_stages - 1)
    (fun k ->
      let ch = p.p_child.(k) in
      let fill = Array.make per 0 in
      let table = Array.make (r * per) 0 in
      for x = 0 to per - 1 do
        for j = 0 to r - 1 do
          let c = ch.((r * x) + j) in
          let slot = fill.(c) in
          fill.(c) <- slot + 1;
          table.((r * x) + j) <- (c * r) + slot
        done
      done;
      table)
