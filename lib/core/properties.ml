module Bv = Mineq_bitvec.Bv
module Gf2 = Mineq_bitvec.Gf2_matrix
module Subspace = Mineq_bitvec.Subspace

let expected_components g ~lo ~hi =
  let n = Mi_digraph.stages g in
  if lo < 1 || hi > n || lo > hi then invalid_arg "Properties: bad stage range";
  1 lsl (n - 1 - (hi - lo))

(* Enumeration census: flat union-find over the packed child tables
   (Packed.component_count), no arc materialization. *)

let component_count g ~lo ~hi = Packed.component_count (Mi_digraph.packed g) ~lo ~hi

(* Symbolic fast path.  On independent gaps — children
   [B x xor cf, B x xor cg] — the stage-lo slice of any component of
   [(G)_{lo..hi}] is a coset of a subspace [S_lo] obtained by the
   downward recursion

     S_hi = {0},   S_j = B_j^{-1}( span(S_{j+1} + {delta_j}) )

   ([delta_j = cf_j xor cg_j]): two stage-j nodes land in one
   component iff their difference maps under [B_j] into the merged
   space one gap later (sharing a child exactly, sharing it modulo
   [S_{j+1}], or through the other port, [delta_j] away) — and chains
   of such steps span.  Every component meets stage lo (in-degree 2
   everywhere inside the window), so the component count is
   [2^(width - dim S_lo)], computed in O((hi-lo) poly(width)) instead
   of traversing the [2^width]-node window. *)

let shared_form c =
  match Connection.affine_pair c with
  | Some ((bf, cf), (bg, cg)) when Gf2.equal bf bg -> Some (bf, cf lxor cg)
  | _ -> None

let component_count_affine g ~lo ~hi =
  let n = Mi_digraph.stages g in
  if lo < 1 || hi > n || lo > hi then invalid_arg "Properties: bad stage range";
  let width = Mi_digraph.width g in
  let rec forms acc j =
    if j < lo then Some acc
    else
      match shared_form (Mi_digraph.connection g j) with
      | None -> None
      | Some f -> forms (f :: acc) (j - 1)
  in
  (* [forms] collects gaps lo..hi-1 in ascending order; the reversed
     fold walks hi-1 down to lo, the recursion order. *)
  match forms [] (hi - 1) with
  | None -> None
  | Some forms ->
      let s =
        List.fold_left
          (fun s (b, delta) -> Subspace.preimage b (Subspace.add_vector s delta))
          (Subspace.zero ~width)
          (List.rev forms)
      in
      Some (1 lsl (width - Subspace.dim s))

let p_ij g ~lo ~hi =
  match component_count_affine g ~lo ~hi with
  | Some found -> found = expected_components g ~lo ~hi
  | None -> component_count g ~lo ~hi = expected_components g ~lo ~hi

let p_one_star g =
  let n = Mi_digraph.stages g in
  let rec go j = j > n || (p_ij g ~lo:1 ~hi:j && go (j + 1)) in
  go 1

let p_star_n g =
  let n = Mi_digraph.stages g in
  let rec go i = i > n || (p_ij g ~lo:i ~hi:n && go (i + 1)) in
  go 1

let full_matrix g =
  (* One packed compilation and one scratch serve all O(n^2) windows:
     after the first row this allocates only the result list. *)
  let n = Mi_digraph.stages g in
  let p = Mi_digraph.packed g in
  let scratch = Packed.scratch p in
  List.concat
    (List.init n (fun l ->
         let lo = l + 1 in
         List.init
           (n - lo + 1)
           (fun k ->
             let hi = lo + k in
             (lo, hi, Packed.component_count ~scratch p ~lo ~hi, expected_components g ~lo ~hi))))

let satisfies_all g = List.for_all (fun (_, _, found, want) -> found = want) (full_matrix g)

(* Buddy properties ------------------------------------------------- *)

(* Over the packed tables: parents come from the predecessor slots
   (always exactly two) and children from the per-gap child arrays, so
   neither check allocates. *)

let output_buddy_stage g i =
  let p = Mi_digraph.packed g in
  let per = Packed.nodes_per_stage p in
  (* Nodes sharing a child must have identical children sets. *)
  let unordered_children x =
    let a = Packed.child_f p ~gap:i x and b = Packed.child_g p ~gap:i x in
    if a <= b then (a, b) else (b, a)
  in
  let rec go y =
    y = per
    || (let x1 = Packed.parent_a p ~gap:i y and x2 = Packed.parent_b p ~gap:i y in
        unordered_children x1 = unordered_children x2)
       && go (y + 1)
  in
  go 0

let input_buddy_stage g i =
  let p = Mi_digraph.packed g in
  let per = Packed.nodes_per_stage p in
  let unordered_parents y =
    let a = Packed.parent_a p ~gap:i y and b = Packed.parent_b p ~gap:i y in
    if a <= b then (a, b) else (b, a)
  in
  let rec go x =
    x = per
    || (let cf = Packed.child_f p ~gap:i x and cg = Packed.child_g p ~gap:i x in
        unordered_parents cf = unordered_parents cg)
       && go (x + 1)
  in
  go 0

let has_buddy_property g =
  let n = Mi_digraph.stages g in
  let rec go i = i >= n || (output_buddy_stage g i && input_buddy_stage g i && go (i + 1)) in
  go 1

(* Lemma 2 component structure -------------------------------------- *)

type component_profile = {
  lo : int;
  hi : int;
  components : Bv.t list array array;
}

let component_profile g ~lo ~hi =
  let p = Mi_digraph.packed g in
  let comp, count = Packed.component_labels p ~lo ~hi in
  let per = Mi_digraph.nodes_per_stage g in
  let stages = hi - lo + 1 in
  let components = Array.init count (fun _ -> Array.make stages []) in
  for v = (stages * per) - 1 downto 0 do
    let s = v / per and x = v mod per in
    components.(comp.(v)).(s) <- x :: components.(comp.(v)).(s)
  done;
  { lo; hi; components }

let buddies_of_slice c slice =
  (* For each parent of a slice node, the parent's other child. *)
  let in_slice = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace in_slice x ()) slice;
  let out = ref [] in
  List.iter
    (fun y ->
      List.iter
        (fun p ->
          let cf, cg = Connection.children c p in
          let other = if cf = y then cg else cf in
          (* A parent joined to y by a double link contributes y
             itself; membership filtering below handles it. *)
          if not (Hashtbl.mem in_slice other) then out := other :: !out)
        (Connection.parents c y))
    slice;
  List.sort_uniq compare !out

let lemma2_translate_structure g =
  let n = Mi_digraph.stages g in
  let width = Mi_digraph.width g in
  let ok = ref true in
  for j = 2 to n do
    if !ok then begin
      let profile = component_profile g ~lo:j ~hi:n in
      let expected_slice = 1 lsl (n - j) in
      Array.iter
        (fun stages_slices ->
          Array.iter
            (fun slice -> if List.length slice <> expected_slice then ok := false)
            stages_slices;
          if !ok then begin
            let a_j = stages_slices.(0) in
            let c = Mi_digraph.connection g (j - 1) in
            let b_j = buddies_of_slice c a_j in
            if List.length b_j <> List.length a_j then ok := false
            else if
              Option.is_none (Subspace.translate_of_set ~width a_j b_j)
            then ok := false
          end)
        profile.components
    end
  done;
  !ok
