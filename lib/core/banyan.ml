module Bv = Mineq_bitvec.Bv
module Gf2 = Mineq_bitvec.Gf2_matrix
module Subspace = Mineq_bitvec.Subspace

type violation = { source : Bv.t; sink : Bv.t; paths : int }

(* Enumeration path counting runs on the packed child tables
   (Packed.first_violation / Packed.path_count_matrix): a per-source
   forward DP over two reusable rows. *)

let path_count_matrix g = Packed.path_count_matrix (Mi_digraph.packed g)

let check g =
  match Packed.first_violation (Mi_digraph.packed g) with
  | None -> Ok ()
  | Some (source, sink, paths) -> Error { source; sink; paths }

(* Symbolic fast path.  When gap j is independent — children
   [B_j x xor cf_j] and [B_j x xor cg_j] — the stage-n position of a
   path from stage-1 node [u] with port word [p in {0,1}^(n-1)] is

     M u  xor  base  xor  sum_j p_j d_j

   with [M = B_{n-1}...B_1], [base = sum_j B_{n-1}..B_{j+1} cf_j] and
   [d_j = B_{n-1}..B_{j+1} (cf_j xor cg_j)].  The number of u -> v
   paths is the number of solutions of [D p = v xor M u xor base], so
   the digraph is Banyan iff the (n-1) x (n-1) matrix
   [D = [d_1 .. d_{n-1}]] is invertible — an O(n^3) rank computation
   replacing the O(n 4^n) path-count DP. *)

let shared_form c =
  match Connection.affine_pair c with
  | Some ((bf, cf), (bg, cg)) when Gf2.equal bf bg -> Some (bf, cf, cg)
  | _ -> None

let symbolic_check g =
  let n = Mi_digraph.stages g in
  let width = Mi_digraph.width g in
  let rec forms acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
        match shared_form c with None -> None | Some f -> forms (f :: acc) rest)
  in
  match forms [] (Mi_digraph.connections g) with
  | None -> None
  | Some forms ->
      (* Walk gaps n-1 down to 1, accumulating P = B_{n-1}..B_{j+1}. *)
      let d = Array.make (max 1 (n - 1)) 0 in
      let base = ref 0 in
      let p = ref (Gf2.identity width) in
      List.iteri
        (fun i (b, cf, cg) ->
          let j = n - 1 - i in
          d.(j - 1) <- Gf2.apply !p (cf lxor cg);
          base := !base lxor Gf2.apply !p cf;
          p := Gf2.mul !p b)
        (List.rev forms);
      let dmat = Gf2.create ~rows:width ~cols:width (fun r j -> Bv.bit d.(j) r) in
      if Gf2.is_invertible dmat then Some (Ok ())
      else begin
        (* Concrete witness: a sink v with zero paths from source 0.
           D is square and singular, so its column space is proper;
           any vector outside it, shifted by [base], is unreachable. *)
        let image =
          Subspace.of_generators ~width (List.init width (fun j -> Gf2.column dmat j))
        in
        let outside =
          match Subspace.complement_basis image with
          | v :: _ -> v
          | [] -> assert false
        in
        Some (Error { source = 0; sink = outside lxor !base; paths = 0 })
      end

let is_banyan g =
  match symbolic_check g with Some r -> Result.is_ok r | None -> Result.is_ok (check g)

let pp_violation ppf v =
  Format.fprintf ppf "stage-1 node %d reaches stage-n node %d by %d paths (expected 1)"
    v.source v.sink v.paths
