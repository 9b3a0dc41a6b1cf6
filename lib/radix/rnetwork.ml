module Mi_digraph = Mineq.Mi_digraph
module Packed = Mineq.Packed

type t = {
  ctx : Rv.ctx;
  conns : Rconnection.t array;
  mutable packed_cache : Mi_digraph.packed option;
}

let make ctx conns = { ctx; conns; packed_cache = None }

let create conns =
  match conns with
  | [] -> invalid_arg "Rnetwork.create: empty connection list"
  | c0 :: rest ->
      let ctx = Rconnection.ctx c0 in
      if Rv.radix ctx < 2 then invalid_arg "Rnetwork.create: radix must be >= 2";
      List.iter
        (fun c ->
          if
            Rv.radix (Rconnection.ctx c) <> Rv.radix ctx
            || Rv.width (Rconnection.ctx c) <> Rv.width ctx
          then invalid_arg "Rnetwork.create: context mismatch")
        rest;
      if Rv.width ctx <> List.length conns then
        invalid_arg "Rnetwork.create: need digit width = stage count - 1";
      List.iter
        (fun c ->
          if not (Rconnection.is_mi_stage c) then
            invalid_arg "Rnetwork.create: a connection violates the in-degree requirement")
        conns;
      make ctx (Array.of_list conns)

let stages g = Array.length g.conns + 1

let ctx g = g.ctx

let radix g = Rv.radix g.ctx

let cells_per_stage g = Rv.universe_size g.ctx

let terminals g = radix g * cells_per_stage g

let connection g i =
  if i < 1 || i > Array.length g.conns then invalid_arg "Rnetwork.connection: bad gap";
  g.conns.(i - 1)

let connections g = Array.to_list g.conns

let reverse g =
  let rev = Array.map Rconnection.reverse_any g.conns in
  let m = Array.length rev in
  (* A fresh record, never [{ g with _ }]: the packed cache describes
     the original wiring and must not be inherited. *)
  make g.ctx (Array.init m (fun i -> rev.(m - 1 - i)))

(* Packing ---------------------------------------------------------- *)

(* The stride-r compilation shared with the binary library: the same
   Mi_digraph.packed record (per-gap digit-word child tables, stride-r
   CSR) so every Packed kernel — flat-DSU census, two-row path-count
   DP, downstream tables — runs on radix networks unchanged.  Built on
   first use, cached on the record; the benign write race under
   Domains is safe because packing is deterministic. *)
let packed g =
  match g.packed_cache with
  | Some p -> p
  | None ->
      let p =
        Mi_digraph.pack_tables ~stages:(stages g) ~radix:(radix g) ~width:(Rv.width g.ctx)
          ~child:(fun ~gap ~port x -> Rconnection.child g.conns.(gap - 1) port x)
      in
      g.packed_cache <- Some p;
      p

let to_digraph g = Mi_digraph.digraph_of_packed (packed g)

let equal a b =
  stages a = stages b
  && radix a = radix b
  && Array.for_all2 Rconnection.equal_graph a.conns b.conns

(* Deciders --------------------------------------------------------- *)

(* Every decider runs on the packed tables: Banyan by the two-row
   path-count DP, the censuses by the flat union-find, and the
   characterization by the loop the binary library's
   [Equivalence.equivalent_enum] runs too. *)
let is_banyan g = Option.is_none (Packed.first_violation (packed g))

let path_count_matrix g = Packed.path_count_matrix (packed g)

let component_count g ~lo ~hi = Packed.component_count (packed g) ~lo ~hi

let by_characterization g = Packed.satisfies_characterization (packed g)

let by_independence g =
  is_banyan g && List.for_all Rconnection.is_independent (connections g)

let isomorphic ?limit a b =
  stages a = stages b
  && radix a = radix b
  && Mineq_graph.Iso.are_isomorphic ?limit (to_digraph a) (to_digraph b)
