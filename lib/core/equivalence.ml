module Iso = Mineq_graph.Iso

type method_ = Independence | Characterization | Isomorphism

let all_methods = [ Independence; Characterization; Isomorphism ]

let method_name = function
  | Independence -> "independence"
  | Characterization -> "characterization"
  | Isomorphism -> "isomorphism"

type verdict = { equivalent : bool; banyan : bool; detail : string }

let not_banyan v =
  { equivalent = false;
    banyan = false;
    detail = Format.asprintf "not Banyan: %a" Banyan.pp_violation v
  }

(* Symbolic-first Banyan: the O(n^3) D-matrix check when every gap is
   independent, the path-count enumeration otherwise. *)
let banyan_result g =
  match Banyan.symbolic_check g with Some r -> r | None -> Banyan.check g

let by_independence g =
  match banyan_result g with
  | Error v -> not_banyan v
  | Ok () ->
      let bad = ref None in
      List.iteri
        (fun i c ->
          if !bad = None && not (Connection.is_independent_fast c) then bad := Some (i + 1))
        (Mi_digraph.connections g);
      (match !bad with
      | Some gap ->
          { equivalent = false;
            banyan = true;
            detail =
              Printf.sprintf
                "connection at gap %d is not independent (Theorem 3 does not apply; the \
                 network may still be equivalent)"
                gap
          }
      | None ->
          { equivalent = true;
            banyan = true;
            detail = "Banyan with independent connections at every gap (Theorem 3)"
          })

let by_independence_any_split g =
  match banyan_result g with
  | Error v -> not_banyan v
  | Ok () ->
      let bad = ref None in
      List.iteri
        (fun i c ->
          if !bad = None && Option.is_none (Connection.independent_split c) then
            bad := Some (i + 1))
        (Mi_digraph.connections g);
      (match !bad with
      | Some gap ->
          { equivalent = false;
            banyan = true;
            detail =
              Printf.sprintf
                "gap %d admits no independent decomposition (Theorem 3 does not apply; the \
                 network may still be equivalent)"
                gap
          }
      | None ->
          { equivalent = true;
            banyan = true;
            detail =
              "Banyan; every gap admits an independent decomposition (Theorem 3, canonical \
               split)"
          })

let by_characterization g =
  match banyan_result g with
  | Error v -> not_banyan v
  | Ok () ->
      let n = Mi_digraph.stages g in
      let fail lo hi =
        { equivalent = false;
          banyan = true;
          detail =
            Printf.sprintf "P(%d,%d) fails: %d components, expected %d" lo hi
              (Properties.component_count g ~lo ~hi)
              (Properties.expected_components g ~lo ~hi)
        }
      in
      let rec check_prefixes j =
        if j > n then None
        else if not (Properties.p_ij g ~lo:1 ~hi:j) then Some (1, j)
        else check_prefixes (j + 1)
      in
      let rec check_suffixes i =
        if i > n then None
        else if not (Properties.p_ij g ~lo:i ~hi:n) then Some (i, n)
        else check_suffixes (i + 1)
      in
      (match check_prefixes 1 with
      | Some (lo, hi) -> fail lo hi
      | None -> (
          match check_suffixes 1 with
          | Some (lo, hi) -> fail lo hi
          | None ->
              { equivalent = true;
                banyan = true;
                detail = "Banyan satisfying P(1,j) for all j and P(i,n) for all i"
              }))

let equivalent_enum g = Packed.satisfies_characterization (Mi_digraph.packed g)

(* Fingerprint pre-filter.  On MI-digraphs any digraph isomorphism is
   automatically stage-respecting (stage 1 is the in-degree-0 set and
   arcs advance the stage by one, so stages are determined by the arc
   structure), hence the Fingerprint invariant applies to the general
   digraph searches below too: unequal fingerprints prove no
   isomorphism exists, and the exhaustive search — whose refutations
   are its most expensive outcomes — only runs on equal ones. *)
let fingerprint_distinct a b =
  not (Fingerprint.equal (Fingerprint.of_network a) (Fingerprint.of_network b))

(* One Baseline record per stage count, so its packed form and
   fingerprint are built once per process instead of once per call.
   Benign race under Domains, as for the packed form: concurrent
   builders store equal records and either wins. *)
let baselines = Array.make 64 None

let baseline n =
  if n >= Array.length baselines then Baseline.network n
  else
    match baselines.(n) with
    | Some b -> b
    | None ->
        let b = Baseline.network n in
        baselines.(n) <- Some b;
        b

let by_isomorphism ?limit g =
  match banyan_result g with
  | Error v ->
      (* The Baseline MI-digraph is Banyan and an isomorphism keeps
         path counts, so this is a sound negative without a
         fingerprint or a search. *)
      not_banyan v
  | Ok () -> (
      let base = baseline (Mi_digraph.stages g) in
      if fingerprint_distinct g base then
        { equivalent = false;
          banyan = true;
          detail =
            "structural fingerprint differs from the Baseline MI-digraph (no isomorphism)"
        }
      else
        match
          Iso.find_isomorphism ?limit (Mi_digraph.to_digraph g) (Mi_digraph.to_digraph base)
        with
        | Some _ ->
            { equivalent = true;
              banyan = true;
              detail = "explicit digraph isomorphism onto the Baseline MI-digraph found"
            }
        | None ->
            { equivalent = false;
              banyan = true;
              detail = "no digraph isomorphism onto the Baseline MI-digraph exists"
            })

let decide ?limit m g =
  match m with
  | Independence -> by_independence g
  | Characterization -> by_characterization g
  | Isomorphism -> by_isomorphism ?limit g

let equivalent_networks ?limit m a b =
  match m with
  | Isomorphism ->
      (not (fingerprint_distinct a b))
      && Iso.are_isomorphic ?limit (Mi_digraph.to_digraph a) (Mi_digraph.to_digraph b)
  | _ -> (decide ?limit m a).equivalent && (decide ?limit m b).equivalent
