type 'a classified = { representative : Mi_digraph.t; members : 'a list }

(* Bucketed classification.  The key is any isomorphism invariant
   (equal keys necessary for isomorphism): networks shard into
   key-buckets first and Iso_min runs only within a bucket, so the
   expensive refutation searches between networks the key already
   separates never happen.  Class identity and order are key-agnostic:
   classes are reported in first-appearance order of their first
   member and members stay in input order, so any sound key — the
   fingerprint or a constant — produces the
   identical classified list, only at different cost.  Buckets scan in
   insertion order, which keeps the within-bucket representative
   choice deterministic too. *)

type 'a cls = { rep : Mi_digraph.t; mutable tags : 'a list }

let classify_keyed ~key tagged =
  let order = ref [] in
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (g, tag) ->
      let k = key g in
      let bucket =
        match Hashtbl.find_opt buckets k with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.add buckets k b;
            b
      in
      let rec place = function
        | [] ->
            let c = { rep = g; tags = [ tag ] } in
            bucket := !bucket @ [ c ];
            order := c :: !order
        | c :: rest ->
            if Option.is_some (Iso_min.find g c.rep) then c.tags <- tag :: c.tags
            else place rest
      in
      place !bucket)
    tagged;
  List.rev_map (fun c -> { representative = c.rep; members = List.rev c.tags }) !order

let classify tagged = classify_keyed ~key:Fingerprint.of_network tagged

let bucket_stats tagged =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun (g, _) ->
      let k = Fingerprint.of_network g in
      match Hashtbl.find_opt keys k with
      | Some n -> Hashtbl.replace keys k (n + 1)
      | None -> Hashtbl.add keys k 1)
    tagged;
  let buckets = Hashtbl.length keys in
  let classes = List.length (classify tagged) in
  (buckets, classes)

let class_count gs = List.length (classify (List.map (fun g -> (g, ())) gs))

let contains_baseline cls =
  (Equivalence.by_characterization cls.representative).equivalent

let sample_banyan_census rng ~n ~samples ~attempts =
  let rec draw k acc =
    if k = 0 then List.rev acc
    else
      match Counterexample.random_banyan rng ~n ~attempts with
      | None -> List.rev acc
      | Some g -> draw (k - 1) ((g, samples - k) :: acc)
  in
  classify (draw samples [])
