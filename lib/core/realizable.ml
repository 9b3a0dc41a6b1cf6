module Perm = Mineq_perm.Perm

let permutation_of_setting g setting =
  let n = Mi_digraph.stages g in
  let per = Mi_digraph.nodes_per_stage g in
  if Array.length setting <> n || Array.exists (fun row -> Array.length row <> per) setting
  then invalid_arg "Realizable.permutation_of_setting: setting shape";
  (* Packed.downstream: entry [2 * cell + out_port] of gap table [s]
     is [(child lsl 1) lor in_port], the child's in-slot in predecessor
     fill order. *)
  let down = Packed.downstream (Mi_digraph.packed g) in
  let terminals = 2 * per in
  Perm.of_fun ~size:terminals (fun t ->
      let cell = ref (t / 2) and in_port = ref (t land 1) in
      for s = 0 to n - 1 do
        let out_port = if setting.(s).(!cell) then 1 - !in_port else !in_port in
        if s < n - 1 then begin
          let hop = down.(s).((2 * !cell) + out_port) in
          cell := hop lsr 1;
          in_port := hop land 1
        end
        else begin
          cell := (2 * !cell) + out_port;
          in_port := 0
        end
      done;
      !cell)

let all_settings g f =
  let n = Mi_digraph.stages g in
  let per = Mi_digraph.nodes_per_stage g in
  let switches = n * per in
  if switches > 20 then invalid_arg "Realizable: too many switches for exact enumeration";
  let setting = Array.make_matrix n per false in
  for code = 0 to (1 lsl switches) - 1 do
    for s = 0 to n - 1 do
      for c = 0 to per - 1 do
        setting.(s).(c) <- (code lsr ((s * per) + c)) land 1 = 1
      done
    done;
    f setting
  done

let realizable_exact g =
  let seen = Hashtbl.create 1024 in
  all_settings g (fun setting ->
      let p = permutation_of_setting g setting in
      let key = Perm.to_array p in
      if not (Hashtbl.mem seen key) then Hashtbl.add seen key p);
  Hashtbl.fold (fun _ p acc -> p :: acc) seen [] |> List.sort Perm.compare

let count_exact g =
  let seen = Hashtbl.create 1024 in
  all_settings g (fun setting ->
      Hashtbl.replace seen (Perm.to_array (permutation_of_setting g setting)) ());
  Hashtbl.length seen

let estimate rng g ~samples =
  let n = Mi_digraph.stages g in
  let per = Mi_digraph.nodes_per_stage g in
  let seen = Hashtbl.create 1024 in
  for _ = 1 to samples do
    let setting =
      Array.init n (fun _ -> Array.init per (fun _ -> Random.State.bool rng))
    in
    Hashtbl.replace seen (Perm.to_array (permutation_of_setting g setting)) ()
  done;
  Hashtbl.length seen

let realizes g p =
  let terminals = Mi_digraph.inputs g in
  if Perm.size p <> terminals then invalid_arg "Realizable.realizes: permutation size";
  Routing.is_admissible g (List.init terminals (fun i -> (i, Perm.apply p i)))
