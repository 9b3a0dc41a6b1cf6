type path = { input : int; output : int; cells : int array; ports : int array }

(* Packed kernels ---------------------------------------------------

   The kernels read only the packed tables — the stride-r child tables
   [p_child.(s).(r * x + j)] and the walk's [p_pred] parent slots — so
   one code path serves the binary networks and every radix. *)

let check_terminal (p : Mi_digraph.packed) t name =
  if t < 0 || t >= p.p_radix * p.p_per then invalid_arg ("Routing: bad " ^ name)

(* Backward reachability of the output cell, then a forward walk
   taking the one port whose child still reaches it.  [reach] marks
   dense node ids; the cells that reach the output are exactly its
   backward cone, found breadth-first over the [p_pred] parent slots.
   The cone has at most [r^k] cells [k] stages back, so
   [(r^n - 1) / (r - 1) <= 2 * per] in all: the queue's size. *)
let walk (p : Mi_digraph.packed) ~input ~output =
  check_terminal p input "input";
  check_terminal p output "output";
  let r = p.p_radix and n = p.p_stages and per = p.p_per in
  let src = input / r and dst = output / r in
  let reach = Bytes.make (n * per) '\000' in
  let queue = Array.make (2 * per) 0 in
  let head = ref 0 and tail = ref 1 in
  queue.(0) <- ((n - 1) * per) + dst;
  Bytes.set reach queue.(0) '\001';
  while !head < !tail do
    let id = queue.(!head) in
    incr head;
    if id >= per then
      for j = 0 to r - 1 do
        let x = p.p_pred.((r * (id - per)) + j) in
        if Bytes.get reach x = '\000' then begin
          Bytes.set reach x '\001';
          queue.(!tail) <- x;
          incr tail
        end
      done
  done;
  if Bytes.get reach src = '\000' then None
  else begin
    let cells = Array.make n src in
    let ports = Array.make n (output mod r) in
    for s = 0 to n - 2 do
      let row = p.p_child.(s) and next = (s + 1) * per and cur = cells.(s) in
      let onward = ref 0 in
      for j = r - 1 downto 0 do
        if Bytes.get reach (next + row.((r * cur) + j)) <> '\000' then begin
          incr onward;
          ports.(s) <- j
        end
      done;
      if !onward > 1 then failwith "Routing.route: multiple paths (network is not Banyan)";
      cells.(s + 1) <- row.((r * cur) + ports.(s))
    done;
    Some { input; output; cells; ports }
  end

(* The port-word enumeration: every continuation from cell [cur] of
   0-based stage [s] to the last stage, in port order, [w] holding the
   digits chosen so far.  At a leaf (output cell [y], word [w]) [fill]
   records [words.(y) <- w]; otherwise the leaf checks
   [words.(y) = w], and the result is [false] from the first that
   fails.  Module-level, so it allocates nothing. *)
let rec explore (p : Mi_digraph.packed) words ~fill s cur w =
  if s = p.p_stages - 1 then
    if fill then begin
      words.(cur) <- w;
      true
    end
    else words.(cur) = w
  else explore_ports p words ~fill s cur w 0

and explore_ports (p : Mi_digraph.packed) words ~fill s cur w j =
  j = p.p_radix
  || explore p words ~fill (s + 1)
       p.p_child.(s).((p.p_radix * cur) + j)
       ((w * p.p_radix) + j)
     && explore_ports p words ~fill s cur w (j + 1)

(* [words.(y)]: the word from source cell [src] to output cell [y]
   (output port left off); [false] when some output cell is never
   reached — as many words as output cells, so exactly when another
   is reached twice. *)
let words_from (p : Mi_digraph.packed) words src =
  Array.fill words 0 p.p_per (-1);
  ignore (explore p words ~fill:true 0 src 0);
  Array.for_all (fun w -> w >= 0) words

let terminal_words (p : Mi_digraph.packed) words =
  let r = p.p_radix in
  Array.init (r * p.p_per) (fun o -> (words.(o / r) * r) + (o mod r))

let port_words (p : Mi_digraph.packed) =
  let words = Array.make p.p_per (-1) in
  Array.init p.p_per (fun src ->
      if not (words_from p words src) then
        failwith "Routing.port_words: network is not Banyan";
      terminal_words p words)

(* Delta: source cell 0's words, then every other source cell checked
   against them leaf by leaf — a match at every leaf also makes that
   cell's words a bijection, so no second table is needed. *)
let schedule (p : Mi_digraph.packed) =
  let words = Array.make p.p_per (-1) in
  let rec shared src =
    src = p.p_per || (explore p words ~fill:false 0 src 0 && shared (src + 1))
  in
  if words_from p words 0 && shared 1 then Some (terminal_words p words) else None

(* Binary networks --------------------------------------------------- *)

let route g = walk (Mi_digraph.packed g)

let port_word p =
  Array.fold_left (fun acc b -> (acc lsl 1) lor b) 0 p.ports

let delta_schedule g = schedule (Mi_digraph.packed g)

let is_delta g = Option.is_some (delta_schedule g)

let is_bidelta g = is_delta g && is_delta (Mi_digraph.reverse g)

type conflict_report = { max_link_load : int; conflicted_links : int; paths_routed : int }

let link_loads g pairs =
  let n = Mi_digraph.stages g in
  let per = Mi_digraph.nodes_per_stage g in
  let loads = Array.make (n * per * 2) 0 in
  let link_id s cell port = (((s * per) + cell) * 2) + port in
  let routed = ref 0 in
  List.iter
    (fun (input, output) ->
      match route g ~input ~output with
      | None -> ()
      | Some p ->
          incr routed;
          Array.iteri
            (fun s port ->
              let id = link_id s p.cells.(s) port in
              loads.(id) <- loads.(id) + 1)
            p.ports)
    pairs;
  let max_load = Array.fold_left max 0 loads in
  let conflicted = Array.fold_left (fun acc l -> if l > 1 then acc + 1 else acc) 0 loads in
  { max_link_load = max_load; conflicted_links = conflicted; paths_routed = !routed }

let is_admissible g pairs =
  let r = link_loads g pairs in
  r.paths_routed = List.length pairs && r.max_link_load <= 1

let admissible_fraction rng g ~samples =
  let n_terms = Mi_digraph.inputs g in
  let hits = ref 0 in
  for _ = 1 to samples do
    let p = Mineq_perm.Perm.random rng n_terms in
    let pairs = List.init n_terms (fun i -> (i, Mineq_perm.Perm.apply p i)) in
    if is_admissible g pairs then incr hits
  done;
  float_of_int !hits /. float_of_int samples
