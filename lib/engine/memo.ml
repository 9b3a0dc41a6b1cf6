(* Structural keys ---------------------------------------------------

   The pre-sharding memo keyed on [Digest.string (Spec_io.to_string g)]
   — an MD5 of the rendered spec text, serializing the whole network
   on every probe.  The replacement key is the network itself under a
   cheap structural hash: per gap, per source label, the child pair
   [(f x, g x)] folded through a multiply-xor mixer.  The pair is
   ordered: [f] is a cell's port-0 output and [g] its port-1 output,
   and cached values depend on which is which (destination-tag
   routing and the blocking survey follow ports, lint's independence
   findings read the stored split).  So two networks share an entry
   exactly when every cell has the same two children on the same
   ports — finer than [Mi_digraph.equal], which ignores the split.
   Computed pointwise with no allocation.  Collisions are harmless:
   the hashtable falls back on [structural_equal].

   A repeat probe walks no network.  The hash is computed once per
   record and cached on it ([Mi_digraph.structural_hash_cache]);
   [structural_equal] stops at physical equality; and a hit rebinds
   the table's stored key to the probing record, so a key that came
   from elsewhere (a snapshot import, an equal record built earlier)
   costs full comparisons on its first hit only.

   A second keying collapses entries further: the canonical
   Fingerprint identifies all isomorphic networks up to WL hash
   collisions, so iso-invariant computations hit the cache across
   relabellings the structural key treats as distinct.  Collisions do
   occur (see the mli), so that keying is opt-in.  The keying is
   chosen at [create] time; the probing API is identical. *)

let structural_equal a b =
  let module M = Mineq.Mi_digraph in
  let module C = Mineq.Connection in
  a == b
  || M.width a = M.width b
  && M.stages a = M.stages b
  &&
  let per = M.nodes_per_stage a in
  let rec gaps i =
    i >= M.stages a
    ||
    let ca = M.connection a i and cb = M.connection b i in
    let rec labels x =
      x = per
      ||
      C.f ca x = C.f cb x && C.g ca x = C.g cb x && labels (x + 1)
    in
    labels 0 && gaps (i + 1)
  in
  gaps 1

(* Fits a 63-bit int literal; odd, so multiplication permutes. *)
let mult = 0x2545f4914f6cdd1d

let mix h k =
  let h = (h + k) * mult in
  h lxor (h lsr 29)

let hash_arcs g =
  let module M = Mineq.Mi_digraph in
  let module C = Mineq.Connection in
  let per = M.nodes_per_stage g in
  let h = ref (mix (M.width g) (M.stages g)) in
  for i = 1 to M.stages g - 1 do
    let c = M.connection g i in
    for x = 0 to per - 1 do
      h := mix !h (C.f c x lor (C.g c x lsl 20))
    done
  done;
  (* Land in Hashtbl's expected non-negative range. *)
  !h land max_int

(* Benign race under Domains, as for the packed form: the hash is
   deterministic, so concurrent writers store the same int. *)
let structural_hash g =
  match Mineq.Mi_digraph.structural_hash_cache g with
  | Some h -> h
  | None ->
      let h = hash_arcs g in
      Mineq.Mi_digraph.set_structural_hash_cache g h;
      h

module H = Hashtbl.Make (struct
  type t = Mineq.Mi_digraph.t

  let equal = structural_equal

  let hash = structural_hash
end)

module FH = Hashtbl.Make (struct
  type t = Mineq.Fingerprint.t

  let equal = Mineq.Fingerprint.equal

  let hash = Mineq.Fingerprint.hash
end)

type keying = Structural | Fingerprint

let keying_name = function Structural -> "structural" | Fingerprint -> "fingerprint"

(* Lock striping: a probe touches one shard mutex chosen by the key
   hash, so concurrent workers probing different networks never
   contend.  Counters are per shard, mutated under the shard lock and
   summed on read.

   Single flight: the first prober of a key stores a [Pending] cell
   and computes outside the lock; a later prober of the same key waits
   on the shard's condition for that value instead of computing it a
   second time, and counts a hit.  A computation that raises removes
   its marker, and a waiter then computes in its place. *)

type 'a cell = Ready of 'a | Pending

type 'a table = S of 'a cell H.t | F of 'a cell FH.t

type 'a shard = {
  table : 'a table;
  m : Mutex.t;
  filled : Condition.t;  (* broadcast whenever a [Pending] cell resolves *)
  mutable hits : int;
  mutable misses : int;
}

let shard_count = 16 (* power of two: shard index is a mask of the hash *)

type 'a t = { keying : keying; shards : 'a shard array }

let create ?(size = 64) ?(keying = Structural) () =
  { keying;
    shards =
      Array.init shard_count (fun _ ->
          let cap = max 1 (size / shard_count) in
          let table = match keying with Structural -> S (H.create cap) | Fingerprint -> F (FH.create cap) in
          { table; m = Mutex.create (); filled = Condition.create (); hits = 0; misses = 0 })
  }

let keying t = t.keying

let key_hash t g =
  match t.keying with
  | Structural -> structural_hash g
  | Fingerprint -> Mineq.Fingerprint.hash (Mineq.Fingerprint.of_network g)

let shard t g = t.shards.(key_hash t g land (shard_count - 1))

(* One probe of shard [s] for one key, through that key's [find],
   [set] and [remove] on the shard's table. *)
let probe s ~find ~set ~remove f g =
  Mutex.lock s.m;
  let rec go () =
    match find () with
    | Some (Ready v as cell) ->
        s.hits <- s.hits + 1;
        (* Rebind the stored key to the probing one.  When it already
           is that key this stops at physical equality; otherwise the
           old key (an imported or earlier equal record) is dropped,
           and later probes with this record compare nothing. *)
        set cell;
        Mutex.unlock s.m;
        v
    | Some Pending ->
        Condition.wait s.filled s.m;
        go ()
    | None -> (
        s.misses <- s.misses + 1;
        set Pending;
        Mutex.unlock s.m;
        match f g with
        | v ->
            Mutex.lock s.m;
            set (Ready v);
            Condition.broadcast s.filled;
            Mutex.unlock s.m;
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock s.m;
            remove ();
            Condition.broadcast s.filled;
            Mutex.unlock s.m;
            Printexc.raise_with_backtrace e bt)
  in
  go ()

let find_or_compute t g f =
  let s = shard t g in
  match s.table with
  | S tbl ->
      probe s
        ~find:(fun () -> H.find_opt tbl g)
        ~set:(H.replace tbl g)
        ~remove:(fun () -> H.remove tbl g)
        f g
  | F tbl ->
      (* [of_network] memoises on the record, so hash and probe share
         one refinement pass. *)
      let k = Mineq.Fingerprint.of_network g in
      probe s
        ~find:(fun () -> FH.find_opt tbl k)
        ~set:(FH.replace tbl k)
        ~remove:(fun () -> FH.remove tbl k)
        f g

(* Export / import -------------------------------------------------

   The serving layer's snapshots need a point-in-time view of every
   entry.  Grabbing the shard locks one at a time would interleave
   with concurrent stores (an entry added to shard 3 while shard 7 is
   being copied appears or not depending on timing); [export] instead
   holds {e all} shard locks (acquired in index order, so two
   concurrent exports cannot deadlock) for the duration of the copy —
   a consistent cut, cheap because copying is proportional to the
   entry count, not the compute time behind it. *)

type 'a entry =
  | Skey of Mineq.Mi_digraph.t * 'a
  | Fkey of Mineq.Fingerprint.t * 'a

let export t =
  Array.iter (fun s -> Mutex.lock s.m) t.shards;
  let acc = ref [] in
  Array.iter
    (fun s ->
      (* A [Pending] key has no value yet: it is not part of the cut. *)
      match s.table with
      | S tbl ->
          H.iter (fun k -> function Ready v -> acc := Skey (k, v) :: !acc | Pending -> ()) tbl
      | F tbl ->
          FH.iter (fun k -> function Ready v -> acc := Fkey (k, v) :: !acc | Pending -> ()) tbl)
    t.shards;
  for i = Array.length t.shards - 1 downto 0 do
    Mutex.unlock t.shards.(i).m
  done;
  Array.of_list !acc

let fold f init t = Array.fold_left f init (export t)

let import t entries =
  let adopted = ref 0 in
  Array.iter
    (fun e ->
      match (e, t.keying) with
      | Skey (g, v), Structural -> (
          let s = t.shards.(structural_hash g land (shard_count - 1)) in
          Mutex.lock s.m;
          (match s.table with
          | S tbl -> if not (H.mem tbl g) then (H.add tbl g (Ready v); incr adopted)
          | F _ -> ());
          Mutex.unlock s.m)
      | Fkey (k, v), Fingerprint -> (
          let s = t.shards.(Mineq.Fingerprint.hash k land (shard_count - 1)) in
          Mutex.lock s.m;
          (match s.table with
          | F tbl -> if not (FH.mem tbl k) then (FH.add tbl k (Ready v); incr adopted)
          | S _ -> ());
          Mutex.unlock s.m)
      | Skey _, Fingerprint | Fkey _, Structural -> ())
    entries;
  !adopted

let sum_shards t f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards

let hits t = sum_shards t (fun s -> s.hits)

let misses t = sum_shards t (fun s -> s.misses)

let table_length = function S tbl -> H.length tbl | F tbl -> FH.length tbl

let size t =
  sum_shards t (fun s ->
      Mutex.lock s.m;
      let n = table_length s.table in
      Mutex.unlock s.m;
      n)

let hit_rate t =
  let h = hits t and m = misses t in
  let total = h + m in
  if total = 0 then nan else float_of_int h /. float_of_int total

let reset t =
  Array.iter
    (fun s ->
      Mutex.lock s.m;
      (match s.table with S tbl -> H.reset tbl | F tbl -> FH.reset tbl);
      s.hits <- 0;
      s.misses <- 0;
      Mutex.unlock s.m)
    t.shards
