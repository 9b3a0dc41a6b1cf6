(* Reference deciders for the enumeration kernels of [Mineq.Packed]:
   the boxed pipelines those kernels replaced, written once for every
   radix.  The path counts come from a DP that allocates a fresh row
   per source per gap; the window census from a union-find of its own
   (plain parent links, no path compression, no union by size).  Like
   [Routing_oracle], it reads children through the [net] record's
   [Connection] / [Rconnection] closure, never through the packed
   tables, so it shares no code with what it checks. *)

type net = Routing_oracle.net

let of_network = Routing_oracle.of_network

let of_rnetwork = Routing_oracle.of_rnetwork

(* [m.(u).(v)]: stage-1 cell [u] to stage-n cell [v] paths, parallel
   arcs counted separately. *)
let path_count_matrix (net : net) =
  Array.init net.per (fun u ->
      let row = ref (Array.init net.per (fun v -> if u = v then 1 else 0)) in
      for gap = 1 to net.stages - 1 do
        let next = Array.make net.per 0 in
        Array.iteri
          (fun x ways ->
            for port = 0 to net.radix - 1 do
              let y = net.child ~gap ~port x in
              next.(y) <- next.(y) + ways
            done)
          !row;
        row := next
      done;
      !row)

(* The first [(source, sink, paths)] with [paths <> 1], sources then
   sinks ascending; [None] when the network is Banyan. *)
let first_violation net =
  let m = path_count_matrix net in
  let rec scan u v =
    if u = net.per then None
    else if v = net.per then scan (u + 1) 0
    else if m.(u).(v) <> 1 then Some (u, v, m.(u).(v))
    else scan u (v + 1)
  in
  scan 0 0

(* Components of the window on stages [lo .. hi], arcs taken as
   undirected edges; window node [(stage - lo) * per + cell]. *)
let component_count (net : net) ~lo ~hi =
  let per = net.per in
  let parent = Array.init ((hi - lo + 1) * per) Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let count = ref (Array.length parent) in
  for gap = lo to hi - 1 do
    let base = (gap - lo) * per in
    for x = 0 to per - 1 do
      for port = 0 to net.radix - 1 do
        let a = find (base + x) and b = find (base + per + net.child ~gap ~port x) in
        if a <> b then begin
          parent.(a) <- b;
          decr count
        end
      done
    done
  done;
  !count

let expected_components (net : net) ~lo ~hi =
  let rec pow k = if k = 0 then 1 else net.radix * pow (k - 1) in
  pow (net.stages - 1 - (hi - lo))

(* Every window [(lo, hi)], [1 <= lo <= hi <= n]. *)
let windows (net : net) =
  List.concat
    (List.init net.stages (fun l ->
         List.init (net.stages - l) (fun k -> (l + 1, l + 1 + k))))

(* Banyan, then [P(1, j)] for every [j] and [P(i, n)] for every [i]. *)
let characterization (net : net) =
  let n = net.stages in
  let holds (lo, hi) = component_count net ~lo ~hi = expected_components net ~lo ~hi in
  first_violation net = None
  && List.for_all holds (List.init n (fun j -> (1, j + 1)))
  && List.for_all holds (List.init n (fun i -> (i + 1, n)))
