type t = { width : int; conns : Connection.t array }

let create conns =
  match conns with
  | [] -> invalid_arg "Cascade.create: empty connection list"
  | c0 :: rest ->
      let w = Connection.width c0 in
      List.iter
        (fun c ->
          if Connection.width c <> w then invalid_arg "Cascade.create: width mismatch")
        rest;
      List.iter
        (fun c ->
          if not (Connection.is_mi_stage c) then
            invalid_arg "Cascade.create: a connection violates the in-degree-2 requirement")
        conns;
      { width = w; conns = Array.of_list conns }

let of_mi_digraph g = create (Mi_digraph.connections g)

let stages c = Array.length c.conns + 1

let width c = c.width

let cells_per_stage c = 1 lsl c.width

let terminals c = 2 * cells_per_stage c

let to_mi_digraph c =
  if stages c = c.width + 1 then Some (Mi_digraph.create (Array.to_list c.conns)) else None

let connection c i =
  if i < 1 || i > Array.length c.conns then invalid_arg "Cascade.connection: bad gap index";
  c.conns.(i - 1)

let connections c = Array.to_list c.conns

let concat a b =
  if a.width <> b.width then invalid_arg "Cascade.concat: width mismatch";
  { a with conns = Array.append a.conns b.conns }

let reverse c =
  let rev = Array.map Connection.reverse_any c.conns in
  let m = Array.length rev in
  { c with conns = Array.init m (fun i -> rev.(m - 1 - i)) }

let path_counts c =
  let per = cells_per_stage c in
  Array.init per (fun u ->
      let ways = Array.make per 0 in
      ways.(u) <- 1;
      Array.fold_left
        (fun cur conn ->
          let next = Array.make per 0 in
          Array.iteri
            (fun x w ->
              if w > 0 then begin
                let cf, cg = Connection.children conn x in
                next.(cf) <- next.(cf) + w;
                next.(cg) <- next.(cg) + w
              end)
            cur;
          next)
        ways c.conns)

let is_banyan c =
  Array.for_all (fun row -> Array.for_all (fun w -> w = 1) row) (path_counts c)

type route = { input : int; output : int; cells : int array }

let route_is_valid c r =
  let n = stages c in
  Array.length r.cells = n
  && r.input >= 0
  && r.input < terminals c
  && r.output >= 0
  && r.output < terminals c
  && r.cells.(0) = r.input / 2
  && r.cells.(n - 1) = r.output / 2
  && (let rec hops s =
        s >= n - 1
        || (let cf, cg = Connection.children c.conns.(s) r.cells.(s) in
            (r.cells.(s + 1) = cf || r.cells.(s + 1) = cg) && hops (s + 1))
      in
      hops 0)

let link_disjoint c routes =
  let usage = Hashtbl.create 64 in
  let book key capacity =
    let used = Option.value ~default:0 (Hashtbl.find_opt usage key) in
    if used >= capacity then false
    else begin
      Hashtbl.replace usage key (used + 1);
      true
    end
  in
  let n = stages c in
  let per = cells_per_stage c in
  List.for_all
    (fun r ->
      route_is_valid c r
      && (let rec hops s =
            s >= n - 1
            ||
            let conn = c.conns.(s) in
            let cf, cg = Connection.children conn r.cells.(s) in
            let capacity =
              (if cf = r.cells.(s + 1) then 1 else 0) + if cg = r.cells.(s + 1) then 1 else 0
            in
            book (s, (r.cells.(s) * per) + r.cells.(s + 1)) capacity && hops (s + 1)
          in
          hops 0)
      && book (n - 1, r.output) 1)
    routes
