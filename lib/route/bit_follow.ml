type t = {
  fab : Fabric.t;
  ctrl : int array array;  (* ctrl.(s).(o): out-port at 0-based stage s *)
}

let of_fabric fab ~schedule =
  let n = Fabric.terminals fab in
  if Array.length schedule <> n then
    invalid_arg "Bit_follow.of_fabric: schedule size mismatch";
  let stages = fab.Fabric.stages in
  let r = fab.Fabric.radix in
  (* divisor for stage s is r^(stages - 1 - s): stage-1 digit most
     significant, last-stage digit least *)
  let ctrl =
    Array.init stages (fun s ->
        let d = ref 1 in
        for _ = 1 to stages - 1 - s do
          d := !d * r
        done;
        let div = !d in
        Array.init n (fun o -> schedule.(o) / div mod r))
  in
  { fab; ctrl }

let of_packed p =
  Option.map
    (fun schedule -> of_fabric (Fabric.of_packed p) ~schedule)
    (Mineq.Routing.schedule p)

let of_network g = of_packed (Mineq.Mi_digraph.pack g)

let of_rnetwork g = of_packed (Mineq_radix.Rnetwork.packed g)

let fabric t = t.fab

let control t ~stage ~output = t.ctrl.(stage).(output)

type blocked = {
  input : int;
  output : int;
  stage : int;
  cell : int;
  port : int;
}

type outcome = Routed | Blocked of blocked

(* The walkers live at module level with explicit arguments: inner
   [let rec] closures would allocate per path attempt and break the
   zero-alloc contract of the setup hot path. *)

(* Re-walk the deterministic prefix [0, upto) releasing its claims. *)
let rec unwind_from t plan output upto s cell ip =
  if s < upto then begin
    Plan.release plan ~stage:s ~cell ~in_port:ip;
    let op = t.ctrl.(s).(output) in
    let a = (t.fab.Fabric.radix * cell) + op in
    unwind_from t plan output upto (s + 1) t.fab.Fabric.child.(s).(a)
      t.fab.Fabric.in_port.(s).(a)
  end

(* Forward walk.  Returns -1 on success, or the packed contested link
   [((stage * per) + cell) * radix + port] after unwinding. *)
let rec walk_from t plan input output s cell ip =
  let fab = t.fab in
  let r = fab.Fabric.radix in
  let op = t.ctrl.(s).(output) in
  match Plan.claim plan ~stage:s ~cell ~in_port:ip ~out_port:op with
  | Plan.In_busy ->
      unwind_from t plan output s 0 (input / r) (input mod r);
      (((s * fab.Fabric.per) + cell) * r) + ip
  | Plan.Out_busy ->
      unwind_from t plan output s 0 (input / r) (input mod r);
      (((s * fab.Fabric.per) + cell) * r) + op
  | Plan.Claimed ->
      if s = fab.Fabric.stages - 1 then -1
      else
        let a = (r * cell) + op in
        walk_from t plan input output (s + 1) fab.Fabric.child.(s).(a)
          fab.Fabric.in_port.(s).(a)

let walk t plan ~input ~output =
  let r = t.fab.Fabric.radix in
  walk_from t plan input output 0 (input / r) (input mod r)

let check t ~input ~output =
  let n = Fabric.terminals t.fab in
  if input < 0 || input >= n then invalid_arg "Bit_follow: input out of range";
  if output < 0 || output >= n then invalid_arg "Bit_follow: output out of range"

let try_route t plan ~input ~output =
  check t ~input ~output;
  walk t plan ~input ~output = -1

let route t plan ~input ~output =
  check t ~input ~output;
  let code = walk t plan ~input ~output in
  if code = -1 then Routed
  else
    let r = t.fab.Fabric.radix in
    let per = t.fab.Fabric.per in
    let port = code mod r in
    let sc = code / r in
    Blocked { input; output; stage = sc / per; cell = sc mod per; port }
