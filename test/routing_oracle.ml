(* Reference path enumeration for the packed routing kernels of
   [Mineq.Routing].  It is the boxed enumeration those kernels
   replaced: every port-choice word from an input, with the cell and
   port arrays copied per output reached, and a delta check that
   compares words input by input.  It reads children through
   [Connection] / [Rconnection], never through the packed tables, so
   it shares no code with what it checks. *)

module M = Mineq.Mi_digraph
module R = Mineq.Routing

type net = {
  radix : int;
  stages : int;
  per : int;  (** cells per stage *)
  child : gap:int -> port:int -> int -> int;  (** 1-based gap *)
}

let of_network g =
  { radix = 2;
    stages = M.stages g;
    per = M.nodes_per_stage g;
    child =
      (fun ~gap ~port x ->
        let cf, cg = Mineq.Connection.children (M.connection g gap) x in
        if port = 0 then cf else cg)
  }

let of_rnetwork g =
  let module Rn = Mineq_radix.Rnetwork in
  { radix = Rn.radix g;
    stages = Rn.stages g;
    per = Rn.cells_per_stage g;
    child =
      (fun ~gap ~port x -> Mineq_radix.Rconnection.child (Rn.connection g gap) port x)
  }

let terminals net = net.radix * net.per

(* Every path from [input]'s cell: [found.(y)] lists the (cells,
   ports) of each one ending at output cell [y], exit port unset. *)
let paths_from net ~input =
  let n = net.stages in
  let src = input / net.radix in
  let found = Array.make net.per [] in
  let cells = Array.make n src in
  let ports = Array.make n 0 in
  let rec explore s cur =
    if s = n - 1 then found.(cur) <- (Array.copy cells, Array.copy ports) :: found.(cur)
    else
      for j = 0 to net.radix - 1 do
        let y = net.child ~gap:(s + 1) ~port:j cur in
        ports.(s) <- j;
        cells.(s + 1) <- y;
        explore (s + 1) y
      done
  in
  explore 0 src;
  found

let path_of net ~input ~output (cells, ports) =
  let ports = Array.copy ports in
  ports.(net.stages - 1) <- output mod net.radix;
  { R.input; output; cells = Array.copy cells; ports }

(* The single pair: [None] without a path, [Failure] with several. *)
let route net ~input ~output =
  match (paths_from net ~input).(output / net.radix) with
  | [] -> None
  | [ p ] -> Some (path_of net ~input ~output p)
  | _ -> failwith "Routing_oracle.route: multiple paths"

(* Paths to every output; [Failure] as soon as any output cell is
   reached twice. *)
let route_all_from net ~input =
  let found = paths_from net ~input in
  Array.init (terminals net) (fun output ->
      match found.(output / net.radix) with
      | [] -> None
      | [ p ] -> Some (path_of net ~input ~output p)
      | _ -> failwith "Routing_oracle.route_all_from: multiple paths")

let port_word net (p : R.path) =
  Array.fold_left (fun acc d -> (acc * net.radix) + d) 0 p.ports

(* [w.(c).(o)] from input [r * c]; [Failure] when not Banyan. *)
let port_words net =
  Array.init net.per (fun cell ->
      Array.map
        (function
          | Some p -> port_word net p
          | None -> failwith "Routing_oracle.port_words: missing path")
        (route_all_from net ~input:(net.radix * cell)))

(* Input by input: every output reached, by the same word from every
   input. *)
let delta_schedule net =
  let schedule = Array.make (terminals net) (-1) in
  match
    for input = 0 to terminals net - 1 do
      Array.iteri
        (fun output p ->
          match p with
          | None -> raise Exit
          | Some p ->
              let w = port_word net p in
              if schedule.(output) < 0 then schedule.(output) <- w
              else if schedule.(output) <> w then raise Exit)
        (route_all_from net ~input)
    done
  with
  | () -> Some schedule
  | exception (Exit | Failure _) -> None

(* When delta: [t.(s).(o)], the port taken at 0-based stage [s] toward
   output [o] — read off input 0's paths, not off the schedule word. *)
let destination_tag_table net =
  Option.map
    (fun _ ->
      let paths = route_all_from net ~input:0 in
      Array.init net.stages (fun s ->
          Array.map (fun p -> (Option.get p).R.ports.(s)) paths))
    (delta_schedule net)
