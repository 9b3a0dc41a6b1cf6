module Perm = Mineq_perm.Perm

type error = { line : int option; reason : string }

let error_to_string e =
  match e.line with
  | Some l -> Printf.sprintf "line %d: %s" l e.reason
  | None -> e.reason

let errorf ?line fmt = Printf.ksprintf (fun reason -> { line; reason }) fmt

type gap = Theta of Perm.t | Raw of Connection.t

let connection_of_gap ~n = function
  | Theta theta -> Pipid_net.connection ~n theta
  | Raw c -> c

let to_string g =
  let n = Mi_digraph.stages g in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "mineq-spec 1\n";
  Buffer.add_string buf (Printf.sprintf "stages %d\n" n);
  for i = 1 to n - 1 do
    let c = Mi_digraph.connection g i in
    (* A theta line reloads with Pipid_net's ports, so it is written
       only when those are the gap's own ([=] compares f and g port
       for port); recognize_gap alone matches the split-blind
       digraph. *)
    match Render.recognize_gap g i with
    | Some theta when c = Pipid_net.connection ~n theta ->
        Buffer.add_string buf "gap theta";
        Array.iter
          (fun v -> Buffer.add_string buf (" " ^ string_of_int v))
          (Perm.to_array theta);
        Buffer.add_char buf '\n'
    | Some _ | None ->
        Buffer.add_string buf "gap raw";
        for x = 0 to Connection.half c - 1 do
          Buffer.add_string buf (" " ^ string_of_int (Connection.f c x))
        done;
        Buffer.add_string buf " |";
        for x = 0 to Connection.half c - 1 do
          Buffer.add_string buf (" " ^ string_of_int (Connection.g c x))
        done;
        Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let gaps_of_string text =
  let lines = String.split_on_char '\n' text in
  let err line reason = Error { line = Some line; reason } in
  let strip l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
  let tokens l = String.split_on_char ' ' (strip l) |> List.filter (fun t -> t <> "") in
  let parse_ints line ts =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> (
          match int_of_string_opt t with
          | Some v -> go (v :: acc) rest
          | None -> err line (Printf.sprintf "expected integer, got %S" t))
    in
    go [] ts
  in
  let rec scan lineno lines state =
    match lines with
    | [] -> (
        match state with
        | `Gaps (n, gaps) ->
            let gaps = List.rev gaps in
            if List.length gaps <> n - 1 then
              Error
                (errorf "expected %d gap lines for %d stages, found %d" (n - 1) n
                   (List.length gaps))
            else Ok (n, gaps)
        | _ -> Error { line = None; reason = "truncated spec" })
    | line :: rest -> (
        match (tokens line, state) with
        | [], state -> scan (lineno + 1) rest state
        | [ "mineq-spec"; "1" ], `Start -> scan (lineno + 1) rest `Header
        | _, `Start -> err lineno "expected header: mineq-spec 1"
        | [ "stages"; sn ], `Header -> (
            match int_of_string_opt sn with
            | Some n when n >= 2 -> scan (lineno + 1) rest (`Gaps (n, []))
            | _ -> err lineno "stages needs an integer >= 2")
        | _, `Header -> err lineno "expected: stages <n>"
        | "gap" :: "theta" :: ts, `Gaps (n, gaps) -> (
            match parse_ints lineno ts with
            | Error _ as e -> e
            | Ok img -> (
                if List.length img <> n then err lineno "theta needs n images"
                else
                  match Perm.of_array (Array.of_list img) with
                  | exception Invalid_argument m -> err lineno m
                  | theta -> scan (lineno + 1) rest (`Gaps (n, Theta theta :: gaps))))
        | "gap" :: "raw" :: ts, `Gaps (n, gaps) -> (
            let half = 1 lsl (n - 1) in
            let rec split_bar acc = function
              | [] -> None
              | "|" :: rest -> Some (List.rev acc, rest)
              | t :: rest -> split_bar (t :: acc) rest
            in
            match split_bar [] ts with
            | None -> err lineno "raw gap needs a | separator"
            | Some (fs, gs) -> (
                match (parse_ints lineno fs, parse_ints lineno gs) with
                | Ok fs, Ok gs -> (
                    if List.length fs <> half || List.length gs <> half then
                      err lineno (Printf.sprintf "raw gap needs %d f and %d g images" half half)
                    else
                      match
                        Connection.of_arrays ~width:(n - 1) (Array.of_list fs)
                          (Array.of_list gs)
                      with
                      | exception Invalid_argument m -> err lineno m
                      | c -> scan (lineno + 1) rest (`Gaps (n, Raw c :: gaps)))
                | (Error _ as e), _ | _, (Error _ as e) -> e))
        | _, `Gaps _ -> err lineno "expected a gap line")
  in
  scan 1 lines `Start

let of_string text =
  match gaps_of_string text with
  | Error _ as e -> e
  | Ok (n, gaps) -> (
      match Mi_digraph.create (List.map (connection_of_gap ~n) gaps) with
      | g -> Ok g
      | exception Invalid_argument m -> Error { line = None; reason = m })

let save path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error m -> Error { line = None; reason = m }
