(* JSON ------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list
  | Raw of string

let add_string = Mineq_analysis.Report.add_json_string

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.17g round-trips every float; trim the common integral case. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> add_string buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'
  | Raw text -> Buffer.add_string buf text

let json_to_string v =
  let buf = Buffer.create 256 in
  render buf v;
  Buffer.contents buf

(* Recursive-descent parser.  Positions are tracked for error
   messages; the grammar is full JSON with the usual escapes
   (\uXXXX decoded to UTF-8). *)

exception Parse_fail of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_fail m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %C at offset %d, found %C" c !pos c'
    | None -> fail "expected %C at offset %d, found end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal at offset %d" !pos
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape at offset %d" !pos;
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = s.[!pos] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit %C in \\u escape at offset %d" c !pos
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    (* Runs of plain bytes are copied whole; only escapes are decoded
       one at a time. *)
    let rec go start =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          Buffer.add_substring buf s start (!pos - start);
          advance ()
      | '\\' -> (
          Buffer.add_substring buf s start (!pos - start);
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' -> add_utf8 buf (hex4 ())
              | c -> fail "bad escape \\%C at offset %d" c !pos);
              go !pos)
      | _ ->
          advance ();
          go start
    in
    go !pos;
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_int = ref true in
    if peek () = Some '-' then advance ();
    while
      match peek () with
      | Some ('0' .. '9') -> true
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
          is_int := false;
          true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_int then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Out of native range: fall back to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number %S at offset %d" text start)
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S at offset %d" text start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected %C at offset %d" c !pos
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after JSON value at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse_fail m -> Error m

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let to_int ?default v =
  match v with Int i -> Some i | Null -> default | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

(* Framing ----------------------------------------------------------- *)

let max_frame_default = 1 lsl 20

let frame_payload_max = 0xffff_ffff

type frame_error = Closed | Oversized of int

let rec write_all fd buf off len =
  if len > 0 then begin
    let written =
      try Unix.write fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + written) (len - written)
  end

let add_frame buf payload =
  let len = String.length payload in
  if len > frame_payload_max then
    invalid_arg
      (Printf.sprintf
         "Proto.add_frame: %d-byte payload does not fit the 4-byte length header" len);
  Buffer.add_int32_be buf (Int32.of_int len);
  Buffer.add_string buf payload

let frame payload =
  let buf = Buffer.create (4 + String.length payload) in
  add_frame buf payload;
  Buffer.contents buf

let write_frame fd payload =
  let b = Bytes.unsafe_of_string (frame payload) in
  write_all fd b 0 (Bytes.length b)

let read_exact fd buf off len =
  let rec go off len =
    if len = 0 then true
    else
      let n =
        try Unix.read fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if n < 0 then go off len else if n = 0 then false else go (off + n) (len - n)
  in
  go off len

let read_frame ?(max_frame = max_frame_default) fd =
  let header = Bytes.create 4 in
  if not (read_exact fd header 0 4) then Error Closed
  else begin
    let len =
      (Char.code (Bytes.get header 0) lsl 24)
      lor (Char.code (Bytes.get header 1) lsl 16)
      lor (Char.code (Bytes.get header 2) lsl 8)
      lor Char.code (Bytes.get header 3)
    in
    if len > max_frame then Error (Oversized len)
    else begin
      let payload = Bytes.create len in
      if read_exact fd payload 0 len then Ok (Bytes.unsafe_to_string payload)
      else Error Closed
    end
  end

(* Requests ---------------------------------------------------------- *)

type request = {
  id : json;
  op : string;
  network : string option;
  spec : string option;
  n : int;
  method_ : string option;
  deadline_ms : float option;
}

let n_limit = 16

let request_of_json v =
  match v with
  | Obj _ -> (
      match member "op" v with
      | Str op -> (
          let str_field name =
            match member name v with
            | Str s -> Ok (Some s)
            | Null -> Ok None
            | _ -> Error (Printf.sprintf "field %S must be a string" name)
          in
          match (str_field "network", str_field "spec", str_field "method") with
          | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m
          | Ok network, Ok spec, Ok method_ -> (
              match to_int ~default:4 (member "n" v) with
              | None -> Error "field \"n\" must be an integer"
              | Some n when n < 2 || n > n_limit ->
                  Error
                    (Printf.sprintf "field \"n\" must be between 2 and %d, got %d" n_limit
                       n)
              | Some n -> (
                  match (member "deadline_ms" v, to_float (member "deadline_ms" v)) with
                  | Null, _ ->
                      Ok
                        { id = member "id" v; op; network; spec; n; method_;
                          deadline_ms = None
                        }
                  | _, Some d ->
                      Ok
                        { id = member "id" v; op; network; spec; n; method_;
                          deadline_ms = Some d
                        }
                  | _, None -> Error "field \"deadline_ms\" must be a number")))
      | Null -> Error "request lacks an \"op\" field"
      | _ -> Error "field \"op\" must be a string")
  | _ -> Error "request must be a JSON object"

let request_to_json r =
  let fields = [ ("op", Str r.op) ] in
  let fields = if r.id = Null then fields else ("id", r.id) :: fields in
  let fields =
    match r.network with Some s -> ("network", Str s) :: fields | None -> fields
  in
  let fields = match r.spec with Some s -> ("spec", Str s) :: fields | None -> fields in
  let fields = ("n", Int r.n) :: fields in
  let fields =
    match r.method_ with Some s -> ("method", Str s) :: fields | None -> fields
  in
  let fields =
    match r.deadline_ms with Some d -> ("deadline_ms", Float d) :: fields | None -> fields
  in
  Obj (List.rev fields)

(* Responses --------------------------------------------------------- *)

let ok_response ~id fields = Obj (("ok", Bool true) :: ("id", id) :: fields)

let error_response ~id ~code ~message =
  Obj
    [ ("ok", Bool false);
      ("id", id);
      ("error", Obj [ ("code", Str code); ("message", Str message) ])
    ]

let response_ok v = match member "ok" v with Bool b -> b | _ -> false

let error_code v = to_string_opt (member "code" (member "error" v))

(* Cached verdict payloads ------------------------------------------- *)

type verdict = { equivalent : bool; banyan : bool; detail : string }

type lint_cached = { report : json; errors : int; warnings : int; infos : int }

type blocking_cached = { delta : bool; rows : (string * string) list }
