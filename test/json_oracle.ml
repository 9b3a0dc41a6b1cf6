(* Reference JSON renderer for [Mineq_serve.Proto.json_to_string].  It
   is the renderer the one-pass encoder replaced: each string escaped
   byte by byte into a fresh buffer and quoted with [Printf.sprintf],
   each list walked with [List.iteri].  It shares no code with
   [Mineq_analysis.Report.add_json_string], so a drift in the escaping
   rule or the layout shows as a byte difference. *)

module Proto = Mineq_serve.Proto

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = Printf.sprintf "\"%s\"" (escape s)

let rec render buf = function
  | Proto.Null -> Buffer.add_string buf "null"
  | Proto.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Proto.Int i -> Buffer.add_string buf (string_of_int i)
  | Proto.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Proto.Str s -> Buffer.add_string buf (json_string s)
  | Proto.Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
  | Proto.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (json_string k);
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'
  | Proto.Raw text -> Buffer.add_string buf text

let to_string v =
  let buf = Buffer.create 256 in
  render buf v;
  Buffer.contents buf
