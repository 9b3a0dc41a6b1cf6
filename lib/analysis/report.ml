module D = Diagnostics

let to_text (r : Lint.report) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%d stages (width %d): %d symbolic gap(s), %d enumerated\n" r.stages r.width
    r.symbolic_gaps r.enumerated_gaps;
  add "banyan: %b, baseline-equivalent: %b\n" r.banyan r.equivalent;
  add "%d error(s), %d warning(s), %d info(s)\n" (Lint.errors r) (Lint.warnings r)
    (Lint.infos r);
  List.iter
    (fun (f : D.finding) ->
      add "\n%s %s%s\n  %s\n"
        (D.severity_name f.severity |> String.uppercase_ascii)
        f.code
        (match f.stage with Some s -> Printf.sprintf " (gap %d)" s | None -> "")
        f.message;
      Option.iter (add "  witness: %s\n") f.witness;
      Option.iter (add "  hint: %s\n") f.hint)
    r.findings;
  Buffer.contents buf

(* Hand-rolled JSON, same style as the bench artifact writers.  Every
   JSON producer in the repository escapes through [add_json_string]:
   runs of plain bytes are copied whole, and only the double quote,
   the backslash and the control bytes are rewritten. *)

let hex_digits = "0123456789abcdef"

let add_json_string buf s =
  Buffer.add_char buf '"';
  let len = String.length s in
  let rec go start i =
    if i = len then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s start (i - start);
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\t' -> Buffer.add_string buf "\\t"
          | c ->
              Buffer.add_string buf "\\u00";
              Buffer.add_char buf hex_digits.[Char.code c lsr 4];
              Buffer.add_char buf hex_digits.[Char.code c land 0xf]);
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_json_string buf s;
  Buffer.contents buf

let json_opt_string = function None -> "null" | Some s -> json_string s

let json_opt_int = function None -> "null" | Some i -> string_of_int i

let finding_to_json (f : D.finding) =
  Printf.sprintf
    "{ \"code\": %s, \"severity\": %s, \"stage\": %s, \"message\": %s, \"witness\": %s, \"hint\": %s }"
    (json_string f.code)
    (json_string (D.severity_name f.severity))
    (json_opt_int f.stage) (json_string f.message) (json_opt_string f.witness)
    (json_opt_string f.hint)

let to_json (r : Lint.report) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"mineq-lint/1\",\n";
  add "  \"stages\": %d,\n" r.stages;
  add "  \"width\": %d,\n" r.width;
  add "  \"symbolic_gaps\": %d,\n" r.symbolic_gaps;
  add "  \"enumerated_gaps\": %d,\n" r.enumerated_gaps;
  add "  \"banyan\": %b,\n" r.banyan;
  add "  \"equivalent\": %b,\n" r.equivalent;
  add "  \"summary\": { \"errors\": %d, \"warnings\": %d, \"infos\": %d },\n" (Lint.errors r)
    (Lint.warnings r) (Lint.infos r);
  add "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then add ",";
      add "\n    %s" (finding_to_json f))
    r.findings;
  if r.findings <> [] then add "\n  ";
  add "]\n}\n";
  Buffer.contents buf

let error_to_json (e : Mineq.Spec_io.error) =
  Printf.sprintf
    "{\n  \"schema\": \"mineq-lint/1\",\n  \"parse_error\": { \"line\": %s, \"reason\": %s }\n}\n"
    (json_opt_int e.Mineq.Spec_io.line)
    (json_string e.Mineq.Spec_io.reason)
