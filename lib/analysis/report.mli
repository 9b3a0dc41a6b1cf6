(** Rendering lint reports for humans and for machines. *)

val to_text : Lint.report -> string
(** Multi-line human report: summary header, then one block per
    finding with code, severity, witness, and hint. *)

val to_json : Lint.report -> string
(** Stable JSON document (schema ["mineq-lint/1"]):

    {v
    {
      "schema": "mineq-lint/1",
      "stages": 4,
      "width": 3,
      "symbolic_gaps": 3,
      "enumerated_gaps": 0,
      "banyan": true,
      "equivalent": true,
      "summary": { "errors": 0, "warnings": 0, "infos": 1 },
      "findings": [
        { "code": "MINEQ-I001", "severity": "info", "stage": null,
          "message": "...", "witness": null, "hint": null }
      ]
    }
    v} *)

val error_to_json : Mineq.Spec_io.error -> string
(** JSON for a parse failure (exit code 2):
    [{ "schema": "mineq-lint/1", "parse_error": { "line": ..., "reason": ... } }]. *)

(** {1 JSON building blocks}

    Shared by every report family ([mineq-lint/1],
    [mineq-route-lint/1]) so findings render identically
    everywhere. *)

val add_json_string : Buffer.t -> string -> unit
(** Append a string to the buffer as a quoted JSON string literal.
    The double quote and the backslash are backslash-escaped, newline
    and tab become [\n] and [\t], every other byte below 0x20
    becomes [\u00XX] in lowercase hex (carriage return is
    [\u000d]), and all other bytes, DEL and non-ASCII included, are
    copied as they are.  This is the one escaping rule of every JSON
    producer here: {!json_string}, the lint reports and the [serve]
    wire protocol. *)

val json_string : string -> string
(** {!add_json_string} into a fresh string. *)

val finding_to_json : Diagnostics.finding -> string
(** One finding as a JSON object — the element shape of every
    [findings] array. *)
