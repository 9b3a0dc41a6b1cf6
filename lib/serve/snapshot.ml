module Memo = Mineq_engine.Memo

type payload = {
  equiv : Proto.verdict Memo.entry array;
  lint : Proto.lint_cached Memo.entry array;
  blocking : Proto.blocking_cached Memo.entry array;
}

let empty = { equiv = [||]; lint = [||]; blocking = [||] }

let entry_count p =
  Array.length p.equiv + Array.length p.lint + Array.length p.blocking

let magic = "MINEQSNAP"

(* 2: the equiv cache exports structural ([Skey]) entries instead of
   fingerprint ([Fkey]) ones, the structural hash orders each cell's
   two ports, and [Mi_digraph.t] gained its structural-hash slot — a
   version-1 payload unmarshalled into the new record layout would
   read past the end of each network block.
   3: lint entries hold their report as [Proto.Raw] text.  An older
   binary's [Proto.json] has no such constructor: unmarshalled there,
   its block tag matches no case of the renderer. *)
let version = 3

type error =
  | Missing
  | Bad_magic
  | Stale_version of int
  | Truncated
  | Bad_checksum
  | Io of string

let error_to_string = function
  | Missing -> "no snapshot file"
  | Bad_magic -> "not a mineq snapshot file (bad magic)"
  | Stale_version v ->
      Printf.sprintf "snapshot version %d does not match this binary's %d" v version
  | Truncated -> "snapshot file is shorter than its header claims"
  | Bad_checksum -> "snapshot payload fails its checksum"
  | Io m -> Printf.sprintf "snapshot I/O failure: %s" m

exception Injected_crash

let put_be bytes off width v =
  for i = 0 to width - 1 do
    Bytes.set bytes (off + i) (Char.chr ((v lsr (8 * (width - 1 - i))) land 0xff))
  done

let get_be s off width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let header_len = 9 + 4 + 8 + 16

let save ?(version = version) ?crash_after ~path payload =
  let body = Marshal.to_string payload [] in
  let digest = Digest.string body in
  let total = header_len + String.length body in
  let buf = Bytes.create total in
  Bytes.blit_string magic 0 buf 0 9;
  put_be buf 9 4 version;
  put_be buf 13 8 (String.length body);
  Bytes.blit_string digest 0 buf 21 16;
  Bytes.blit_string body 0 buf header_len (String.length body);
  let tmp = path ^ ".tmp" in
  (* 0o600: the payload is Marshal data, and [load] trusts it once
     the checksum matches — nobody else should be able to write (or
     read) the file.  See the mli's trust note. *)
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600 tmp in
  (match crash_after with
  | Some n when n < total ->
      (* Simulated kill: flush a prefix and abandon the temp file
         without renaming — the snapshot at [path] must survive. *)
      output_bytes oc (Bytes.sub buf 0 (max 0 n));
      close_out oc;
      raise Injected_crash
  | _ -> ());
  output_bytes oc buf;
  close_out oc;
  Sys.rename tmp path

let load ~path =
  if not (Sys.file_exists path) then Error Missing
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let size = in_channel_length ic in
          if size < header_len then
            if size >= 9 then begin
              let m = really_input_string ic 9 in
              if m <> magic then Error Bad_magic else Error Truncated
            end
            else Error Bad_magic
          else begin
            let header = really_input_string ic header_len in
            if String.sub header 0 9 <> magic then Error Bad_magic
            else begin
              let v = get_be header 9 4 in
              if v <> version then Error (Stale_version v)
              else begin
                let body_len = get_be header 13 8 in
                let digest = String.sub header 21 16 in
                if body_len < 0 || size - header_len < body_len then Error Truncated
                else begin
                  let body = really_input_string ic body_len in
                  if Digest.string body <> digest then Error Bad_checksum
                  else Ok (Marshal.from_string body 0 : payload)
                end
              end
            end
          end)
    with
    | result -> result
    | exception Sys_error m -> Error (Io m)
    | exception End_of_file -> Error Truncated
    | exception Failure m -> Error (Io m)
    | exception Invalid_argument m -> Error (Io m)
