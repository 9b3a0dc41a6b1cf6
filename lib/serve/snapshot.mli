(** Disk persistence for the service's warm verdict caches.

    A snapshot file is:

    {v
    "MINEQSNAP"            9 bytes   magic
    version                4 bytes   big-endian
    payload length         8 bytes   big-endian
    MD5(payload)          16 bytes
    payload                          Marshal of {!payload}
    v}

    The payload is the {!Mineq_engine.Memo.export} of each cache —
    plain data (networks are int-array records with their cache slots,
    fingerprints are two ints), so [Marshal] round-trips it without
    closures.  Since version 2 every cache, [equiv] included, exports
    structural ([Skey]) entries.  Since version 3 a lint entry's
    report is {!Proto.Raw} compact text, which a version-2 binary
    cannot render, so neither reads the other's files.  Writes go to
    [path ^ ".tmp"] and rename into place, so a crash mid-write leaves
    the previous snapshot intact: write-behind is durable at the
    granularity of the last completed save.

    Loading verifies magic, version and checksum {e before}
    unmarshalling; any mismatch is a typed {!error}, never an
    exception — the daemon boots with an empty cache and a warning
    instead of crashing on a stale or torn file.

    {b Trust.}  The checksum guards against {e accidental}
    corruption, not tampering: anyone who can write the file can
    also write a matching digest, and [Marshal.from_string] on
    crafted bytes is memory-unsafe.  The snapshot path must therefore
    be private to the daemon — {!save} creates it [0o600], and it
    should live in a directory other users cannot write. *)

type payload = {
  equiv : Proto.verdict Mineq_engine.Memo.entry array;
  lint : Proto.lint_cached Mineq_engine.Memo.entry array;
  blocking : Proto.blocking_cached Mineq_engine.Memo.entry array;
}

val empty : payload

val entry_count : payload -> int

val version : int
(** Bumped whenever {!payload} (or anything it references, such as
    the {!Mineq.Mi_digraph.t} record or the meaning of its cached
    structural hash) changes shape; older files are rejected with
    {!Stale_version} rather than unmarshalled into the wrong layout,
    which would be memory-unsafe. *)

type error =
  | Missing  (** no file at the path *)
  | Bad_magic  (** not a snapshot file *)
  | Stale_version of int  (** written by a different payload layout *)
  | Truncated  (** shorter than its header claims *)
  | Bad_checksum  (** payload bytes do not match the stored MD5 *)
  | Io of string  (** open/read failure *)

val error_to_string : error -> string

exception Injected_crash
(** Raised by {!save} when [crash_after] is set — the write-behind
    durability tests' stand-in for a kill arriving mid-write. *)

val save : ?version:int -> ?crash_after:int -> path:string -> payload -> unit
(** Atomic save: temp file (created [0o600]) + rename.  [version]
    overrides the header version (tests of stale-version rejection).
    [crash_after n] stops after writing [n] bytes of the temp file
    and raises {!Injected_crash} without renaming — the file at
    [path] is untouched. *)

val load : path:string -> (payload, error) result
(** Unmarshals only after magic, version and checksum pass; the file
    must come from a trusted {!save} (see the trust note above). *)
