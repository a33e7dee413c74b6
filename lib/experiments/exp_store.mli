(** On-disk storage for experiment run payloads, adaptive series,
    derived values and replay advice.

    One file per (workload, size, seed, configuration) run, one per
    (workload, size, seed, configuration, trials) adaptive series, one
    per (workload, size, seed, configuration, tag) set of derived
    values, and one per (workload, size, seed, warmup) advice, keyed by a composite identity that embeds digests of the
    compiled program and cost model (built by {!Exp_cache}).  The bytes inside are one
    {!Exp_codec} frame, which embeds the identity key's MD5.  Loading
    validates magic, version, content digest, key digest and record
    shape before returning anything; every failure — an entry in any
    other format included — is a structured {!Dcg.parse_error}, so
    callers recompute with a diagnostic instead of trusting or crashing
    on a bad entry. *)

(** Re-export of {!Exp_codec.payload}: everything needed to rebuild an
    {!Exp_harness.run} without executing the application. *)
type payload = Exp_codec.payload = {
  iter1 : int;
  iter2 : int;
  compile : int;
  checksum : int;
  n_samples : int;
  pep_paths : string list;
  pep_edges : string list;
  ppaths : string list;
  pedges : string list;
}

(** [filename ~dir file_key] is the store path for a run, series,
    values or advice identity: [dir/<md5 hex of file_key>.run]. *)
val filename : dir:string -> string -> string

(** Create [dir] (and parents) if missing.  [Error] carries a
    structured diagnostic: permission denied, or a path component that
    exists but is not a directory.  Concurrent creation by another
    worker is tolerated. *)
val ensure_dir : string -> (unit, Dcg.parse_error) result

(** {!ensure_dir}, plus: sweep stray [run-*.tmp] files left by a crash
    between temp-write and rename (they are never read, only
    accumulate), and probe that the directory is actually writable so
    an unusable store directory surfaces as one diagnostic at open
    instead of a silent recompute on every run.  Call when opening a
    store directory. *)
val prepare_dir : string -> (unit, Dcg.parse_error) result

(** Read a whole file as bytes; [Error] is a structured diagnostic. *)
val read_file : string -> (string, Dcg.parse_error) result

(** Atomically (a [run-*.tmp] file in the target directory, then
    rename) write [contents] to [file], creating missing directories.
    Shared by the run cache and the fleet segment store. *)
val write_file : file:string -> string -> (unit, Dcg.parse_error) result

(** Persist a payload under [key].  All I/O failures are structured
    errors, never exceptions. *)
val save : file:string -> key:string -> payload -> (unit, Dcg.parse_error) result

(** [Ok None] when no entry exists; [Error _] for stale (key
    mismatch), corrupt (digest mismatch), truncated, unreadable or
    foreign (other format or version) entries. *)
val load :
  file:string -> key:string -> (payload option, Dcg.parse_error) result

(** {!save} for an adaptive series: the per-trial totals. *)
val save_series :
  file:string -> key:string -> int list -> (unit, Dcg.parse_error) result

(** {!load} for an adaptive series; any other kind of entry at [file]
    is an [Error] (foreign entry). *)
val load_series :
  file:string -> key:string -> (int list option, Dcg.parse_error) result

(** {!save} for derived values (e.g. a benchmark's comparator values). *)
val save_values :
  file:string -> key:string -> float list -> (unit, Dcg.parse_error) result

(** {!load} for derived values; any other kind of entry at [file] is an
    [Error] (foreign entry). *)
val load_values :
  file:string -> key:string -> (float list option, Dcg.parse_error) result

(** {!save} for a benchmark's replay advice. *)
val save_advice :
  file:string -> key:string -> Advice.t -> (unit, Dcg.parse_error) result

(** {!load} for a replay advice, its rows checked against a program of
    [n_methods] methods; any other kind of entry at [file] is an
    [Error] (foreign entry). *)
val load_advice :
  n_methods:int ->
  file:string ->
  key:string ->
  (Advice.t option, Dcg.parse_error) result
