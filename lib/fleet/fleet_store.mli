(** Time-windowed, digest-protected profile segments.

    The fleet's profile store: one compact binary file per segment
    (one {!Exp_codec.Bin} frame, checked by the run cache's frame
    reader; {!Exp_store}'s directory discipline and atomic writes),
    each carrying per-window {e deltas} of the path / edge / DCG tables
    plus the method-name table — queries never rebuild a program.

    Reading a segment ({!decode}, {!load_all}) checks the whole file
    before the segment is returned: magic, version, MD5 digest, the
    header, the identity self-check, and the structure of all three
    row sections (each count in range, every varint well formed, no
    trailing bytes).  The header and method table are decoded then;
    the rows are decoded when first asked for ({!rows}), into flat int
    arrays: path and DCG rows 3 ints each, edge rows 4, back to back
    in the file's order.  A loaded segment holds its file's bytes until
    then, and decoding them cannot fail.  The decoded rows are memoised
    in a [Lazy.t], so force them only on the domain that loaded the
    segment: OCaml 5 raises when two domains force one lazy value at
    once.

    Writes are atomic ({!Exp_store.write_file}) and reads are checked,
    so a crash or a damaged file never yields a wrong segment: a stray
    temp file is swept when the directory is prepared, and a file that
    fails its checks is a diagnostic, which the collector quarantines
    and collects again.

    Lifecycle: the collector saves one raw segment per (instance,
    window); {!compact} folds each (cohort, window)'s raws into one
    merged segment ([origin = -1]) and deletes them; {!retain} trims
    the oldest windows.  File names are MD5s of the identity key;
    {!load_all} returns segments sorted by identity, so every store
    scan is deterministic. *)

(** A segment's profile rows, flat: row [k] of a stride-[s] array is
    its ints [k*s .. k*s + s - 1].  Rows are sorted by their first two
    ints in merged segments and in the collector's raw ones. *)
type rows = {
  paths : int array;  (** stride 3: method, path id, count *)
  edges : int array;  (** stride 4: method, branch, taken, not-taken *)
  dcg : int array;  (** stride 3: caller (-1 = root), callee, weight *)
}

type segment = {
  cohort : Fleet.Cohort.t;
  window : Fleet.Window.t;
  origin : int;  (** contributing instance ordinal; -1 once merged *)
  instances : int;  (** instances contributing to the rows *)
  samples : int;  (** PEP samples taken in the window *)
  methods : string array;  (** dense method index → name *)
  rows : rows Lazy.t;
      (** decoded on first {!rows}; build one with [Lazy.from_val] *)
}

(** The segment's rows, decoded on the first call (see above). *)
val rows : segment -> rows

(** Canonical identity: cohort key + window key + origin. *)
val segment_key : segment -> string

(** [dir/<md5 of segment_key>.seg]. *)
val filename : dir:string -> segment -> string

(** Digest-protected write under the segment's identity name, through
    {!Exp_store.write_file} (temp file, then atomic rename), refused
    when a field holds a newline or a row array's length is not a
    multiple of its stride.  A run killed at any byte offset leaves
    the final name as it was or holding the complete segment, plus at
    most a stray [run-*.tmp] that {!Exp_store.prepare_dir} sweeps.  [inject] deterministically
    damages the write for chaos runs: [`Torn draw] leaves a strict
    prefix in a [run-*.tmp] beside the store with the final name
    untouched (the simulated kill before the rename), [`Flip draw]
    completes the write with one byte flipped (silent corruption only
    the digest check can see). *)
val save :
  ?inject:[ `Torn of int | `Flip of int ] ->
  dir:string ->
  segment ->
  (unit, Dcg.parse_error) result

(** Rename a damaged segment to [<file>.quarantined]: evidence kept,
    store no longer poisoned, identity name free for re-collection. *)
val quarantine : string -> (unit, Dcg.parse_error) result

(** Append to the degraded-data sidecar ([degraded.log]): [window] of
    [cohort] was rebuilt from quarantine or lost outright.  Provenance
    lives beside the segments, never inside them — a healed store must
    stay byte-identical to a never-damaged one. *)
val note_degraded :
  dir:string ->
  cohort:string ->
  window:int ->
  reason:string ->
  (unit, Dcg.parse_error) result

(** All degraded-data records, deduplicated and sorted:
    [(cohort name, window index, reason)]. *)
val load_degraded : dir:string -> (string * int * string) list

(** Decode one segment's bytes: magic, version, digest, shape (the
    row sections included) and identity self-check all validated before
    anything is returned; every failure is an [Error] naming [file].
    The rows are decoded later, by {!rows}. *)
val decode : file:string -> string -> (segment, Dcg.parse_error) result

(** Every [*.seg] in [dir], sorted by identity: cohort key, then window
    [lo], [hi] and [origin] (not by {!segment_key}'s text, which puts
    window 10 before window 2); equal identities (one segment under two
    file names) come back later file name first.  Every file is read
    and checked as {!decode} checks it; unreadable, corrupt, malformed
    or future-versioned files come back as diagnostics. *)
val load_all : dir:string -> segment list * Dcg.parse_error list

(** Fold same-cohort segments into one ([origin = -1]): windows
    spanned, rows summed; instance counts are summed over raw inputs
    and maxed over merged ones.
    @raise Invalid_argument on an empty list or mixed cohorts. *)
val merge : segment list -> segment

(** Merge every (cohort, window)'s raw segments and delete them.  A
    pre-existing merged segment survives only while it covers more
    instances than the fresh raws; otherwise it is rebuilt from them —
    so a degraded window heals as soon as a full re-collection lands.
    Returns (merged written, raws deleted, diagnostics). *)
val compact : dir:string -> int * int * Dcg.parse_error list

(** Delete segments older than the newest [max_windows] window indexes
    of their cohort; returns segments deleted. *)
val retain : dir:string -> max_windows:int -> int

(** Total size of the store's segment files, in bytes. *)
val store_bytes : dir:string -> int
