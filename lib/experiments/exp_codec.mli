(** The run cache's wire format, and the binary frame and row section
    both on-disk stores share.

    The run cache holds four kinds of entry, all at format version 4:
    - a run entry is one [PEPRUN] frame: magic, version byte, the
      identity key's MD5, the measurement, the four profile tables as
      row sections ({!Bin.rows}), then an MD5 trailer;
    - an adaptive series entry is one [PEPSER] frame: magic, version
      byte, the identity key's MD5, the per-trial totals as varints,
      then an MD5 trailer;
    - a values entry is one [PEPVAL] frame: magic, version byte, the
      identity key's MD5, a count, each value's 64 IEEE bits
      (little-endian), then an MD5 trailer — a benchmark's comparator
      values, for instance, in 105 bytes;
    - an advice entry is one [PEPADV] frame: magic, version byte, the
      identity key's MD5, a count, each {!Advice.row} as a tag and its
      numbers in varints (a method left at baseline has no row), then
      an MD5 trailer — about 120 bytes for a suite benchmark at scale
      0.05, where its {!Advice.to_lines} text alone takes about 220.

    An entry embeds the 16-byte MD5 of its identity key rather than the
    key text (about 140 bytes, mostly two hex digests).  A damaged entry
    fails the digest check, a stale one fails the key-digest comparison
    (reported as [stale cache entry], naming the expected key), and
    anything else — an unknown version, another kind's frame, another
    format's bytes — fails the frame checks; always as a structured
    {!Dcg.parse_error}, never a silent miss or a crash.

    The {!Bin} submodule holds the binary primitives, the row section
    and the frame checks, so the fleet's profile segments
    ({!Fleet_store}) share one wire vocabulary, one row reader and one
    frame reader.  There is no migration: an entry of an older format
    version fails the frame checks, and the caller recomputes it. *)

(** Everything needed to rebuild an [Exp_harness.run] without executing
    the application: the measurement, the sample count, and the
    collected profile tables as flat rows — stride 3 from
    {!Path_profile.rows}, stride 4 from {!Edge_profile.rows}. *)
type payload = {
  iter1 : int;
  iter2 : int;
  compile : int;
  checksum : int;
  n_samples : int;
  pep_paths : int array;  (** stride 3: method, path id, count *)
  pep_edges : int array;  (** stride 4: method, branch, taken, not-taken *)
  ppaths : int array;  (** stride 3 *)
  pedges : int array;  (** stride 4 *)
}

(** Low-level binary wire format: unsigned LEB128 varints over
    zigzag-mapped ints (small magnitudes stay short, negatives legal),
    length-prefixed strings, row sections, and frames — a magic, a
    version byte, the body, and an MD5 trailer over everything before
    it. *)
module Bin : sig
  type writer

  (** Start a frame: [magic], then the [version] byte.  Close it with
      {!contents_with_digest}. *)
  val frame : magic:string -> version:int -> writer

  val byte : writer -> int -> unit
  val int : writer -> int -> unit
  val str : writer -> string -> unit

  (** A float as its 64 IEEE bits, little-endian: NaN payloads, [-0.0]
      and subnormals survive bit for bit. *)
  val float : writer -> float -> unit

  (** [rows w ~stride a] writes flat rows of [stride] ints as one row
      section: the row count, then every int of [a], in order.
      @raise Invalid_argument when [a]'s length is not a multiple of
      [stride]. *)
  val rows : writer -> stride:int -> int array -> unit

  (** The accumulated bytes plus a 16-byte raw MD5 digest of them. *)
  val contents_with_digest : writer -> string

  (** A bounds-checked cursor over a frame's body. *)
  type reader

  val rbyte : reader -> int
  val rint : reader -> int
  val rstr : reader -> string
  val rfloat : reader -> float

  (** An element count: a non-negative varint no larger than the bytes
      left (every element takes at least one), so a forged count cannot
      drive a huge allocation. *)
  val rcount : reader -> int

  (** [rrows r ~stride] reads a {!rows} section.  It checks the
      section now — the row count, as {!rcount}, and every varint, as
      {!rint} would — and moves past it without decoding it.  The
      returned function decodes the rows on each call, into a fresh
      array; it cannot fail, since the bytes it reads were checked. *)
  val rrows : reader -> stride:int -> unit -> int array

  (** Reject the frame being read, with [reason] as the diagnostic; for
      use inside {!check_frame}'s [body]. *)
  val fail : string -> 'a

  (** [check_frame ~magic ~version ~what ~file s body] checks that [s]
      is one whole frame — long enough, [magic], version byte
      [version], matching digest trailer — before reading anything,
      then runs [body] over the bytes between header and trailer and
      requires it to consume all of them.  Every failure comes back as
      an [Error] naming [file]: a failed frame check, a read past the
      end, a {!fail} from [body], or trailing bytes.  [what] names the
      format in diagnostics (["cache"], ["segment"]). *)
  val check_frame :
    magic:string ->
    version:int ->
    what:string ->
    file:string ->
    string ->
    (reader -> 'a) ->
    ('a, Dcg.parse_error) result
end

(** Full file bytes of a run entry for a payload under its identity
    [key]: the measurement, then each profile table as one row section
    ({!Bin.rows}: a row count, then the ints).  {!decode}∘[encode] is
    the identity on every payload, any ints included.
    @raise Invalid_argument when a profile array's length is not a
    multiple of its stride. *)
val encode : key:string -> payload -> string

(** Decode a run entry's bytes, verifying frame, digest, shape and
    [key]; [file] only labels diagnostics.  A row count past the
    frame's end, a malformed varint or bytes after the last section is
    an [Error], as is any version but 4 (v3 included).  The rows'
    values are not checked here: that is {!Exp_harness.rebuild}'s job,
    against the program. *)
val decode :
  file:string -> key:string -> string -> (payload, Dcg.parse_error) result

(** Full file bytes of an adaptive series entry: the per-trial totals
    under their identity [key]. *)
val encode_series : key:string -> int list -> string

(** Decode a series entry's bytes, verifying frame, digest and [key];
    [file] only labels diagnostics.  Any other kind of entry is rejected
    as foreign here, as a series entry is by {!decode} and
    {!decode_values}. *)
val decode_series :
  file:string -> key:string -> string -> (int list, Dcg.parse_error) result

(** Full file bytes of a values entry: derived floats under their
    identity [key], each kept as its exact bits. *)
val encode_values : key:string -> float list -> string

(** Decode a values entry's bytes, verifying frame, digest and [key];
    [file] only labels diagnostics.  Any other kind of entry is rejected
    as foreign. *)
val decode_values :
  file:string -> key:string -> string -> (float list, Dcg.parse_error) result

(** Full file bytes of an advice entry: the advice's {!Advice.rows}
    under their identity [key]. *)
val encode_advice : key:string -> Advice.t -> string

(** Decode an advice entry's bytes, verifying frame, digest and [key],
    then its rows against a program of [n_methods] methods by
    {!Advice.of_rows} (the checks {!Advice.of_lines} applies to text);
    [file] only labels diagnostics.  Any other kind of entry is rejected
    as foreign, as an advice entry is by {!decode}, {!decode_series} and
    {!decode_values}. *)
val decode_advice :
  n_methods:int ->
  file:string ->
  key:string ->
  string ->
  (Advice.t, Dcg.parse_error) result
