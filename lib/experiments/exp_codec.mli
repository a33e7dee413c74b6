(** The run cache's wire format, and the binary frame both on-disk
    stores share.

    The run cache holds two kinds of entry, both at format version 3:
    - a run entry is one [PEPRUN] frame: magic, version byte, the
      identity key's MD5, the measurement and the four profile tables as
      varints, then an MD5 trailer;
    - an adaptive series entry is one [PEPSER] frame: magic, version
      byte, the identity key's MD5, the per-trial totals as varints,
      then an MD5 trailer.

    An entry embeds the 16-byte MD5 of its identity key rather than the
    key text (about 140 bytes, mostly two hex digests).  A damaged entry
    fails the digest check, a stale one fails the key-digest comparison
    (reported as [stale cache entry], naming the expected key), and
    anything else — an unknown version, the other kind's frame, another
    format's bytes — fails the frame checks; always as a structured
    {!Dcg.parse_error}, never a silent miss or a crash.

    The {!Bin} submodule holds the binary primitives and the frame
    checks, so the fleet's profile segments ({!Fleet_store}) share one
    wire vocabulary and one frame reader. *)

(** Everything needed to rebuild an [Exp_harness.run] without executing
    the application: the measurement, the sample count, and the
    collected profile tables in their [to_lines] serialization. *)
type payload = {
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

(** Low-level binary wire format: unsigned LEB128 varints over
    zigzag-mapped ints (small magnitudes stay short, negatives legal),
    length-prefixed strings, and frames — a magic, a version byte, the
    body, and an MD5 trailer over everything before it. *)
module Bin : sig
  type writer

  (** Start a frame: [magic], then the [version] byte.  Close it with
      {!contents_with_digest}. *)
  val frame : magic:string -> version:int -> writer

  val byte : writer -> int -> unit
  val int : writer -> int -> unit
  val str : writer -> string -> unit

  (** The accumulated bytes plus a 16-byte raw MD5 digest of them. *)
  val contents_with_digest : writer -> string

  (** A bounds-checked cursor over a frame's body. *)
  type reader

  val rbyte : reader -> int
  val rint : reader -> int
  val rstr : reader -> string

  (** An element count: a non-negative varint no larger than the bytes
      left (every element takes at least one), so a forged count cannot
      drive a huge allocation. *)
  val rcount : reader -> int

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
    [key].  Profile lines whose fields are all integers are packed as
    varint rows; anything else falls back to length-prefixed strings, so
    {!decode}∘[encode] is the identity on arbitrary payloads. *)
val encode : key:string -> payload -> string

(** Decode a run entry's bytes, verifying frame, digest, shape and
    [key]; [file] only labels diagnostics. *)
val decode :
  file:string -> key:string -> string -> (payload, Dcg.parse_error) result

(** Full file bytes of an adaptive series entry: the per-trial totals
    under their identity [key]. *)
val encode_series : key:string -> int list -> string

(** Decode a series entry's bytes, verifying frame, digest and [key];
    [file] only labels diagnostics.  A run entry is rejected as foreign
    here, as a series entry is by {!decode}. *)
val decode_series :
  file:string -> key:string -> string -> (int list, Dcg.parse_error) result
