(** The run cache's wire format, and the binary frame both on-disk
    stores share.

    A run-cache entry is one [PEPRUN] frame: magic, version byte, the
    composite identity key, the measurement and the four profile tables
    as varints, then an MD5 trailer.  A damaged entry fails the digest
    check, a stale one fails the key comparison, and anything else — an
    unknown version, another format's bytes — fails the frame checks;
    always as a structured {!Dcg.parse_error}, never a silent miss or a
    crash.

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

(** Full file bytes for a payload under its identity [key].  Profile
    lines whose fields are all integers are packed as varint rows;
    anything else falls back to length-prefixed strings, so
    {!decode}∘[encode] is the identity on arbitrary payloads. *)
val encode : key:string -> payload -> string

(** Decode full file bytes, verifying frame, digest, shape and [key];
    [file] only labels diagnostics. *)
val decode :
  file:string -> key:string -> string -> (payload, Dcg.parse_error) result
