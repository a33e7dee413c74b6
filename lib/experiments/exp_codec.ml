(* The run cache's wire format, and the binary frame both on-disk
   stores share.

   A run entry is one PEPRUN frame (varint-packed profile rows, raw MD5
   trailer); an adaptive series entry is one PEPSER frame (the per-trial
   totals).  Both embed the 16-byte MD5 of the composite identity key,
   not the key text, so a damaged entry fails the digest check, a stale
   one fails the key-digest comparison, and a foreign or
   future-versioned one fails the frame checks — always a structured
   [Dcg.parse_error], never a silent miss or a crash. *)

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

(* --------------------------- binary wire --------------------------- *)

module Bin = struct
  type writer = Buffer.t

  let byte w b = Buffer.add_char w (Char.chr (b land 0xff))

  let frame ~magic ~version =
    let w = Buffer.create 512 in
    Buffer.add_string w magic;
    byte w version;
    w

  (* zigzag so small magnitudes of either sign stay short, then
     unsigned LEB128 over the 63-bit pattern ([lsr] is logical, so the
     loop terminates for negative intermediates too) *)
  let int w n =
    let rec put u =
      if u land lnot 0x7f = 0 then byte w u
      else begin
        byte w (u land 0x7f lor 0x80);
        put (u lsr 7)
      end
    in
    put ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let str w s =
    int w (String.length s);
    Buffer.add_string w s

  let contents_with_digest w =
    let body = Buffer.contents w in
    body ^ Digest.string body

  (* a read past the body's end: reported as truncation *)
  exception Malformed of string

  (* a body the format rejects: reported verbatim *)
  exception Reject of string

  let fail reason = raise (Reject reason)

  type reader = { s : string; limit : int; mutable p : int }

  let rbyte r =
    if r.p >= r.limit then raise (Malformed "unexpected end of input");
    let b = Char.code r.s.[r.p] in
    r.p <- r.p + 1;
    b

  (* top level, with [r] passed along: a local loop would allocate a
     closure per varint (no flambda) *)
  let rec rvarint r shift acc =
    if shift > 56 then raise (Malformed "varint too long");
    let b = rbyte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else rvarint r (shift + 7) acc

  let rint r =
    let u = rvarint r 0 0 in
    (u lsr 1) lxor ~-(u land 1)

  let rcount r =
    let k = rint r in
    if k < 0 || k > r.limit - r.p then raise (Malformed "count out of range");
    k

  let rstr r =
    let len = rcount r in
    let s = String.sub r.s r.p len in
    r.p <- r.p + len;
    s

  let check_frame ~magic ~version ~what ~file s body =
    let error fmt =
      Fmt.kstr
        (fun reason ->
          Error { Dcg.file = Some file; line = 0; text = ""; reason })
        fmt
    in
    (* magic and version first, so a foreign or future-versioned file
       is named as such even when its digest is consistent; then the
       digest, so any flipped or missing byte is rejected before the
       body is interpreted at all *)
    let n = String.length s and header = String.length magic + 1 in
    if n < header then error "truncated %s entry" what
    else if not (String.starts_with ~prefix:magic s) then
      error "not a pepsim %s entry" what
    else if Char.code s.[header - 1] <> version then
      error "unsupported %s version v%d (want v%d)" what
        (Char.code s.[header - 1])
        version
    else if n < header + 16 then
      error "truncated %s entry (missing digest trailer)" what
    else if
      not
        (String.equal
           (Digest.substring s 0 (n - 16))
           (String.sub s (n - 16) 16))
    then error "corrupt %s entry (content digest mismatch)" what
    else
      let r = { s; limit = n - 16; p = header } in
      match body r with
      | v when r.p = r.limit -> Ok v
      | _ -> error "trailing garbage in %s entry" what
      | exception Reject reason -> error "%s" reason
      | exception Malformed m -> error "truncated %s entry (%s)" what m
end

(* --------------------------- cache entries ------------------------- *)

let magic = "PEPRUN"
let series_magic = "PEPSER"

(* both frames' version; bump on any change to their bytes *)
let version = 3

(* An entry stores [Digest.string key] (16 bytes, length-prefixed); a
   different digest means the entry was written for another identity. *)
let put_key w key = Bin.str w (Digest.string key)

let check_key r key =
  if not (String.equal (Bin.rstr r) (Digest.string key)) then
    Bin.fail
      (Fmt.str
         "stale cache entry: key digest mismatch (expected the MD5 of %S) — \
          program or cost model changed since it was written"
         key)

(* ---------------------------- run entries -------------------------- *)

(* A profile line whose fields are all integers in canonical rendering
   is stored as a varint row; anything else (and any line whose
   re-rendering would differ, e.g. "007" or double spaces) falls back to
   a raw string so encode∘decode is the identity on arbitrary input. *)
let pack_line l =
  match String.split_on_char ' ' l with
  | [] -> None
  | toks -> (
      match
        List.map
          (fun t -> match int_of_string_opt t with
            | Some v when t <> "" && string_of_int v = t -> Some v
            | _ -> None)
          toks
      with
      | ints when List.for_all Option.is_some ints ->
          Some (List.map Option.get ints)
      | _ -> None)

let encode ~key p =
  let w = Bin.frame ~magic ~version in
  put_key w key;
  Bin.int w p.iter1;
  Bin.int w p.iter2;
  Bin.int w p.compile;
  Bin.int w p.checksum;
  Bin.int w p.n_samples;
  let section lines =
    let packed =
      let rows = List.map pack_line lines in
      if List.for_all Option.is_some rows then
        Some (List.map Option.get rows)
      else None
    in
    match packed with
    | Some rows ->
        Bin.byte w 0;
        Bin.int w (List.length rows);
        List.iter
          (fun row ->
            Bin.int w (List.length row);
            List.iter (Bin.int w) row)
          rows
    | None ->
        Bin.byte w 1;
        Bin.int w (List.length lines);
        List.iter (Bin.str w) lines
  in
  section p.pep_paths;
  section p.pep_edges;
  section p.ppaths;
  section p.pedges;
  Bin.contents_with_digest w

let decode ~file ~key contents =
  Bin.check_frame ~magic ~version ~what:"cache" ~file contents (fun r ->
      check_key r key;
      let iter1 = Bin.rint r in
      let iter2 = Bin.rint r in
      let compile = Bin.rint r in
      let checksum = Bin.rint r in
      let n_samples = Bin.rint r in
      let section name =
        let tag = Bin.rbyte r in
        let k = Bin.rcount r in
        match tag with
        | 0 ->
            List.init k (fun _ ->
                String.concat " "
                  (List.init (Bin.rcount r) (fun _ ->
                       string_of_int (Bin.rint r))))
        | 1 -> List.init k (fun _ -> Bin.rstr r)
        | t -> Bin.fail (Fmt.str "unknown %s section tag %d" name t)
      in
      let pep_paths = section "pep.paths" in
      let pep_edges = section "pep.edges" in
      let ppaths = section "ppaths" in
      let pedges = section "pedges" in
      {
        iter1;
        iter2;
        compile;
        checksum;
        n_samples;
        pep_paths;
        pep_edges;
        ppaths;
        pedges;
      })

(* -------------------------- series entries ------------------------- *)

let encode_series ~key totals =
  let w = Bin.frame ~magic:series_magic ~version in
  put_key w key;
  Bin.int w (List.length totals);
  List.iter (Bin.int w) totals;
  Bin.contents_with_digest w

let decode_series ~file ~key contents =
  Bin.check_frame ~magic:series_magic ~version ~what:"series cache" ~file
    contents (fun r ->
      check_key r key;
      List.init (Bin.rcount r) (fun _ -> Bin.rint r))
