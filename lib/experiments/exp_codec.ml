(* The run cache's wire format, and the binary frame both on-disk
   stores share.

   A run entry is one PEPRUN frame (varint-packed profile rows, raw MD5
   trailer); an adaptive series entry is one PEPSER frame (the per-trial
   totals); a values entry is one PEPVAL frame (derived floats as their
   IEEE bits); an advice entry is one PEPADV frame (the advice's rows as
   varints).  All four embed the 16-byte MD5 of the composite
   identity key, not the key text, so a damaged entry fails the digest
   check, a stale one fails the key-digest comparison, and a foreign or
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

  (* the IEEE bits, little-endian: every float (NaN payloads, -0.0,
     subnormals) survives bit for bit *)
  let float w v = Buffer.add_int64_le w (Int64.bits_of_float v)

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

  (* [n] [rvarint]s without their values, in one loop over the bytes:
     a byte with the high bit clear ends a varint, and the failures are
     [rvarint]'s, in its order (a tenth byte is "too long" before it is
     "unexpected") *)
  let skip_varints r n =
    let p = ref r.p and left = ref n and run = ref 0 in
    while !left > 0 do
      if !run > 8 then raise (Malformed "varint too long");
      if !p >= r.limit then raise (Malformed "unexpected end of input");
      if Char.code r.s.[!p] < 0x80 then begin
        decr left;
        run := 0
      end
      else incr run;
      incr p
    done;
    r.p <- !p

  (* the bytes are [skip_varints]-checked, so decoding needs neither
     [rbyte]'s end test nor [rvarint]'s length test *)
  let rints_later r n =
    let start = r.p in
    skip_varints r n;
    let s = r.s in
    fun () ->
      let a = Array.make n 0 and p = ref start in
      for i = 0 to n - 1 do
        let u = ref 0 and shift = ref 0 and b = ref (Char.code s.[!p]) in
        incr p;
        while !b >= 0x80 do
          u := !u lor ((!b land 0x7f) lsl !shift);
          shift := !shift + 7;
          b := Char.code s.[!p];
          incr p
        done;
        let u = !u lor (!b lsl !shift) in
        a.(i) <- (u lsr 1) lxor ~-(u land 1)
      done;
      a

  let rcount r =
    let k = rint r in
    if k < 0 || k > r.limit - r.p then raise (Malformed "count out of range");
    k

  let rstr r =
    let len = rcount r in
    let s = String.sub r.s r.p len in
    r.p <- r.p + len;
    s

  let rfloat r =
    if r.limit - r.p < 8 then raise (Malformed "unexpected end of input");
    let v = Int64.float_of_bits (String.get_int64_le r.s r.p) in
    r.p <- r.p + 8;
    v

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
let values_magic = "PEPVAL"
let advice_magic = "PEPADV"

(* every frame's version; bump on any change to their bytes *)
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

(* ----------------------- series and values entries ------------------ *)

(* A list frame: the key digest, a count, then each element. *)
let encode_list ~magic put ~key xs =
  let w = Bin.frame ~magic ~version in
  put_key w key;
  Bin.int w (List.length xs);
  List.iter (put w) xs;
  Bin.contents_with_digest w

let decode_list ~magic ~what get ~file ~key contents =
  Bin.check_frame ~magic ~version ~what ~file contents (fun r ->
      check_key r key;
      List.init (Bin.rcount r) (fun _ -> get r))

let encode_series = encode_list ~magic:series_magic Bin.int

let decode_series =
  decode_list ~magic:series_magic ~what:"series cache" Bin.rint

let encode_values = encode_list ~magic:values_magic Bin.float

let decode_values =
  decode_list ~magic:values_magic ~what:"values cache" Bin.rfloat

(* ---------------------------- advice entries ------------------------ *)

(* A list frame of advice rows: a tag (0 level, 1 edge, 2 call), then
   the row's numbers. *)
let put_row w (row : Advice.row) =
  let ints tag xs = List.iter (Bin.int w) (tag :: xs) in
  match row with
  | Advice.Level { meth; level } -> ints 0 [ meth; level ]
  | Advice.Edge { meth; branch; taken; not_taken } ->
      ints 1 [ meth; branch; taken; not_taken ]
  | Advice.Call { caller; callee; weight } -> ints 2 [ caller; callee; weight ]

let get_row r : Advice.row =
  match Bin.rint r with
  | 0 ->
      let meth = Bin.rint r in
      let level = Bin.rint r in
      Advice.Level { meth; level }
  | 1 ->
      let meth = Bin.rint r in
      let branch = Bin.rint r in
      let taken = Bin.rint r in
      let not_taken = Bin.rint r in
      Advice.Edge { meth; branch; taken; not_taken }
  | 2 ->
      let caller = Bin.rint r in
      let callee = Bin.rint r in
      let weight = Bin.rint r in
      Advice.Call { caller; callee; weight }
  | t -> Bin.fail (Fmt.str "unknown advice row tag %d" t)

(* A method without a level row stays at baseline (-1), so those rows
   are not stored. *)
let encode_advice ~key a =
  encode_list ~magic:advice_magic put_row ~key
    (List.filter
       (function Advice.Level { level = -1; _ } -> false | _ -> true)
       (Advice.rows a))

let decode_advice ~n_methods ~file ~key contents =
  Result.bind
    (decode_list ~magic:advice_magic ~what:"advice cache" get_row ~file ~key
       contents)
    (Advice.of_rows ~file ~n_methods)
