(* The fleet service, locked down the same way the experiment pool is:

   - determinism: a collector run at jobs=1 and jobs=4 produces
     byte-identical segment files, and identical query output (top,
     folded, diff) — and a warm rerun simulates nothing and leaves the
     store untouched;
   - the segment codec: save/load round-trips arbitrary segments
     (QCheck), a flipped bit, a cut, appended bytes or a run-cache
     entry is rejected before any row is believed, and a forged future
     version and junk files come back as structured diagnostics;
   - compaction and retention: merge sums rows and spans windows,
     compact leaves exactly one merged segment per (cohort, window),
     retain drops the oldest windows;
   - triage golden: on the seeded drifting cohort the diff flags a new
     hot path in worker_b, the dispatch edge-flow shift and leaf's
     caller change; the steady control reports nothing;
   - store reads against references kept here: the identity keys equal
     their [Fmt.str] formats, [load_all] returns (cohort key, lo, hi,
     origin) order with ties in reverse file-name order, [select]
     matches the pairwise shadow check and [top] the per-row label
     rendering (same labels, order and float bits); overlong varints
     and out-of-range counts are diagnosed, in the header and in each
     row section;
   - deferred rows against the list decoder: on valid segments and on
     re-digested damage to their row sections, [decode] and [load_all]
     give its verdict and diagnostic, and accepted rows decode, without
     raising, to its rows in order; the same for a run-cache entry's
     four row sections under [Exp_codec.decode] and [Exp_store.load];
   - array-backed views and triage against the per-row references:
     [view] (method order, rows, samples, segments, span) and [diff],
     once per call and through one [index] reused for many views;
     [folded] leaves DCG rows whose summed weight is not positive out
     of its call graph while [top] counts them. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let csl = Alcotest.(list string)

let fresh_dir () = Test_util.fresh_dir "pepsim-fleet"

let read_all file = In_channel.with_open_bin file In_channel.input_all
let write_all file s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s)

(* One small collector spec shared by the whole suite; every run of it
   must be bit-identical, so tests can compare stores freely. *)
let spec =
  Fleet_collector.default_spec ~size:150 ~seed:21 ~instances:2 ~windows:4
    Phased.drift

let store_fingerprint dir =
  List.sort compare
    (List.filter_map
       (fun f ->
         if Filename.check_suffix f ".seg" then
           Some (f, Digest.to_hex (Digest.string (read_all (Filename.concat dir f))))
         else None)
       (Array.to_list (Sys.readdir dir)))

let run_ok ?jobs dir =
  match Fleet_collector.run ?jobs ~dir spec with
  | Ok r -> r
  | Error e -> Alcotest.failf "fleet run: %a" Dcg.pp_parse_error e

let segments_of dir =
  let segs, diags = Fleet_store.load_all ~dir in
  List.iter (fun e -> Alcotest.failf "load_all: %a" Dcg.pp_parse_error e) diags;
  segs

(* Rows as tuple lists (the tests' notation) and as the store's flat
   arrays. *)
let flat3 rows = Array.of_list (List.concat_map (fun (a, b, c) -> [ a; b; c ]) rows)

let flat4 rows =
  Array.of_list (List.concat_map (fun (a, b, c, d) -> [ a; b; c; d ]) rows)

let rows3 a = List.init (Array.length a / 3) (fun k -> (a.(3 * k), a.((3 * k) + 1), a.((3 * k) + 2)))

let rows4 a =
  List.init (Array.length a / 4) (fun k ->
      (a.(4 * k), a.((4 * k) + 1), a.((4 * k) + 2), a.((4 * k) + 3)))

let lazy_rows ?(paths = []) ?(edges = []) ?(dcg = []) () =
  Lazy.from_val
    { Fleet_store.paths = flat3 paths; edges = flat4 edges; dcg = flat3 dcg }

(* Everything a segment holds, its rows decoded: comparable with [=]. *)
let seg_repr (s : Fleet_store.segment) =
  let r = Fleet_store.rows s in
  ( (s.Fleet_store.cohort, s.Fleet_store.window, s.Fleet_store.origin),
    (s.Fleet_store.instances, s.Fleet_store.samples, s.Fleet_store.methods),
    (rows3 r.Fleet_store.paths, rows4 r.Fleet_store.edges, rows3 r.Fleet_store.dcg) )

(* ------------------- determinism & warm skip ---------------------- *)

let query_repr dir =
  let segs = segments_of dir in
  let shift = Fleet_query.select segs { Fleet_query.any with cohort = Some "shift" } in
  let top k = List.map (fun (l, s) -> Fmt.str "%s=%h" l s) (Fleet_query.top ~n:10 k segs) in
  let folded = Folded.to_lines (Fleet_query.folded `Paths (Fleet_query.view shift)) in
  let diff =
    Fleet_query.diff
      ~baseline:(Fleet_query.view (Fleet_query.select segs
        { Fleet_query.cohort = Some "shift"; lo = None; hi = Some 1 }))
      ~current:(Fleet_query.view (Fleet_query.select segs
        { Fleet_query.cohort = Some "shift"; lo = Some 2; hi = None }))
      ()
  in
  top `Paths @ top `Edges @ top `Dcg @ folded
  @ List.map Fleet_query.render_finding diff

let test_jobs_deterministic () =
  let d1 = fresh_dir () and d4 = fresh_dir () in
  let r1 = run_ok ~jobs:1 d1 and r4 = run_ok ~jobs:4 d4 in
  check ci "simulated" r1.Fleet_collector.simulated r4.Fleet_collector.simulated;
  check ci "snapshots" r1.Fleet_collector.snapshots r4.Fleet_collector.snapshots;
  check ci "samples" r1.Fleet_collector.samples_taken r4.Fleet_collector.samples_taken;
  Alcotest.(check (list (pair string string)))
    "segment files byte-identical" (store_fingerprint d1) (store_fingerprint d4);
  check csl "query output identical" (query_repr d1) (query_repr d4)

let test_warm_rerun () =
  let dir = fresh_dir () in
  let cold = run_ok dir in
  check cb "cold simulated" true (cold.Fleet_collector.simulated > 0);
  let before = store_fingerprint dir in
  let warm = run_ok ~jobs:3 dir in
  check ci "warm simulated" 0 warm.Fleet_collector.simulated;
  check ci "warm skipped"
    (cold.Fleet_collector.cohorts * spec.Fleet_collector.instances)
    warm.Fleet_collector.skipped;
  check ci "warm snapshots" 0 warm.Fleet_collector.snapshots;
  Alcotest.(check (list (pair string string)))
    "store untouched" before (store_fingerprint dir)

(* A clean ingest leaves nothing beside its segments, and the report's
   store size is theirs. *)
let test_clean_ingest_only_segments () =
  let dir = fresh_dir () in
  let r = run_ok dir in
  let files = Array.to_list (Sys.readdir dir) in
  check csl "only segment files" []
    (List.filter (fun f -> not (Filename.check_suffix f ".seg")) files);
  check ci "store_bytes is the segments' size" r.Fleet_collector.store_bytes
    (List.fold_left
       (fun acc f -> acc + String.length (read_all (Filename.concat dir f)))
       0 files)

(* --------------------------- triage golden ------------------------ *)

let diff_of dir ~cohort =
  let segs = segments_of dir in
  Fleet_query.diff
    ~baseline:(Fleet_query.view (Fleet_query.select segs
      { Fleet_query.cohort = Some cohort; lo = None; hi = Some 1 }))
    ~current:(Fleet_query.view (Fleet_query.select segs
      { Fleet_query.cohort = Some cohort; lo = Some 2; hi = None }))
    ()

let shared_dir = lazy (let d = fresh_dir () in ignore (run_ok ~jobs:2 d); d)

let test_triage_drift () =
  let findings = diff_of (Lazy.force shared_dir) ~cohort:"shift" in
  let rendered = List.map Fleet_query.render_finding findings in
  let has prefix =
    check cb (Fmt.str "finding %s" prefix) true
      (List.exists
         (fun r -> String.length r >= String.length prefix
                   && String.sub r 0 (String.length prefix) = prefix)
         rendered)
  in
  (* the phase shift moves dispatch toward worker_b: its new paths get
     hot, dispatch's branch bias flips, and leaf's dominant caller
     moves — all three rule families must fire *)
  has "new-hot-path worker_b/path#";
  has "edge-shift dispatch/br#0";
  has "caller-change leaf: worker_a -> worker_b";
  (* and they are all the drift explains: nothing else regresses *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun r ->
      check cb (Fmt.str "finding %s names worker_b, dispatch or leaf" r) true
        (List.exists (contains r) [ "worker_b"; "dispatch"; "leaf" ]))
    rendered

let test_triage_steady_clean () =
  check ci "steady findings" 0
    (List.length (diff_of (Lazy.force shared_dir) ~cohort:"steady"))

(* ------------------------ segment codec --------------------------- *)

let seg ~cohort_name ~window ~origin rows =
  {
    Fleet_store.cohort =
      {
        Fleet.Cohort.name = cohort_name;
        workload = "drift";
        size = 10;
        seed = 7;
        config_key = "cfg";
        drift = Fleet.Drift.No_drift;
      };
    window = Fleet.Window.raw ~index:window ~start_cycle:(window * 100)
        ~end_cycle:((window + 1) * 100);
    origin;
    instances = 1;
    samples = List.length rows;
    methods = [| "alpha"; "beta" |];
    rows =
      lazy_rows ~paths:rows
        ~edges:(List.map (fun (a, b, c) -> (a, b, c, c + 1)) rows)
        ~dcg:(if rows = [] then [] else [ (-1, 0, 5); (0, 1, 3) ])
        ();
  }

let test_segment_roundtrip () =
  let dir = fresh_dir () in
  (match Exp_store.prepare_dir dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "open: %a" Dcg.pp_parse_error e);
  let s = seg ~cohort_name:"a" ~window:2 ~origin:3 [ (0, 1, 42); (1, 9, 7) ] in
  (match Fleet_store.save ~dir s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %a" Dcg.pp_parse_error e);
  (match segments_of dir with
  | [ s' ] -> check cb "roundtrip equal" true (seg_repr s = seg_repr s')
  | l -> Alcotest.failf "expected 1 segment, got %d" (List.length l));
  (* a row array cut short of its stride is refused, not written *)
  let ragged =
    { s with
      Fleet_store.rows =
        Lazy.from_val { (Fleet_store.rows s) with Fleet_store.edges = [| 0; 1; 2 |] } }
  in
  match Fleet_store.save ~dir ragged with
  | Ok () -> Alcotest.fail "a ragged edge array was saved"
  | Error e ->
      check Alcotest.string "refusal"
        "refusing to save: a row array's length is not a multiple of its stride"
        e.Dcg.reason

let test_segment_tamper_rejected () =
  let dir = fresh_dir () in
  ignore (Exp_store.prepare_dir dir);
  let s = seg ~cohort_name:"a" ~window:0 ~origin:0 [ (0, 3, 9) ] in
  ignore (Fleet_store.save ~dir s);
  let file = Fleet_store.filename ~dir s in
  let bytes = read_all file in
  let i = String.length bytes / 2 in
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped i (Char.chr (Char.code bytes.[i] lxor 1));
  write_all file (Bytes.to_string flipped);
  let segs, diags = Fleet_store.load_all ~dir in
  check ci "no segment believed" 0 (List.length segs);
  check ci "one diagnostic" 1 (List.length diags)

let test_segment_junk_rejected () =
  let dir = fresh_dir () in
  ignore (Exp_store.prepare_dir dir);
  write_all (Filename.concat dir "junk.seg") "not a segment at all";
  let segs, diags = Fleet_store.load_all ~dir in
  check ci "no segment" 0 (List.length segs);
  check ci "diagnostic" 1 (List.length diags)

(* ------------------ reference decoder (tuple lists) ----------------- *)

module Bin = Exp_codec.Bin

let no_rows = Lazy.from_val { Fleet_store.paths = [||]; edges = [||]; dcg = [||] }

(* Reference decoder: the whole frame read in one pass, every row
   decoded into tuple lists before the identity self-check.  Returns
   the header as a segment without rows, and the rows. *)
let reference_decode ~file contents =
  Bin.check_frame ~magic:"PEPSEG" ~version:1 ~what:"segment" ~file contents
    (fun r ->
      let stored_key = Bin.rstr r in
      let name = Bin.rstr r in
      let workload = Bin.rstr r in
      let size = Bin.rint r in
      let seed = Bin.rint r in
      let config_key = Bin.rstr r in
      let drift =
        match Bin.rbyte r with
        | 0 -> Fleet.Drift.No_drift
        | 1 ->
            let at_window = Bin.rint r in
            let phase = Bin.rint r in
            Fleet.Drift.Phase_shift { at_window; phase }
        | t -> Bin.fail (Fmt.str "unknown drift tag %d" t)
      in
      let lo = Bin.rint r in
      let hi = Bin.rint r in
      let start_cycle = Bin.rint r in
      let end_cycle = Bin.rint r in
      let origin = Bin.rint r in
      let instances = Bin.rint r in
      let samples = Bin.rint r in
      let methods = Array.init (Bin.rcount r) (fun _ -> Bin.rstr r) in
      let paths =
        List.init (Bin.rcount r) (fun _ ->
            let a = Bin.rint r in
            let b = Bin.rint r in
            let c = Bin.rint r in
            (a, b, c))
      in
      let edges =
        List.init (Bin.rcount r) (fun _ ->
            let a = Bin.rint r in
            let b = Bin.rint r in
            let c = Bin.rint r in
            let d = Bin.rint r in
            (a, b, c, d))
      in
      let dcg =
        List.init (Bin.rcount r) (fun _ ->
            let a = Bin.rint r in
            let b = Bin.rint r in
            let c = Bin.rint r in
            (a, b, c))
      in
      let s =
        {
          Fleet_store.cohort =
            { Fleet.Cohort.name; workload; size; seed; config_key; drift };
          window = { Fleet.Window.lo; hi; start_cycle; end_cycle };
          origin;
          instances;
          samples;
          methods;
          rows = no_rows;
        }
      in
      let key = Fleet_store.segment_key s in
      if key <> stored_key then
        Bin.fail
          (Fmt.str "segment identity mismatch (stored %S, decoded %S)"
             stored_key key);
      (s, (paths, edges, dcg)))

(* The body of [s]'s frame up to its row sections: [s] saved without
   rows ends its body in three zero counts. *)
let body_before_rows (s : Fleet_store.segment) =
  let dir = fresh_dir () in
  ignore (Exp_store.prepare_dir dir);
  let bare = { s with Fleet_store.rows = no_rows } in
  (match Fleet_store.save ~dir bare with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %a" Dcg.pp_parse_error e);
  let bytes = read_all (Fleet_store.filename ~dir bare) in
  String.sub bytes 0 (String.length bytes - 16 - 3)

let reframe body = body ^ Digest.string body

(* [decode] and [load_all] on [bytes] against the reference: the same
   verdict and diagnostic, the same header, and for an accepted frame
   rows that decode (without raising) to the reference rows in order.
   [None] when they agree, else what differs. *)
let decoder_disagreement bytes =
  let file = "f.seg" in
  let want = reference_decode ~file bytes in
  let reason = function
    | Ok _ -> "accepted"
    | Error (e : Dcg.parse_error) -> e.Dcg.reason
  in
  let check what (got : (Fleet_store.segment, Dcg.parse_error) result) =
    match (got, want) with
    | Ok s, Ok (ref_s, (paths, edges, dcg)) -> (
        let header (s : Fleet_store.segment) =
          seg_repr { s with Fleet_store.rows = no_rows }
        in
        if header s <> header ref_s then Some (what ^ ": header differs")
        else
          match Fleet_store.rows s with
          | r ->
              if
                rows3 r.Fleet_store.paths = paths
                && rows4 r.Fleet_store.edges = edges
                && rows3 r.Fleet_store.dcg = dcg
              then None
              else Some (what ^ ": rows differ")
          | exception exn ->
              Some (Fmt.str "%s: decoding rows raised %s" what (Printexc.to_string exn)))
    | Error e, Error e' when e.Dcg.reason = e'.Dcg.reason -> None
    | _ -> Some (Fmt.str "%s: %s, reference: %s" what (reason got) (reason want))
  in
  match check "decode" (Fleet_store.decode ~file bytes) with
  | Some _ as m -> m
  | None -> (
      let dir = fresh_dir () in
      ignore (Exp_store.prepare_dir dir);
      write_all (Filename.concat dir file) bytes;
      match Fleet_store.load_all ~dir with
      | [ s ], [] -> check "load_all" (Ok s)
      | [], [ e ] -> check "load_all" (Error e)
      | segs, diags ->
          Some
            (Fmt.str "load_all: %d segments, %d diagnostics" (List.length segs)
               (List.length diags)))

(* Digest-valid frames malformed in their first field or inside one of
   the three row sections: the reader's bounds are diagnosed, never
   believed, by [decode] and [load_all] alike. *)
let test_segment_bounds_diagnosed () =
  let frame body =
    let b = "PEPSEG\001" ^ body in
    b ^ Digest.string b
  in
  let before_rows = body_before_rows (seg ~cohort_name:"b" ~window:0 ~origin:0 []) in
  List.iter
    (fun (bytes, reason) ->
      (match Fleet_store.decode ~file:"f.seg" bytes with
      | Ok _ -> Alcotest.failf "accepted: %s" reason
      | Error e -> check Alcotest.string reason reason e.Dcg.reason);
      match decoder_disagreement bytes with
      | Some m -> Alcotest.failf "%s: %s" reason m
      | None -> ())
    [
      (frame (String.make 10 '\xff'), "truncated segment entry (varint too long)");
      (frame "\xc8\x01", "truncated segment entry (count out of range)");
      (frame "\x01", "truncated segment entry (count out of range)");
      (frame "\x80", "truncated segment entry (unexpected end of input)");
      (* paths: a count of 100 rows with fewer bytes left *)
      ( reframe (before_rows ^ "\xc8\x01\x00\x00"),
        "truncated segment entry (count out of range)" );
      (* edges: one row whose first varint runs past nine bytes *)
      ( reframe (before_rows ^ "\x00\x02" ^ String.make 10 '\xff'),
        "truncated segment entry (varint too long)" );
      (* dcg: one row cut inside its last varint *)
      ( reframe (before_rows ^ "\x00\x00\x02\x02\x04\x80"),
        "truncated segment entry (unexpected end of input)" );
      (* a byte after the last section *)
      (reframe (before_rows ^ "\x00\x00\x00\x07"), "trailing garbage in segment entry");
    ]

(* zigzag LEB128, as the store writes an int *)
let varint n =
  let b = Buffer.create 10 in
  let rec put u =
    if u land lnot 0x7f = 0 then Buffer.add_char b (Char.chr u)
    else begin
      Buffer.add_char b (Char.chr ((u land 0x7f) lor 0x80));
      put (u lsr 7)
    end
  in
  put ((n lsl 1) lxor (n asr (Sys.int_size - 1)));
  Buffer.contents b

(* Row-section damage, each re-digested so only the row reader can
   object: a section's count inflated, the bytes cut, ten continuation
   bytes inserted, a byte's continuation bit set, a byte dropped, bytes
   appended.  Both stores write their rows in these sections. *)
type row_damage =
  | Intact
  | Inflate of int * int  (** section, extra rows claimed *)
  | Cut of int
  | Overlong of int
  | Unterminated of int
  | Drop of int
  | Append of string

(* a section's row count and ints, from tuple rows *)
let sec3 rows = (List.length rows, Array.to_list (flat3 rows))
let sec4 rows = (List.length rows, Array.to_list (flat4 rows))

let row_bytes sections damage =
  let bytes =
    String.concat ""
      (List.mapi
         (fun i (count, ints) ->
           let count =
             match damage with Inflate (j, extra) when j = i -> count + extra | _ -> count
           in
           varint count ^ String.concat "" (List.map varint ints))
         sections)
  in
  let n = String.length bytes in
  match damage with
  | Intact | Inflate _ -> bytes
  | Cut p -> String.sub bytes 0 (p mod n)
  | Overlong p ->
      let p = p mod (n + 1) in
      String.sub bytes 0 p ^ String.make 10 '\x80' ^ String.sub bytes p (n - p)
  | Unterminated p ->
      let b = Bytes.of_string bytes in
      Bytes.set b (p mod n) (Char.chr (Char.code bytes.[p mod n] lor 0x80));
      Bytes.to_string b
  | Drop p ->
      let p = p mod n in
      String.sub bytes 0 p ^ String.sub bytes (p + 1) (n - p - 1)
  | Append tail -> bytes ^ tail

(* Reference decoder of a run entry: the whole frame read in one
   pass, each section's rows decoded into lists as they are met.
   Returns the measurement and the four sections' rows. *)
let reference_run_decode ~file ~key contents =
  Bin.check_frame ~magic:"PEPRUN" ~version:4 ~what:"cache" ~file contents
    (fun r ->
      if Bin.rstr r <> Digest.string key then Bin.fail "stale cache entry";
      let meas = List.init 5 (fun _ -> Bin.rint r) in
      let section stride =
        List.init (Bin.rcount r) (fun _ -> List.init stride (fun _ -> Bin.rint r))
      in
      let pep_paths = section 3 in
      let pep_edges = section 4 in
      let ppaths = section 3 in
      let pedges = section 4 in
      (meas, [ pep_paths; pep_edges; ppaths; pedges ]))

let run_meas =
  { Exp_codec.iter1 = 1; iter2 = -2; compile = 300; checksum = max_int; n_samples = 5;
    pep_paths = [||]; pep_edges = [||]; ppaths = [||]; pedges = [||] }

(* The body of a run frame under [key] up to its row sections: the
   frame of [run_meas], which has no rows, ends its body in four zero
   counts. *)
let run_body_before_rows ~key =
  let bytes = Exp_codec.encode ~key run_meas in
  String.sub bytes 0 (String.length bytes - 16 - 4)

(* [Exp_codec.decode] and [Exp_store.load] on a run frame's [bytes]
   against the reference: the same verdict and diagnostic, and for an
   accepted frame the same measurement and rows, never an exception.
   [None] when they agree, else what differs. *)
let run_disagreement ~key bytes =
  let want = reference_run_decode ~file:"f.run" ~key bytes in
  let rows stride a =
    List.init (Array.length a / stride) (fun k -> Array.to_list (Array.sub a (k * stride) stride))
  in
  let check what (got : (Exp_codec.payload, Dcg.parse_error) result) =
    match (got, want) with
    | Ok p, Ok (meas, sections) ->
        if
          [ p.iter1; p.iter2; p.compile; p.checksum; p.n_samples ] = meas
          && [ rows 3 p.pep_paths; rows 4 p.pep_edges; rows 3 p.ppaths; rows 4 p.pedges ]
             = sections
        then None
        else Some (what ^ ": payload differs")
    | Error e, Error e' when e.Dcg.reason = e'.Dcg.reason -> None
    | _ ->
        let reason = function Ok _ -> "accepted" | Error (e : Dcg.parse_error) -> e.Dcg.reason in
        Some (Fmt.str "%s: %s, reference: %s" what (reason got) (reason want))
  in
  match check "decode" (Exp_codec.decode ~file:"f.run" ~key bytes) with
  | Some _ as m -> m
  | None -> (
      let file = Filename.temp_file "pepsim-run" ".run" in
      write_all file bytes;
      let loaded = Exp_store.load ~file ~key in
      Sys.remove file;
      match loaded with
      | Ok (Some p) -> check "load" (Ok p)
      | Ok None -> Some "load: no entry"
      | Error e -> check "load" (Error e))
  | exception exn -> Some (Fmt.str "raised %s" (Printexc.to_string exn))

let prop_decoder_reference =
  let open QCheck.Gen in
  let num = oneof [ small_nat; small_signed_int; int ] in
  let rows3 = list_size (int_bound 8) (triple num num num) in
  let rows4 = list_size (int_bound 8) (quad num num num num) in
  let rows = quad rows3 rows4 rows3 rows4 in
  let damage =
    oneof
      [
        return Intact;
        map2 (fun i e -> Inflate (i, e)) (int_bound 3)
          (oneofl [ 1; 2; 3; 7; 1000; 1 lsl 40 ]);
        map (fun p -> Cut p) nat;
        map (fun p -> Overlong p) nat;
        map (fun p -> Unterminated p) nat;
        map (fun p -> Drop p) nat;
        map (fun t -> Append t) (string_size ~gen:char (int_range 1 6));
      ]
  in
  let methods = list_size (int_bound 4) (oneofl [ "main"; "a"; "b|c"; "" ]) in
  let print (_, (p, e, d, e'), dmg) =
    Fmt.str "%d/%d/%d/%d rows, %s" (List.length p) (List.length e) (List.length d)
      (List.length e')
      (match dmg with
      | Intact -> "intact"
      | Inflate (i, e) -> Fmt.str "section %d count +%d" i e
      | Cut p -> Fmt.str "cut at %d" p
      | Overlong p -> Fmt.str "overlong at %d" p
      | Unterminated p -> Fmt.str "continuation bit at %d" p
      | Drop p -> Fmt.str "byte %d dropped" p
      | Append t -> Fmt.str "%S appended" t)
  in
  QCheck.Test.make ~count:300
    ~name:"decode and load_all = the list decoder (verdict, reason, rows)"
    (QCheck.make ~print (triple methods rows damage))
    (fun (methods, (paths, edges, dcg, edges'), damage) ->
      (* the segment's three sections; [Inflate (3, _)] leaves them be *)
      let s =
        {
          (seg ~cohort_name:"d" ~window:1 ~origin:0 []) with
          Fleet_store.methods = Array.of_list methods;
        }
      in
      let bytes =
        reframe (body_before_rows s ^ row_bytes [ sec3 paths; sec4 edges; sec3 dcg ] damage)
      in
      (match decoder_disagreement bytes with
      | None -> ()
      | Some m -> QCheck.Test.fail_reportf "segment: %s" m);
      (* a run entry's four sections, through the same row reader *)
      let key = "k|" ^ String.concat "," methods in
      let bytes =
        reframe
          (run_body_before_rows ~key
          ^ row_bytes [ sec3 paths; sec4 edges; sec3 dcg; sec4 edges' ] damage)
      in
      match run_disagreement ~key bytes with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "run entry: %s" m)

let gen_segment =
  let open QCheck in
  (* segment fields must be newline-free (the store refuses them) *)
  let str =
    map
      (String.map (fun c -> if c = '\n' then '_' else c))
      (string_gen_of_size (Gen.int_range 0 12) Gen.printable)
  in
  let rows3 = small_list (triple small_nat small_nat small_nat) in
  let rows4 =
    small_list (quad small_nat small_nat small_nat small_nat)
  in
  quad str (small_list str) rows3 rows4

let prop_segment_codec =
  QCheck.Test.make ~count:100 ~name:"segment codec: save/load = id, tamper rejected"
    (QCheck.pair gen_segment (QCheck.int_bound 100000))
    (fun ((name, methods, rows3, rows4), i) ->
      let dir = fresh_dir () in
      ignore (Exp_store.prepare_dir dir);
      let s =
        {
          Fleet_store.cohort =
            {
              Fleet.Cohort.name = "c|" ^ name;
              workload = name;
              size = 3;
              seed = 1;
              config_key = "k=" ^ name;
              drift = Fleet.Drift.Phase_shift { at_window = 1; phase = 2 };
            };
          window = Fleet.Window.raw ~index:1 ~start_cycle:0 ~end_cycle:9;
          origin = 0;
          instances = 1;
          samples = List.length rows3;
          methods = Array.of_list methods;
          rows =
            lazy_rows ~paths:rows3 ~edges:rows4
              ~dcg:(List.map (fun (a, b, c) -> (a - 1, b, c)) rows3)
              ();
        }
      in
      match Fleet_store.save ~dir s with
      | Error e -> QCheck.Test.fail_reportf "save: %a" Dcg.pp_parse_error e
      | Ok () ->
          let file = Fleet_store.filename ~dir s in
          let bytes = read_all file in
          (match Fleet_store.decode ~file bytes with
          | Error e ->
              QCheck.Test.fail_reportf "decode: %a" Dcg.pp_parse_error e
          | Ok s' ->
              if seg_repr s <> seg_repr s' then
                QCheck.Test.fail_report "roundtrip mismatch");
          (* damaged copies, and the same rows as a valid run-cache entry *)
          let foreign =
            Exp_codec.encode ~key:(Fleet_store.segment_key s)
              {
                Exp_codec.iter1 = 0;
                iter2 = 0;
                compile = 0;
                checksum = 0;
                n_samples = s.Fleet_store.samples;
                pep_paths = flat3 rows3;
                pep_edges = flat4 rows4;
                ppaths = [||];
                pedges = [||];
              }
          in
          Test_pool.rejects_all ~file (Fleet_store.decode ~file)
            (Test_pool.damaged_frames ~foreign i bytes);
          true)

(* ------------------- identity keys & load order ------------------- *)

(* The key functions' reference formats: the library builds the same
   bytes by concatenation. *)
let fmt_drift_key = function
  | Fleet.Drift.No_drift -> "steady"
  | Fleet.Drift.Phase_shift { at_window; phase } ->
      Fmt.str "shift@%d=%d" at_window phase

let fmt_cohort_key (c : Fleet.Cohort.t) =
  Fmt.str "cohort=%s|workload=%s|size=%d|seed=%d|cfg=%s|drift=%s"
    c.Fleet.Cohort.name c.Fleet.Cohort.workload c.Fleet.Cohort.size
    c.Fleet.Cohort.seed c.Fleet.Cohort.config_key
    (fmt_drift_key c.Fleet.Cohort.drift)

let fmt_window_key (w : Fleet.Window.t) =
  Fmt.str "win=%d-%d" w.Fleet.Window.lo w.Fleet.Window.hi

let fmt_segment_key (s : Fleet_store.segment) =
  Fmt.str "%s|%s|origin=%d"
    (fmt_cohort_key s.Fleet_store.cohort)
    (fmt_window_key s.Fleet_store.window)
    s.Fleet_store.origin

let prop_key_formats =
  let open QCheck.Gen in
  let chars =
    [| 'a'; 'Z'; '0'; '%'; '|'; '@'; '='; '-'; ' '; '\xc3'; '\xa9'; '\xff' |]
  in
  let field =
    string_size ~gen:(map (Array.get chars) (int_bound (Array.length chars - 1)))
      (int_bound 6)
  in
  let num = oneof [ small_signed_int; int; oneofl [ min_int; max_int; -1; 0 ] ] in
  let drift =
    oneof
      [
        return Fleet.Drift.No_drift;
        map2
          (fun at_window phase -> Fleet.Drift.Phase_shift { at_window; phase })
          num num;
      ]
  in
  let cohort =
    map3
      (fun (name, workload, config_key) (size, seed) drift ->
        { Fleet.Cohort.name; workload; size; seed; config_key; drift })
      (triple field field field) (pair num num) drift
  in
  let case = pair cohort (triple num num num) in
  QCheck.Test.make ~count:300 ~name:"key functions equal their Fmt.str formats"
    (QCheck.make
       ~print:(fun (c, (lo, hi, origin)) ->
         Fmt.str "%S win=%d-%d origin=%d" (fmt_cohort_key c) lo hi origin)
       case)
    (fun (cohort, (lo, hi, origin)) ->
      let window = { Fleet.Window.lo; hi; start_cycle = 0; end_cycle = 1 } in
      let s = { (seg ~cohort_name:"" ~window:0 ~origin []) with cohort; window } in
      String.equal (Fleet.Drift.key cohort.Fleet.Cohort.drift)
        (fmt_drift_key cohort.Fleet.Cohort.drift)
      && String.equal (Fleet.Cohort.key cohort) (fmt_cohort_key cohort)
      && String.equal (Fleet.Window.key window) (fmt_window_key window)
      && String.equal (Fleet_store.segment_key s) (fmt_segment_key s))

(* Reference order for [load_all]: rendered cohort keys compared
   pairwise, then window bounds and origin, stable over the segments in
   reverse file-name order. *)
let compare_rendered (a : Fleet_store.segment) (b : Fleet_store.segment) =
  let k (s : Fleet_store.segment) =
    ( fmt_cohort_key s.Fleet_store.cohort,
      s.Fleet_store.window.Fleet.Window.lo,
      s.Fleet_store.window.Fleet.Window.hi,
      s.Fleet_store.origin )
  in
  compare (k a) (k b)

let test_load_order () =
  let dir = fresh_dir () in
  ignore (Exp_store.prepare_dir dir);
  let mk name window origin samples =
    { (seg ~cohort_name:name ~window ~origin [ (0, 1, 1) ]) with
      Fleet_store.samples }
  in
  let save ~dir s =
    match Fleet_store.save ~dir s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save: %a" Dcg.pp_parse_error e
  in
  let segs =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun window -> List.map (fun o -> mk name window o 1) [ 1; -1; 0 ])
          [ 10; 2 ])
      [ "b"; "a" ]
  in
  List.iter (save ~dir) segs;
  (* (a, window 2, origin 0) once more under a second file name, which
     sorts after every md5 name; its sample count tells the copies apart *)
  let twin = mk "a" 2 0 99 in
  let other = fresh_dir () in
  ignore (Exp_store.prepare_dir other);
  save ~dir:other twin;
  write_all (Filename.concat dir "zz-copy.seg")
    (read_all (Fleet_store.filename ~dir:other twin));
  let tuple_order =
    List.stable_sort compare_rendered segs |> List.map Fleet_store.segment_key
  in
  check cb "key text order differs from tuple order" false
    (List.sort compare (List.map Fleet_store.segment_key segs) = tuple_order);
  let loaded = segments_of dir in
  let row (s : Fleet_store.segment) =
    Fmt.str "%s/%d/%d/%d" s.Fleet_store.cohort.Fleet.Cohort.name
      s.Fleet_store.window.Fleet.Window.lo s.Fleet_store.origin
      s.Fleet_store.samples
  in
  check csl "(cohort key, lo, hi, origin) order, later name first on ties"
    [
      "a/2/-1/1"; "a/2/0/99"; "a/2/0/1"; "a/2/1/1"; "a/10/-1/1"; "a/10/0/1";
      "a/10/1/1"; "b/2/-1/1"; "b/2/0/1"; "b/2/1/1"; "b/10/-1/1"; "b/10/0/1";
      "b/10/1/1";
    ]
    (List.map row loaded);
  let by_name =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
    |> List.sort compare |> List.rev
    |> List.map (fun f ->
           let file = Filename.concat dir f in
           match Fleet_store.decode ~file (read_all file) with
           | Ok s -> s
           | Error e -> Alcotest.failf "decode: %a" Dcg.pp_parse_error e)
  in
  check csl "the pairwise rendered-key order"
    (List.map row (List.stable_sort compare_rendered by_name))
    (List.map row loaded)

(* --------------------- merge / compact / retain ------------------- *)

let test_merge_sums () =
  let a = seg ~cohort_name:"m" ~window:0 ~origin:0 [ (0, 1, 10) ] in
  let b = seg ~cohort_name:"m" ~window:1 ~origin:1 [ (0, 1, 5); (1, 2, 2) ] in
  let m = Fleet_store.merge [ a; b ] in
  check ci "origin" (-1) m.Fleet_store.origin;
  check ci "instances summed" 2 m.Fleet_store.instances;
  check ci "window lo" 0 m.Fleet_store.window.Fleet.Window.lo;
  check ci "window hi" 1 m.Fleet_store.window.Fleet.Window.hi;
  check
    Alcotest.(list (triple int int int))
    "paths summed, in key order" [ (0, 1, 15); (1, 2, 2) ]
    (rows3 (Fleet_store.rows m).Fleet_store.paths);
  check cb "mixed cohorts rejected" true
    (try
       ignore (Fleet_store.merge [ a; seg ~cohort_name:"x" ~window:0 ~origin:0 [] ]);
       false
     with Invalid_argument _ -> true)

let test_compact_and_retain () =
  let dir = fresh_dir () in
  ignore (Exp_store.prepare_dir dir);
  List.iter
    (fun s -> match Fleet_store.save ~dir s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %a" Dcg.pp_parse_error e)
    [
      seg ~cohort_name:"c" ~window:0 ~origin:0 [ (0, 1, 1) ];
      seg ~cohort_name:"c" ~window:0 ~origin:1 [ (0, 1, 2) ];
      seg ~cohort_name:"c" ~window:1 ~origin:0 [ (0, 1, 4) ];
      seg ~cohort_name:"c" ~window:1 ~origin:1 [ (0, 1, 8) ];
    ];
  let written, deleted, errs = Fleet_store.compact ~dir in
  check ci "no errors" 0 (List.length errs);
  check ci "merged written" 2 written;
  check ci "raws deleted" 4 deleted;
  let segs = segments_of dir in
  check ci "two merged remain" 2 (List.length segs);
  List.iter
    (fun (s : Fleet_store.segment) ->
      check ci "merged origin" (-1) s.Fleet_store.origin;
      check ci "merged instances" 2 s.Fleet_store.instances)
    segs;
  (* retention: keep only the newest window *)
  check ci "retain deletes" 1 (Fleet_store.retain ~dir ~max_windows:1);
  match segments_of dir with
  | [ s ] -> check ci "newest kept" 1 s.Fleet_store.window.Fleet.Window.lo
  | l -> Alcotest.failf "expected 1 segment, got %d" (List.length l)

(* Reference [select]: every raw checked against every picked merged
   segment with [Fleet.Cohort.equal]. *)
let select_pairwise segments (f : Fleet_query.filter) =
  let in_range (s : Fleet_store.segment) =
    let w = s.Fleet_store.window in
    (match f.Fleet_query.lo with Some lo -> w.Fleet.Window.hi >= lo | None -> true)
    && (match f.Fleet_query.hi with Some hi -> w.Fleet.Window.lo <= hi | None -> true)
    &&
    match f.Fleet_query.cohort with
    | Some name -> String.equal s.Fleet_store.cohort.Fleet.Cohort.name name
    | None -> true
  in
  let picked = List.filter in_range segments in
  let merged =
    List.filter (fun (s : Fleet_store.segment) -> s.Fleet_store.origin < 0) picked
  in
  let shadowed (s : Fleet_store.segment) =
    s.Fleet_store.origin >= 0
    && List.exists
         (fun (m : Fleet_store.segment) ->
           Fleet.Cohort.equal m.Fleet_store.cohort s.Fleet_store.cohort
           && m.Fleet_store.window.Fleet.Window.lo
              <= s.Fleet_store.window.Fleet.Window.lo
           && s.Fleet_store.window.Fleet.Window.hi
              <= m.Fleet_store.window.Fleet.Window.hi)
         merged
  in
  List.filter (fun s -> not (shadowed s)) picked

(* Cohorts for [select]: the last two differ as records but render one
   key (the name/workload boundary moved), so they shadow each other. *)
let select_cohorts =
  let c name workload drift =
    { Fleet.Cohort.name; workload; size = 10; seed = 7; config_key = "cfg"; drift }
  in
  [|
    c "a" "w" Fleet.Drift.No_drift;
    c "b" "w" Fleet.Drift.No_drift;
    c "a" "w" (Fleet.Drift.Phase_shift { at_window = 1; phase = 2 });
    c "x|workload=y" "z" Fleet.Drift.No_drift;
    c "x" "y|workload=z" Fleet.Drift.No_drift;
  |]

let prop_select_pairwise =
  let open QCheck.Gen in
  let segment =
    map3
      (fun ci (lo, width) origin ->
        {
          (seg ~cohort_name:"" ~window:0 ~origin []) with
          Fleet_store.cohort = select_cohorts.(ci);
          window =
            { Fleet.Window.lo; hi = lo + width; start_cycle = 0; end_cycle = 1 };
        })
      (int_bound (Array.length select_cohorts - 1))
      (pair (int_bound 6) (int_bound 3))
      (int_range (-1) 1)
  in
  let filter =
    map3
      (fun cohort lo hi -> { Fleet_query.cohort; lo; hi })
      (opt (oneofl [ "a"; "b"; "x"; "x|workload=y"; "none" ]))
      (opt (int_bound 8))
      (opt (int_bound 8))
  in
  QCheck.Test.make ~count:500 ~name:"select = the pairwise shadow definition"
    (QCheck.make
       (pair (list_size (int_bound 24) segment) filter))
    (fun (segs, f) -> Fleet_query.select segs f = select_pairwise segs f)

let test_select_prefers_merged () =
  let raw = seg ~cohort_name:"c" ~window:0 ~origin:0 [ (0, 1, 1) ] in
  let merged = { (Fleet_store.merge [ raw ]) with Fleet_store.instances = 2 } in
  let picked = Fleet_query.select [ raw; merged ] Fleet_query.any in
  check ci "raw shadowed" 1 (List.length picked);
  check ci "merged picked" (-1) (List.hd picked).Fleet_store.origin

(* ---------------------------- hotspots ----------------------------- *)

(* Reference [top]: a label rendered for every row, scores added into a
   label-keyed table. *)
let top_per_row ?(decay = 0.75) ~n kind segments =
  let latest =
    List.fold_left
      (fun acc (s : Fleet_store.segment) ->
        max acc s.Fleet_store.window.Fleet.Window.hi)
      0 segments
  in
  let scores = Hashtbl.create 256 in
  let bump label x =
    Hashtbl.replace scores label
      (x +. Option.value ~default:0. (Hashtbl.find_opt scores label))
  in
  List.iter
    (fun (s : Fleet_store.segment) ->
      let m i =
        if i >= 0 && i < Array.length s.Fleet_store.methods then
          s.Fleet_store.methods.(i)
        else Fmt.str "m#%d" i
      in
      let w =
        decay ** float_of_int (latest - s.Fleet_store.window.Fleet.Window.hi)
      in
      let rows = Fleet_store.rows s in
      match kind with
      | `Paths ->
          List.iter
            (fun (mi, pid, c) ->
              bump (Fmt.str "%s/path#%d" (m mi) pid) (w *. float_of_int c))
            (rows3 rows.Fleet_store.paths)
      | `Edges ->
          List.iter
            (fun (mi, br, tk, nt) ->
              bump (Fmt.str "%s/br#%d" (m mi) br) (w *. float_of_int (tk + nt)))
            (rows4 rows.Fleet_store.edges)
      | `Dcg ->
          List.iter
            (fun (caller, callee, wt) ->
              let c = if caller < 0 then "<root>" else m caller in
              bump (Fmt.str "%s->%s" c (m callee)) (w *. float_of_int wt))
            (rows3 rows.Fleet_store.dcg))
    segments;
  Hashtbl.fold (fun l s acc -> (l, s) :: acc) scores []
  |> List.sort (fun (l1, s1) (l2, s2) ->
         match compare s2 s1 with 0 -> compare l1 l2 | c -> c)
  |> List.filteri (fun i _ -> i < n)

(* Method names that collide once rendered: ("a->b", "c") and
   ("a", "b->c") both label "a->b->c"; "<root>" is also the root
   caller's label, and "m#7" an out-of-range index's. *)
let top_methods = [| "a"; "b->c"; "a->b"; "c"; "<root>"; "m#7"; "d" |]

let prop_top_reference =
  let open QCheck.Gen in
  let idx = int_range (-2) 7 and small = int_bound 3 and count = int_bound 50 in
  let segment =
    map3
      (fun (window, methods) (paths, edges) dcg ->
        {
          (seg ~cohort_name:"t" ~window ~origin:(-1) []) with
          Fleet_store.methods = Array.of_list methods;
          rows = lazy_rows ~paths ~edges ~dcg ();
        })
      (pair (int_bound 8) (list_size (int_bound 6) (oneofa top_methods)))
      (pair
         (list_size (int_bound 12) (triple idx small count))
         (list_size (int_bound 12) (quad idx small count count)))
      (list_size (int_bound 12) (triple idx idx count))
  in
  (* always present: the two DCG rows that share the label "a->b->c" *)
  let colliding =
    {
      (seg ~cohort_name:"t" ~window:3 ~origin:(-1) []) with
      Fleet_store.methods = [| "a"; "b->c"; "a->b"; "c" |];
      rows = lazy_rows ~dcg:[ (0, 1, 5); (2, 3, 7); (-1, 0, 2) ] ();
    }
  in
  let case =
    quad (list_size (int_bound 6) segment) (int_bound 40)
      (oneofl [ 0.75; 0.5; 1.0; 0.9 ])
      (oneofl [ `Paths; `Edges; `Dcg ])
  in
  let bits rows = List.map (fun (l, s) -> (l, Int64.bits_of_float s)) rows in
  QCheck.Test.make ~count:500
    ~name:"top = per-row label rendering (labels, order, float bits)"
    (QCheck.make case)
    (fun (segs, n, decay, kind) ->
      let segs = colliding :: segs in
      bits (Fleet_query.top ~decay ~n kind segs)
      = bits (top_per_row ~decay ~n kind segs))

(* ------------------------ views and triage ------------------------ *)

(* Reference [view]: each row's method name interned as the row is
   read (a DCG row's callee before its caller, as the tuple below
   evaluates), rows summed in tuple-keyed tables, sorted as tuples. *)
type ref_view = {
  r_methods : string array;
  r_paths : (int * int * int) list;
  r_edges : (int * int * int * int) list;
  r_dcg : (int * int * int) list;
  r_samples : int;
  r_segments : int;
  r_span : Fleet.Window.t option;
}

let view_per_row segments =
  let names = Hashtbl.create 64 in
  let order = ref [] in
  let intern name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names name i;
        order := name :: !order;
        i
  in
  let paths = Hashtbl.create 256 in
  let edges = Hashtbl.create 256 in
  let dcg = Hashtbl.create 64 in
  let samples = ref 0 in
  let span = ref None in
  List.iter
    (fun (s : Fleet_store.segment) ->
      let m i =
        if i >= 0 && i < Array.length s.Fleet_store.methods then
          intern s.Fleet_store.methods.(i)
        else intern (Fmt.str "m#%d" i)
      in
      let rows = Fleet_store.rows s in
      List.iter
        (fun (mi, pid, c) ->
          let k = (m mi, pid) in
          Hashtbl.replace paths k
            (c + Option.value ~default:0 (Hashtbl.find_opt paths k)))
        (rows3 rows.Fleet_store.paths);
      List.iter
        (fun (mi, br, tk, nt) ->
          let k = (m mi, br) in
          let ptk, pnt =
            Option.value ~default:(0, 0) (Hashtbl.find_opt edges k)
          in
          Hashtbl.replace edges k (ptk + tk, pnt + nt))
        (rows4 rows.Fleet_store.edges);
      List.iter
        (fun (caller, callee, w) ->
          let k = ((if caller < 0 then -1 else m caller), m callee) in
          Hashtbl.replace dcg k
            (w + Option.value ~default:0 (Hashtbl.find_opt dcg k)))
        (rows3 rows.Fleet_store.dcg);
      samples := !samples + s.Fleet_store.samples;
      span :=
        Some
          (match !span with
          | None -> s.Fleet_store.window
          | Some w -> Fleet.Window.span w s.Fleet_store.window))
    segments;
  {
    r_methods = Array.of_list (List.rev !order);
    r_paths =
      List.sort compare
        (Hashtbl.fold (fun (mi, p) c acc -> (mi, p, c) :: acc) paths []);
    r_edges =
      List.sort compare
        (Hashtbl.fold
           (fun (mi, b) (tk, nt) acc -> (mi, b, tk, nt) :: acc)
           edges []);
    r_dcg =
      List.sort compare
        (Hashtbl.fold (fun (c, e) w acc -> (c, e, w) :: acc) dcg []);
    r_samples = !samples;
    r_segments = List.length segments;
    r_span = !span;
  }

let ref_name_of v i =
  if i >= 0 && i < Array.length v.r_methods then v.r_methods.(i)
  else Fmt.str "m#%d" i

(* Reference triage: name-keyed tables rebuilt for every diff. *)
let diff_per_row (th : Fleet_query.thresholds) ~baseline ~current =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let base_paths = Hashtbl.create 256 in
  List.iter
    (fun (mi, pid, c) -> Hashtbl.replace base_paths (ref_name_of baseline mi, pid) c)
    baseline.r_paths;
  let cur_total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 current.r_paths in
  if cur_total > 0 then
    List.iter
      (fun (mi, pid, c) ->
        let meth = ref_name_of current mi in
        let share = float_of_int c /. float_of_int cur_total in
        if share >= th.Fleet_query.new_share && not (Hashtbl.mem base_paths (meth, pid))
        then emit (Fleet_query.New_hot_path { meth; path_id = pid; share }))
      current.r_paths;
  let base_edges = Hashtbl.create 256 in
  List.iter
    (fun (mi, br, tk, nt) ->
      Hashtbl.replace base_edges (ref_name_of baseline mi, br) (tk, nt))
    baseline.r_edges;
  List.iter
    (fun (mi, br, tk, nt) ->
      let meth = ref_name_of current mi in
      match Hashtbl.find_opt base_edges (meth, br) with
      | Some (btk, bnt)
        when btk + bnt >= th.Fleet_query.min_edge && tk + nt >= th.Fleet_query.min_edge ->
          let from_bias = float_of_int btk /. float_of_int (btk + bnt) in
          let to_bias = float_of_int tk /. float_of_int (tk + nt) in
          if Float.abs (to_bias -. from_bias) >= th.Fleet_query.edge_shift then
            emit (Fleet_query.Edge_shift { meth; branch = br; from_bias; to_bias })
      | _ -> ())
    current.r_edges;
  let dominant v =
    let best = Hashtbl.create 16 in
    let total = Hashtbl.create 16 in
    List.iter
      (fun (caller, callee, w) ->
        let callee = ref_name_of v callee in
        let caller = if caller < 0 then "<root>" else ref_name_of v caller in
        Hashtbl.replace total callee
          (w + Option.value ~default:0 (Hashtbl.find_opt total callee));
        match Hashtbl.find_opt best callee with
        | Some (bc, bw) when w > bw || (w = bw && caller < bc) ->
            Hashtbl.replace best callee (caller, w)
        | Some _ -> ()
        | None -> Hashtbl.add best callee (caller, w))
      v.r_dcg;
    (best, total)
  in
  let base_dom, base_tot = dominant baseline in
  let cur_dom, cur_tot = dominant current in
  Hashtbl.iter
    (fun callee (to_caller, _) ->
      match Hashtbl.find_opt base_dom callee with
      | Some (from_caller, _)
        when Option.value ~default:0 (Hashtbl.find_opt base_tot callee)
             >= th.Fleet_query.min_dcg
             && Option.value ~default:0 (Hashtbl.find_opt cur_tot callee)
                >= th.Fleet_query.min_dcg
             && not (String.equal from_caller to_caller) ->
          emit (Fleet_query.Caller_change { callee; from_caller; to_caller })
      | _ -> ())
    cur_dom;
  List.sort_uniq compare (List.map Fleet_query.render_finding !findings)

(* Method tables that disagree: duplicate names, the placeholder names
   "m#7" and "m#-1" that out-of-range indexes render to, and a name
   only some segments carry. *)
let view_methods = [| "main"; "leaf"; "main"; "m#7"; "work"; "m#-1"; "leaf"; "x" |]

let gen_view_segments =
  let open QCheck.Gen in
  let idx = int_range (-2) 8 and small = int_bound 3 and count = int_range (-5) 40 in
  let segment =
    map3
      (fun (window, methods, samples) (paths, edges) dcg ->
        {
          (seg ~cohort_name:"v" ~window ~origin:(-1) []) with
          Fleet_store.methods = Array.of_list methods;
          samples;
          rows = lazy_rows ~paths ~edges ~dcg ();
        })
      (triple (int_bound 6) (list_size (int_bound 7) (oneofa view_methods)) (int_bound 99))
      (pair
         (list_size (int_bound 10) (triple idx small count))
         (list_size (int_bound 10) (quad idx small (int_bound 40) (int_bound 40))))
      (list_size (int_bound 10) (triple idx idx count))
  in
  list_size (int_bound 5) segment

let prop_view_reference =
  QCheck.Test.make ~count:500
    ~name:"view = per-row interning (methods, rows, samples, span)"
    (QCheck.make gen_view_segments)
    (fun segs ->
      let v = Fleet_query.view segs and r = view_per_row segs in
      v.Fleet_query.methods = r.r_methods
      && rows3 v.Fleet_query.paths = r.r_paths
      && rows4 v.Fleet_query.edges = r.r_edges
      && rows3 v.Fleet_query.dcg = r.r_dcg
      && v.Fleet_query.samples = r.r_samples
      && v.Fleet_query.segments = r.r_segments
      && v.Fleet_query.span = r.r_span)

(* Low thresholds, so small random views produce findings of every
   family. *)
let loose =
  { Fleet_query.new_share = 0.05; edge_shift = 0.2; min_edge = 4; min_dcg = 3 }

let prop_diff_reference =
  QCheck.Test.make ~count:300
    ~name:"diff and one index over many views = per-diff name tables"
    (QCheck.make QCheck.Gen.(pair gen_view_segments (list_size (int_bound 4) gen_view_segments)))
    (fun (base, currents) ->
      let rendered = List.map Fleet_query.render_finding in
      let baseline = Fleet_query.view base in
      let ix = Fleet_query.index baseline in
      List.for_all
        (fun cur ->
          let current = Fleet_query.view cur in
          let want =
            diff_per_row loose ~baseline:(view_per_row base) ~current:(view_per_row cur)
          in
          let indexed = Fleet_query.diff_indexed ~thresholds:loose ix ~current in
          rendered (Fleet_query.diff ~thresholds:loose ~baseline ~current ()) = want
          && List.map fst indexed = want
          && rendered (List.map snd indexed) = want)
        currents)

(* DCG rows whose summed weight is not positive stay out of the call
   graph [folded] builds on, and so out of its stacks; [top] counts
   them. *)
let test_folded_positive_dcg () =
  let s window dcg =
    {
      (seg ~cohort_name:"f" ~window ~origin:(-1) []) with
      Fleet_store.methods = [| "main"; "leaf"; "cold" |];
      rows = lazy_rows ~paths:[ (1, 0, 4); (2, 5, 7) ] ~dcg ();
    }
  in
  (* summed: root->main 3, main->leaf 6, main->cold 0, leaf->cold -1 *)
  let segs =
    [
      s 0 [ (-1, 0, 3); (0, 1, 5); (0, 2, 2) ];
      s 1 [ (0, 1, 1); (0, 2, -2); (1, 2, -1) ];
    ]
  in
  let v = Fleet_query.view segs in
  let name i = if i < 0 then "<root>" else Fleet_query.name_of v i in
  check csl "the view keeps every summed row"
    [ "<root>->main 3"; "leaf->cold -1"; "main->leaf 6"; "main->cold 0" ]
    (List.map
       (fun (c, e, w) -> Fmt.str "%s->%s %d" (name c) (name e) w)
       (rows3 v.Fleet_query.dcg));
  check csl "dcg stacks: positive rows only"
    [ "<root>;main;leaf 6"; "<root>;main 3" ]
    (Folded.to_lines (Fleet_query.folded `Dcg v));
  check csl "hot chains follow positive rows only (cold has no caller)"
    [ "<root>;cold;path#5 14"; "<root>;main;leaf;path#0 8" ]
    (Folded.to_lines (Fleet_query.folded `Paths v));
  check csl "top counts the non-positive rows"
    [ "main->leaf"; "<root>->main"; "main->cold"; "leaf->cold" ]
    (List.map fst (Fleet_query.top ~n:10 `Dcg segs))

(* --------------------- fault tolerance & healing ------------------ *)

(* The tentpole invariant, byte-level: any converging fault plan's
   store must fingerprint identically to the healthy shared run, and
   every injection must be accounted. *)

let healthy_fp = lazy (store_fingerprint (Lazy.force shared_dir))

let run_faulted ?jobs ~faults dir =
  let spec = { spec with Fleet_collector.faults = Fault_plan.parse_exn faults } in
  match Fleet_collector.run ?jobs ~dir spec with
  | Ok r -> r
  | Error e -> Alcotest.failf "faulted fleet run: %a" Dcg.pp_parse_error e

let counts_of (r : Fleet_collector.report) =
  match r.Fleet_collector.counts with
  | Some c -> c
  | None -> Alcotest.fail "active plan reported no fault accounting"

let check_accounted c =
  match Fault_injector.accounted c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unaccounted degradation: %s" m

let check_identical what dir =
  Alcotest.(check (list (pair string string)))
    what (Lazy.force healthy_fp) (store_fingerprint dir)

let test_noop_plan_identity () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"noop" dir in
  let c = counts_of r in
  check ci "no crashes" 0 c.Fault_injector.instance_crash;
  check ci "no torn writes" 0 c.Fault_injector.torn_write;
  check ci "no stragglers" 0 c.Fault_injector.straggler;
  check ci "no corruption" 0 c.Fault_injector.seg_corrupt;
  check ci "nothing degraded" 0 (List.length r.Fleet_collector.degraded);
  check_identical "noop store byte-identical" dir

let test_crash_restart_converges () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=11,crash=0.3,crash-restarts=10" dir in
  let c = counts_of r in
  check_accounted c;
  check cb "crashes fired" true (c.Fault_injector.instance_crash > 0);
  check ci "every crash restarted" c.Fault_injector.instance_crash
    c.Fault_injector.restarts;
  check ci "no instance lost" 0 c.Fault_injector.lost_instances;
  check_identical "crashed store byte-identical" dir

let test_torn_write_heals () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=23,torn-write=0.6,seg-retries=4" dir in
  let c = counts_of r in
  check_accounted c;
  check cb "torn writes fired" true (c.Fault_injector.torn_write > 0);
  check ci "every torn write recovered" c.Fault_injector.torn_write
    c.Fault_injector.writes_recovered;
  check cb "rebuilds recorded" true
    (List.exists (fun (_, _, reason) -> reason = "rebuilt")
       r.Fleet_collector.degraded);
  check csl "no temp or quarantined file left" []
    (List.filter
       (fun f ->
         (String.starts_with ~prefix:"run-" f && Filename.check_suffix f ".tmp")
         || Filename.check_suffix f ".quarantined")
       (Array.to_list (Sys.readdir dir)));
  check_identical "torn store byte-identical" dir

let test_seg_corrupt_quarantines () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=47,seg-corrupt=0.5,seg-retries=4" dir in
  let c = counts_of r in
  check_accounted c;
  check cb "corruption fired" true (c.Fault_injector.seg_corrupt > 0);
  check ci "every flip quarantined" c.Fault_injector.seg_corrupt
    c.Fault_injector.seg_quarantined;
  check cb "quarantine evidence kept" true
    (List.exists
       (fun f -> Filename.check_suffix f ".quarantined")
       (Array.to_list (Sys.readdir dir)));
  check_identical "quarantined store byte-identical" dir

let test_straggler_catches_up () =
  let dir = fresh_dir () in
  let r =
    run_faulted ~faults:"seed=31,straggler=0.7,straggler-timeout=3" dir
  in
  let c = counts_of r in
  check_accounted c;
  check cb "stragglers fired" true (c.Fault_injector.straggler > 0);
  check ci "every straggler caught up" c.Fault_injector.straggler
    c.Fault_injector.catchups;
  check ci "nothing degraded" 0 (List.length r.Fleet_collector.degraded);
  check_identical "straggling store byte-identical" dir

let test_doomed_loses_then_heals () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=3,crash=1,crash-restarts=0" dir in
  let c = counts_of r in
  check_accounted c;
  check ci "every instance lost"
    (r.Fleet_collector.cohorts * spec.Fleet_collector.instances)
    c.Fault_injector.lost_instances;
  check ci "no segments survive" 0 (List.length (segments_of dir));
  let lost =
    List.filter (fun (_, _, reason) -> reason = "lost")
      r.Fleet_collector.degraded
  in
  check ci "every window accounted lost"
    (r.Fleet_collector.cohorts * spec.Fleet_collector.windows)
    (List.length lost);
  (* one clean rerun re-collects the lost windows to the healthy bytes,
     and the loss history stays in the sidecar *)
  ignore (run_ok dir);
  check_identical "healed store byte-identical" dir;
  check cb "loss history preserved" true
    (List.exists (fun (_, _, reason) -> reason = "lost")
       (Fleet_store.load_degraded ~dir))

let test_jobs_identity_under_faults () =
  let faults =
    "seed=13,crash=0.2,crash-restarts=10,torn-write=0.3,straggler=0.3,\
     seg-corrupt=0.2"
  in
  let d1 = fresh_dir () and d4 = fresh_dir () in
  let r1 = run_faulted ~jobs:1 ~faults d1 in
  let r4 = run_faulted ~jobs:4 ~faults d4 in
  check cb "faults fired" true
    ((counts_of r1).Fault_injector.instance_crash
     + (counts_of r1).Fault_injector.torn_write
     + (counts_of r1).Fault_injector.straggler
     + (counts_of r1).Fault_injector.seg_corrupt
     > 0);
  check cb "identical accounting" true (counts_of r1 = counts_of r4);
  Alcotest.(check (list (pair string string)))
    "identical stores under injection" (store_fingerprint d1)
    (store_fingerprint d4)

(* Crash consistency, property-style: copy the healthy store, damage
   one segment at an arbitrary byte offset (torn prefix or flipped
   byte), with or without the debris a crash inside
   [Exp_store.write_file] leaves (the victim's prefix in a stray
   [run-*.tmp]), and re-run: the store must converge back to the
   healthy bytes, with no temp file left. *)
let prop_crash_consistency =
  QCheck.Test.make ~count:15
    ~name:"crash consistency: damaged store heals byte-for-byte"
    QCheck.(quad small_nat small_nat bool bool)
    (fun (vi, off, flip, stray) ->
      let healthy = Lazy.force shared_dir in
      let fp = Lazy.force healthy_fp in
      let dir = fresh_dir () in
      ignore (Exp_store.prepare_dir dir);
      List.iter
        (fun (f, _) ->
          write_all (Filename.concat dir f)
            (read_all (Filename.concat healthy f)))
        fp;
      let victim, _ = List.nth fp (vi mod List.length fp) in
      let path = Filename.concat dir victim in
      let bytes = read_all path in
      let len = String.length bytes in
      let prefix = String.sub bytes 0 (1 + (off mod (len - 1))) in
      (if flip then begin
         let i = off mod len in
         let b = Bytes.of_string bytes in
         Bytes.set b i (Char.chr (Char.code bytes.[i] lxor 0x55));
         write_all path (Bytes.to_string b)
       end
       else write_all path prefix);
      if stray then
        write_all (Exp_store.temp_file ~dir) prefix;
      ignore (run_ok dir);
      if store_fingerprint dir <> fp then
        QCheck.Test.fail_report "damaged store did not converge"
      else if
        Array.exists
          (fun f -> Filename.check_suffix f ".tmp")
          (Sys.readdir dir)
      then QCheck.Test.fail_report "a temp file was left"
      else true)

let test_fleet_chaos_mini () =
  let dir = fresh_dir () in
  let cases =
    [
      Exp_chaos.fleet_case "noop" "noop" true;
      Exp_chaos.fleet_case "doomed" "seed=3,crash=1,crash-restarts=0" false;
    ]
  in
  let reports = Fleet_chaos.sweep ~jobs:2 ~cases ~dir spec in
  check ci "two reports" 2 (List.length reports);
  List.iter
    (fun (r : Fleet_chaos.report) ->
      check csl (r.Fleet_chaos.flabel ^ " clean") [] r.Fleet_chaos.violations)
    reports

(* ------------------------------ watch ----------------------------- *)

let wseg ~window rows = seg ~cohort_name:"w" ~window ~origin:0 rows
let base_rows = [ (0, 1, 100) ]
let hot_rows = [ (0, 1, 100); (1, 7, 50) ]

let watch_rule ?(persist = 2) () =
  {
    Fleet_watch.name = "hot";
    cohort = Some "w";
    families = [ Fleet_watch.New_hot_path ];
    persist;
    min_share = None;
    min_shift = None;
  }

let run_watch ?persist ?(degraded = []) windows =
  Fleet_watch.run
    ~rules:[ watch_rule ?persist () ]
    ~degraded
    (List.mapi (fun i rows -> wseg ~window:i rows) windows)

let test_watch_fires_once_then_dedups () =
  let r = run_watch [ base_rows; hot_rows; hot_rows; hot_rows ] in
  (match r.Fleet_watch.alerts with
  | [ a ] ->
      check ci "fires at the second hot window" 2 a.Fleet_watch.window;
      check ci "after a 2-window streak" 2 a.Fleet_watch.streak;
      check cb "not degraded" false a.Fleet_watch.degraded;
      check cb "renders as an ALERT line" true
        (String.length (Fleet_watch.render_alert a) > 0
        && String.sub (Fleet_watch.render_alert a) 0 15 = "ALERT rule=hot ")
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l));
  check ci "third hot window deduped" 1 r.Fleet_watch.deduped;
  check ci "no flaps" 0 r.Fleet_watch.flapped

let test_watch_flap_suppressed () =
  let r = run_watch [ base_rows; hot_rows; base_rows; hot_rows ] in
  check ci "no alert from a broken streak" 0
    (List.length r.Fleet_watch.alerts);
  check ci "the break is counted as a flap" 1 r.Fleet_watch.flapped

let test_watch_persist_one_is_immediate () =
  let r = run_watch ~persist:1 [ base_rows; hot_rows ] in
  check ci "fires on first sight" 1 (List.length r.Fleet_watch.alerts)

let test_watch_degraded_annotation () =
  let degraded = [ ("w", 2, "rebuilt") ] in
  let r = run_watch ~degraded [ base_rows; hot_rows; hot_rows ] in
  (match r.Fleet_watch.alerts with
  | [ a ] -> check cb "degraded-data flagged" true a.Fleet_watch.degraded
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l));
  (* a degraded baseline window taints every alert of the cohort *)
  let r2 =
    run_watch ~degraded:[ ("w", 0, "lost") ] [ base_rows; hot_rows; hot_rows ]
  in
  match r2.Fleet_watch.alerts with
  | [ a ] -> check cb "degraded baseline flagged" true a.Fleet_watch.degraded
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l)

let test_watch_rule_grammar () =
  let line = "hot cohort=shift family=new-hot-path,edge-shift persist=3 min-share=0.05" in
  (match Fleet_watch.parse_rule line with
  | Error m -> Alcotest.failf "parse_rule: %s" m
  | Ok r ->
      check Alcotest.string "round-trips" line (Fleet_watch.rule_to_line r);
      check cb "families parsed" true
        (r.Fleet_watch.families
        = [ Fleet_watch.New_hot_path; Fleet_watch.Edge_shift ]));
  List.iter
    (fun bad ->
      check cb (Fmt.str "rejects %S" bad) true
        (Result.is_error (Fleet_watch.parse_rule bad)))
    [ ""; "cohort=c"; "x persist=0"; "x family=bogus"; "x frob"; "x min-share=2" ];
  match Fleet_watch.parse_rules "# standing rules\nhot cohort=w persist=2\n\ndrift\n" with
  | Ok [ _; _ ] -> ()
  | Ok l -> Alcotest.failf "expected 2 rules, got %d" (List.length l)
  | Error m -> Alcotest.failf "parse_rules: %s" m

(* ----------------------------- suite ------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "jobs 1 = jobs 4 (segments + queries)" `Slow
      test_jobs_deterministic;
    Alcotest.test_case "warm rerun simulates nothing" `Slow test_warm_rerun;
    Alcotest.test_case "triage flags the drifting cohort" `Slow
      test_triage_drift;
    Alcotest.test_case "triage is silent on the steady cohort" `Slow
      test_triage_steady_clean;
    Alcotest.test_case "segment save/load roundtrip" `Quick
      test_segment_roundtrip;
    Alcotest.test_case "flipped byte rejected by digest" `Quick
      test_segment_tamper_rejected;
    Alcotest.test_case "junk segment file is a diagnostic" `Quick
      test_segment_junk_rejected;
    qcheck prop_segment_codec;
    Alcotest.test_case "merge sums rows and spans windows" `Quick
      test_merge_sums;
    Alcotest.test_case "compact then retain" `Quick test_compact_and_retain;
    Alcotest.test_case "query prefers merged segments" `Quick
      test_select_prefers_merged;
    Alcotest.test_case "noop fault plan is byte-identical" `Slow
      test_noop_plan_identity;
    Alcotest.test_case "crash + restart converges" `Slow
      test_crash_restart_converges;
    Alcotest.test_case "torn writes heal" `Slow test_torn_write_heals;
    Alcotest.test_case "corrupt segments quarantine + rebuild" `Slow
      test_seg_corrupt_quarantines;
    Alcotest.test_case "stragglers catch up" `Slow test_straggler_catches_up;
    Alcotest.test_case "doomed plan loses, clean rerun heals" `Slow
      test_doomed_loses_then_heals;
    Alcotest.test_case "jobs 1 = jobs 4 under injection" `Slow
      test_jobs_identity_under_faults;
    qcheck prop_crash_consistency;
    Alcotest.test_case "fleet chaos mini sweep" `Slow test_fleet_chaos_mini;
    Alcotest.test_case "watch fires once then dedups" `Quick
      test_watch_fires_once_then_dedups;
    Alcotest.test_case "watch suppresses flaps" `Quick
      test_watch_flap_suppressed;
    Alcotest.test_case "watch persist=1 fires immediately" `Quick
      test_watch_persist_one_is_immediate;
    Alcotest.test_case "watch annotates degraded data" `Quick
      test_watch_degraded_annotation;
    Alcotest.test_case "watch rule grammar round-trips" `Quick
      test_watch_rule_grammar;
    Alcotest.test_case "varint and count bounds are diagnosed" `Quick
      test_segment_bounds_diagnosed;
    qcheck prop_key_formats;
    Alcotest.test_case "load_all sorts by (cohort key, lo, hi, origin)" `Quick
      test_load_order;
    qcheck prop_select_pairwise;
    qcheck prop_top_reference;
    qcheck prop_decoder_reference;
    qcheck prop_view_reference;
    qcheck prop_diff_reference;
    Alcotest.test_case "folded leaves non-positive DCG rows out" `Quick
      test_folded_positive_dcg;
    Alcotest.test_case "clean ingest holds only segments" `Slow
      test_clean_ingest_only_segments;
  ]
