(* Time-windowed, digest-protected profile segments.

   One binary file per segment, reusing the run cache's wire
   vocabulary and frame reader (Exp_codec.Bin: varints, magic +
   version byte, raw MD5 trailer) and directory discipline
   (Exp_store.prepare_dir / atomic write_file).  A segment
   carries per-window *deltas* of the three profile tables — paths,
   edges, DCG — plus the method-name table of the program that
   produced them, so queries never rebuild a program or machine.

   Reading a file checks all of it: frame, digest, header, identity
   self-check and the structure of the three row sections (counts in
   range, varints well formed, nothing trailing).  The rows themselves
   are decoded only when a query first asks for them, into flat int
   arrays; until then a segment holds its file's bytes.

   Lifecycle: the collector writes one raw segment per (instance,
   window); [compact] folds the raws of each (cohort, window) into one
   merged segment (origin = -1) and deletes them; [retain] trims the
   oldest windows.  Everything is deterministic: file names are MD5s
   of the segment's identity key, loads come back sorted by key. *)

type rows = {
  paths : int array;  (* stride 3: method, path id, count *)
  edges : int array;  (* stride 4: method, branch, taken, not-taken *)
  dcg : int array;  (* stride 3: caller (-1 = root), callee, weight *)
}

type segment = {
  cohort : Fleet.Cohort.t;
  window : Fleet.Window.t;
  origin : int;  (* contributing instance ordinal; -1 once merged *)
  instances : int;
  samples : int;
  methods : string array;
  rows : rows Lazy.t;
}

let rows s = Lazy.force s.rows

let magic = "PEPSEG"
let version = 1

(* [cohort_key] is [Fleet.Cohort.key s.cohort], for callers that
   already rendered it *)
let keyed ~cohort_key s =
  String.concat ""
    [
      cohort_key; "|"; Fleet.Window.key s.window; "|origin=";
      string_of_int s.origin;
    ]

let segment_key s = keyed ~cohort_key:(Fleet.Cohort.key s.cohort) s

let filename ~dir s =
  Filename.concat dir (Digest.to_hex (Digest.string (segment_key s)) ^ ".seg")

let err file reason = { Dcg.file = Some file; line = 0; text = ""; reason }

(* ------------------------------ encode ----------------------------- *)

module Bin = Exp_codec.Bin

let encode s =
  let w = Bin.frame ~magic ~version in
  Bin.str w (segment_key s);
  Bin.str w s.cohort.Fleet.Cohort.name;
  Bin.str w s.cohort.Fleet.Cohort.workload;
  Bin.int w s.cohort.Fleet.Cohort.size;
  Bin.int w s.cohort.Fleet.Cohort.seed;
  Bin.str w s.cohort.Fleet.Cohort.config_key;
  (match s.cohort.Fleet.Cohort.drift with
  | Fleet.Drift.No_drift -> Bin.byte w 0
  | Fleet.Drift.Phase_shift { at_window; phase } ->
      Bin.byte w 1;
      Bin.int w at_window;
      Bin.int w phase);
  Bin.int w s.window.Fleet.Window.lo;
  Bin.int w s.window.Fleet.Window.hi;
  Bin.int w s.window.Fleet.Window.start_cycle;
  Bin.int w s.window.Fleet.Window.end_cycle;
  Bin.int w s.origin;
  Bin.int w s.instances;
  Bin.int w s.samples;
  Bin.int w (Array.length s.methods);
  Array.iter (Bin.str w) s.methods;
  let r = rows s in
  let section ~stride a =
    Bin.int w (Array.length a / stride);
    Array.iter (Bin.int w) a
  in
  section ~stride:3 r.paths;
  section ~stride:4 r.edges;
  section ~stride:3 r.dcg;
  Bin.contents_with_digest w

(* ------------------------------ decode ----------------------------- *)

(* A decoded segment with its identity order key (cohort key, lo, hi,
   origin), the cohort key being the one rendered for the identity
   self-check. *)
let decode_keyed ~file contents =
  Bin.check_frame ~magic ~version ~what:"segment" ~file contents (fun r ->
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
      (* the row sections are checked now and decoded on first use *)
      let section ~stride = Bin.rints_later r (stride * Bin.rcount r) in
      let paths = section ~stride:3 in
      let edges = section ~stride:4 in
      let dcg = section ~stride:3 in
      let s =
        {
          cohort =
            { Fleet.Cohort.name; workload; size; seed; config_key; drift };
          window = { Fleet.Window.lo; hi; start_cycle; end_cycle };
          origin;
          instances;
          samples;
          methods;
          rows = lazy { paths = paths (); edges = edges (); dcg = dcg () };
        }
      in
      (* self-check: the stored identity must match the decoded fields
         (catches a segment renamed or spliced across stores) *)
      let cohort_key = Fleet.Cohort.key s.cohort in
      let key = keyed ~cohort_key s in
      if key <> stored_key then
        Bin.fail
          (Fmt.str "segment identity mismatch (stored %S, decoded %S)"
             stored_key key);
      ((cohort_key, lo, hi, origin), s))

let decode ~file contents = Result.map snd (decode_keyed ~file contents)

(* ----------------------- journal & recovery ------------------------ *)

(* Write-ahead journal: before a segment's bytes move toward their
   final name an intent record ("W <basename> <md5 of bytes>") is
   appended; after the atomic rename lands a commit record
   ("C <basename>") follows.  On open, an intent without a commit
   marks crash debris: if the named file is missing or fails decode it
   is removed (the write was torn), if it decodes it merely missed its
   commit line (crash between rename and append).  Either way the
   store converges to decode-valid segments only, so a run killed at
   any byte offset can be resumed to the healthy store's exact bytes.
   A torn *journal* line (crash mid-append) is itself expected debris
   and is skipped, never reported. *)

let journal_file dir = Filename.concat dir "fleet.journal"

let append_journal ~dir line =
  let file = journal_file dir in
  try
    Out_channel.with_open_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644 file
      (fun oc -> Out_channel.output_string oc (line ^ "\n"));
    Ok ()
  with Sys_error m -> Error (err file ("journal append failed: " ^ m))

type recovery = { healed : int; late_commits : int }

let no_recovery = { healed = 0; late_commits = 0 }

let scan_journal dir =
  let file = journal_file dir in
  if not (Sys.file_exists file) then no_recovery
  else begin
    let lines =
      match Exp_store.read_file file with
      | Ok contents -> String.split_on_char '\n' contents
      | Error _ -> []
    in
    (* basename -> committed?  (insertion keeps only the last intent) *)
    let pending = Hashtbl.create 8 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "W"; base; _digest ] -> Hashtbl.replace pending base false
        | [ "C"; base ] -> Hashtbl.replace pending base true
        | _ -> ())
      lines;
    let healed = ref 0 and late = ref 0 in
    Hashtbl.iter
      (fun base committed ->
        if not committed then begin
          let f = Filename.concat dir base in
          if Sys.file_exists f then begin
            let valid =
              match Exp_store.read_file f with
              | Error _ -> false
              | Ok contents -> Result.is_ok (decode ~file:f contents)
            in
            if valid then incr late
            else begin
              (try Sys.remove f with Sys_error _ -> ());
              incr healed
            end
          end
        end)
      pending;
    (* every intent is resolved; drop the journal so it cannot grow
       without bound across runs *)
    (try Sys.remove file with Sys_error _ -> ());
    { healed = !healed; late_commits = !late }
  end

let open_ dir =
  match Exp_store.prepare_dir dir with
  | Error _ as e -> e
  | Ok () -> Ok (scan_journal dir)

(* Move a damaged segment aside (evidence preserved, store no longer
   poisoned); content-addressed names mean a re-collected replacement
   lands under the original name. *)
let quarantine file =
  try
    Sys.rename file (file ^ ".quarantined");
    Ok ()
  with Sys_error m -> Error (err file ("quarantine failed: " ^ m))

(* ------------------------- degraded-data log ----------------------- *)

(* Windows rebuilt from quarantine or lost with an instance are
   recorded in a sidecar, never in the segment format itself — a
   healed store must stay byte-identical to a never-damaged one, so
   provenance cannot live in the segments. *)

let degraded_file dir = Filename.concat dir "degraded.log"

let note_degraded ~dir ~cohort ~window ~reason =
  let file = degraded_file dir in
  if
    String.exists (fun c -> c = '\t' || c = '\n' || c = '\r') cohort
    || String.exists (fun c -> c = '\t' || c = '\n' || c = '\r') reason
  then Error (err file "refusing to log: field contains a tab or newline")
  else
    try
      Out_channel.with_open_gen
        [ Open_append; Open_creat; Open_binary ]
        0o644 file
        (fun oc ->
          Out_channel.output_string oc
            (Fmt.str "%s\t%d\t%s\n" cohort window reason));
      Ok ()
    with Sys_error m -> Error (err file ("degraded log append failed: " ^ m))

let load_degraded ~dir =
  match Exp_store.read_file (degraded_file dir) with
  | Error _ -> []
  | Ok contents ->
      String.split_on_char '\n' contents
      |> List.filter_map (fun line ->
             match String.split_on_char '\t' line with
             | [ cohort; window; reason ] -> (
                 match int_of_string_opt window with
                 | Some w -> Some (cohort, w, reason)
                 | None -> None)
             | _ -> None)
      |> List.sort_uniq compare

(* ---------------------------- save / load -------------------------- *)

let save ?inject ~dir s =
  let flat a = not (String.contains a '\n' || String.contains a '\r') in
  let r = rows s in
  let whole ~stride a = Array.length a mod stride = 0 in
  if
    not
      (Array.for_all flat s.methods
      && flat (Fleet.Cohort.key s.cohort))
  then
    Error
      (err (filename ~dir s) "refusing to save: segment field contains a newline")
  else if
    not (whole ~stride:3 r.paths && whole ~stride:4 r.edges && whole ~stride:3 r.dcg)
  then
    Error
      (err (filename ~dir s)
         "refusing to save: a row array's length is not a multiple of its stride")
  else begin
    let file = filename ~dir s in
    let base = Filename.basename file in
    let bytes = encode s in
    let intent () =
      append_journal ~dir
        (Fmt.str "W %s %s" base (Digest.to_hex (Digest.string bytes)))
    in
    match inject with
    | None -> (
        match intent () with
        | Error _ as e -> e
        | Ok () -> (
            match Exp_store.write_file ~file bytes with
            | Error _ as e -> e
            | Ok () -> append_journal ~dir ("C " ^ base)))
    | Some (`Torn draw) -> (
        (* simulate dying mid-write: a strict prefix lands under the
           final name, the commit record never does *)
        match intent () with
        | Error _ as e -> e
        | Ok () -> (
            let cut = 1 + (draw mod max 1 (String.length bytes - 1)) in
            try
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc (String.sub bytes 0 cut));
              Ok ()
            with Sys_error m -> Error (err file ("write failed: " ^ m))))
    | Some (`Flip draw) -> (
        (* the write completes (intent + commit) but a byte is flipped:
           silent corruption only the digest check can see *)
        match intent () with
        | Error _ as e -> e
        | Ok () -> (
            let b = Bytes.of_string bytes in
            let pos = draw mod Bytes.length b in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
            match Exp_store.write_file ~file (Bytes.to_string b) with
            | Error _ as e -> e
            | Ok () -> append_journal ~dir ("C " ^ base)))
  end

(* Every [*.seg] in [dir], decoded, sorted by identity on the key
   [decode_keyed] built once per segment; unreadable or corrupt files
   are collected as diagnostics, never trusted.  The stable sort runs
   over the segments in reverse file-name order, so equal identities
   (one segment copied under two names) come back with the later name
   first. *)
let load_all ~dir =
  match Sys.readdir dir with
  | exception Sys_error m -> ([], [ err dir ("unreadable store: " ^ m) ])
  | entries ->
      let files =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".seg")
        |> List.sort compare
      in
      let segs, errs =
        List.fold_left
          (fun (segs, errs) f ->
            let file = Filename.concat dir f in
            match Exp_store.read_file file with
            | Error e -> (segs, e :: errs)
            | Ok contents -> (
                match decode_keyed ~file contents with
                | Ok entry -> (entry :: segs, errs)
                | Error e -> (segs, e :: errs)))
          ([], []) files
      in
      ( List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) segs),
        List.rev errs )

(* ------------------------------ merge ------------------------------ *)

(* Rows summed per key (their first two ints), in ascending key order:
   the order merged segments store them in *)
let sum_rows ~stride arrays =
  let t = Fleet_rows.create ~stride in
  List.iter
    (fun a ->
      for k = 0 to (Array.length a / stride) - 1 do
        let o = k * stride in
        Fleet_rows.sum t a.(o) a.(o + 1) a o
      done)
    arrays;
  Fleet_rows.sorted t

(* Fold same-cohort segments into one: windows spanned, instance
   counts summed for distinct origins (raws) or taken as the fleet
   width (merged inputs), rows summed.  Raising on mixed cohorts keeps
   merge bugs loud — callers always group by cohort first. *)
let merge = function
  | [] -> invalid_arg "Fleet_store.merge: empty"
  | first :: _ as segs ->
      List.iter
        (fun s ->
          if not (Fleet.Cohort.equal s.cohort first.cohort) then
            invalid_arg "Fleet_store.merge: mixed cohorts")
        segs;
      let window =
        List.fold_left
          (fun acc s -> Fleet.Window.span acc s.window)
          first.window segs
      in
      let all_raw = List.for_all (fun s -> s.origin >= 0) segs in
      let instances =
        if all_raw then List.fold_left (fun acc s -> acc + s.instances) 0 segs
        else List.fold_left (fun acc s -> max acc s.instances) 0 segs
      in
      let methods =
        List.fold_left
          (fun acc s ->
            if Array.length s.methods > Array.length acc then s.methods else acc)
          first.methods segs
      in
      {
        cohort = first.cohort;
        window;
        origin = -1;
        instances;
        samples = List.fold_left (fun acc s -> acc + s.samples) 0 segs;
        methods;
        rows =
          (let rows = List.map rows segs in
           Lazy.from_val
             {
               paths = sum_rows ~stride:3 (List.map (fun r -> r.paths) rows);
               edges = sum_rows ~stride:4 (List.map (fun r -> r.edges) rows);
               dcg = sum_rows ~stride:3 (List.map (fun r -> r.dcg) rows);
             });
      }

(* Fold every (cohort, window)'s raw segments into one merged segment
   and delete the raws.  A window that already has a merged segment
   keeps it only while the merged segment covers {e more} instances
   than the fresh raws — a degraded merged window (instance lost,
   quarantine rebuild) is replaced as soon as a full re-collection
   lands, which is what lets a damaged store heal back to the healthy
   bytes.  Returns (merged written, raws deleted). *)
let compact ~dir =
  let segs, errs = load_all ~dir in
  let raws = List.filter (fun s -> s.origin >= 0) segs in
  let merged_instances = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.origin < 0 then begin
        let k =
          (Fleet.Cohort.key s.cohort, s.window.Fleet.Window.lo,
           s.window.Fleet.Window.hi)
        in
        let prev =
          Option.value ~default:0 (Hashtbl.find_opt merged_instances k)
        in
        Hashtbl.replace merged_instances k (max prev s.instances)
      end)
    segs;
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let k =
        (Fleet.Cohort.key s.cohort, s.window.Fleet.Window.lo,
         s.window.Fleet.Window.hi)
      in
      (match Hashtbl.find_opt groups k with
      | Some l -> Hashtbl.replace groups k (s :: l)
      | None ->
          order := k :: !order;
          Hashtbl.replace groups k [ s ]))
    raws;
  let written = ref 0 and deleted = ref 0 and errs = ref errs in
  List.iter
    (fun k ->
      let group = List.rev (Hashtbl.find groups k) in
      let raw_sum = List.fold_left (fun acc s -> acc + s.instances) 0 group in
      let keep_merged =
        match Hashtbl.find_opt merged_instances k with
        | Some mi -> mi > raw_sum
        | None -> false
      in
      let ok =
        if keep_merged then true
        else
          match save ~dir (merge group) with
          | Ok () ->
              incr written;
              true
          | Error e ->
              errs := !errs @ [ e ];
              false
      in
      if ok then
        List.iter
          (fun s ->
            try
              Sys.remove (filename ~dir s);
              incr deleted
            with Sys_error _ -> ())
          group)
    (List.rev !order);
  (!written, !deleted, !errs)

(* Keep only the newest [max_windows] window indexes per cohort
   (merged and raw alike); returns segments deleted. *)
let retain ~dir ~max_windows =
  let segs, _errs = load_all ~dir in
  let latest = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = Fleet.Cohort.key s.cohort in
      let hi = s.window.Fleet.Window.hi in
      match Hashtbl.find_opt latest k with
      | Some h when h >= hi -> ()
      | _ -> Hashtbl.replace latest k hi)
    segs;
  let deleted = ref 0 in
  List.iter
    (fun s ->
      let cutoff =
        Hashtbl.find latest (Fleet.Cohort.key s.cohort) - max_windows + 1
      in
      if s.window.Fleet.Window.hi < cutoff then
        try
          Sys.remove (filename ~dir s);
          incr deleted
        with Sys_error _ -> ())
    segs;
  !deleted

let store_bytes ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun acc f ->
          if Filename.check_suffix f ".seg" then
            match
              In_channel.with_open_bin (Filename.concat dir f)
                In_channel.length
            with
            | sz -> acc + Int64.to_int sz
            | exception Sys_error _ -> acc
          else acc)
        0 entries
