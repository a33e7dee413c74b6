(* The [fleet] workload: ingest a simulated fleet into a fresh segment
   store, then answer a fixed seeded mix of queries against it.

   - The write phase (ingest) is one [Fleet_collector.run] with
     compaction on: 4 cohorts (one steady, three shifting phase at
     windows 8, 16 and 24) x 2 instances x 32 windows of a generated workload
     with real path tables, executed under PEP(64,17) with the 8x timer
     compression, landing 256 raw snapshots that compact to 128 merged
     segments.
   - The read phase is one closed-loop client with no think time.  Each
     query works the way `pepsim fleet query|diff|watch` does: load the
     store, select, aggregate, answer.  The mix is top-N over paths,
     edges and the dynamic call graph on random cohort and window
     ranges, folded export, temporal diff, cross-cohort diff and watch.

   One OCaml domain throughout ([jobs = 1]).  Queries never touch the
   engine; ingest never reads a query layer. *)

open Pb_util

let workload_spec =
  "gen:seed=3,methods=8,mega=8,depth=6,loops=3,diamonds=16,phases=4,tenants=4,burst=8,size=20"

let instances = 2
let windows = 32
let rounds = 12

(* The instances' base seed is fixed, so every run ingests the same
   work into the same store; [--seed] draws the query mix. *)
let ingest_seed = 42

(* ------------------------------ inputs ----------------------------- *)

type query =
  | Top of { kind : Fleet_query.kind; filter : Fleet_query.filter; n : int }
  | Folded of { kind : Fleet_query.kind; filter : Fleet_query.filter }
  | Temporal of { cohort : string; split : int }
  | Cross of { baseline : string; cohort : string }
  | Watch of { persist : int }

let query_kind = function
  | Top _ -> "top"
  | Folded _ -> "folded"
  | Temporal _ -> "temporal-diff"
  | Cross _ -> "cohort-diff"
  | Watch _ -> "watch"

(* The steady control plus three cohorts shifting to phases 1, 2 and 3
   at fixed windows: the seed varies the instances' request streams and
   the queries, never the amount of simulated work. *)
let cohorts =
  ("steady", Fleet.Drift.No_drift)
  :: List.map
       (fun (name, at_window, phase) ->
         (name, Fleet.Drift.Phase_shift { at_window; phase }))
       [ ("shift-a", 8, 1); ("shift-b", 16, 2); ("shift-c", 24, 3) ]

(* [rounds] rounds of eight queries in a fixed kind order.  Each query's
   cohort, window-range width and top-N size follow a fixed pattern and
   the seed draws only where its window range sits (and the temporal
   diff's split), so a query's cost hardly depends on the seed; the list
   is the same every cycle. *)
let mix ~seed =
  let st = Random.State.make [| seed; 0x9e |] in
  let names = Array.of_list (List.map fst cohorts) in
  let shifting = Array.sub names 1 3 in
  let kinds = [| `Paths; `Edges; `Dcg |] in
  let filter r k =
    let width = [| 4; 8; 16; 32 |].((r + k) mod 4) in
    let lo = Random.State.int st (windows - width + 1) in
    let cohort = if (r + k) mod 5 = 4 then None else Some names.((r + k) mod 4) in
    { Fleet_query.cohort; lo = Some lo; hi = Some (lo + width - 1) }
  in
  List.concat
    (List.init rounds (fun r ->
         let n = [| 5; 10; 20 |].(r mod 3) in
         let q1 = Top { kind = `Paths; filter = filter r 0; n } in
         let q2 = Top { kind = `Edges; filter = filter r 1; n } in
         let q3 = Top { kind = `Dcg; filter = filter r 2; n } in
         let q4 = Folded { kind = kinds.(r mod 3); filter = filter r 3 } in
         let q5 = Temporal { cohort = shifting.(r mod 3); split = 8 + Random.State.int st 17 } in
         let q6 = Cross { baseline = "steady"; cohort = shifting.((r + 1) mod 3) } in
         let q7 = Top { kind = kinds.((r + 1) mod 3); filter = filter r 4; n = 10 } in
         let q8 = Watch { persist = 1 + (r mod 3) } in
         [ q1; q2; q3; q4; q5; q6; q7; q8 ]))

type inputs = {
  workload : Workload.t;
  spec : Fleet_collector.spec;
  queries : query array;
}

(* Resolve and compile the generated workload, and draw the query mix
   from the seed. *)
let setup ~seed =
  let workload =
    match Suite.resolve workload_spec with Ok w -> w | Error m -> failwith m
  in
  ignore (Workload.program workload);
  {
    workload;
    spec = Fleet_collector.default_spec ~seed:ingest_seed ~instances ~windows ~cohorts workload;
    queries = Array.of_list (mix ~seed);
  }

(* ------------------------------ ingest ----------------------------- *)

type ingest = {
  time : Pb_clock.result;  (** collect + store + compact *)
  report : Fleet_collector.report;
  md5 : string;  (** of the segment files *)
  alloc_mw : float;
  majors : int;
  collector_alloc_mw : float;
}

let expected_snapshots = 4 * instances * windows
let expected_segments = 4 * windows

(* Untraced: one [Fleet_collector.run] with compaction.  Traced: the
   collector with [keep_raw], then [Fleet_store.compact] — the same
   store, with the nested compaction timed on its own; between the two
   (outside the accounted phase) the raw snapshots are re-saved to a
   scratch directory to estimate [Fleet_store.save], which runs nested
   inside the collector. *)
let ingest tr inputs ~dir ~scratch =
  fresh_dir dir;
  Gc.compact ();
  (* An accounted part of the phase: a [phase] span, a clock segment, and
     the allocation and major collections it causes. *)
  let clock = ref None and alloc = ref 0. and majors = ref 0 in
  let part f =
    Pb_trace.span tr ~layer:"phase" ~name:"write" ~req:"ingest" (fun () ->
        (match !clock with None -> clock := Some (Pb_clock.start tr) | Some c -> Pb_clock.resume c);
        let a = alloc_words () and g = major_collections () in
        let r = f () in
        alloc := !alloc +. (alloc_words () -. a);
        majors := !majors + (major_collections () - g);
        Pb_clock.lap (Option.get !clock);
        r)
  in
  let collector_alloc = ref 0. in
  let collect spec =
    let a = alloc_words () in
    let r =
      Pb_trace.span tr ~layer:"collector.run" ~req:"ingest" (fun () ->
          Fleet_collector.run ~jobs:1 ~dir spec)
    in
    collector_alloc := alloc_words () -. a;
    match r with Ok r -> r | Error e -> failwith (Fmt.str "%a" Dcg.pp_parse_error e)
  in
  let report =
    if not (Pb_trace.enabled tr) then part (fun () -> collect inputs.spec)
    else begin
      let r = part (fun () -> collect { inputs.spec with Fleet_collector.keep_raw = true }) in
      fresh_dir scratch;
      let raws, _ = Fleet_store.load_all ~dir in
      List.iter
        (fun s ->
          ignore
            (Pb_trace.span tr ~layer:"segstore.save" ~req:(Fleet_store.segment_key s) (fun () ->
                 Fleet_store.save ~dir:scratch s)))
        raws;
      let merged, _, diags =
        part (fun () ->
            Pb_trace.span tr ~layer:"segstore.compact" ~req:"compact" (fun () ->
                Fleet_store.compact ~dir))
      in
      {
        r with
        Fleet_collector.merged;
        diags = r.Fleet_collector.diags @ diags;
        store_bytes = Fleet_store.store_bytes ~dir;
      }
    end
  in
  {
    time = Pb_clock.read (Option.get !clock);
    report;
    md5 = dir_md5 ~suffix:".seg" dir;
    alloc_mw = !alloc /. 1e6;
    majors = !majors;
    collector_alloc_mw = !collector_alloc /. 1e6;
  }

(* Independent checks on a finished ingest: the expected counts, no
   diagnostics, and the merged segments conserve the snapshots'
   samples and instance counts. *)
let check_ingest ~dir (g : ingest) =
  let r = g.report in
  let bad = ref [] in
  let fail fmt = Fmt.kstr (fun m -> bad := m :: !bad) fmt in
  List.iter (fun d -> fail "ingest: %a" Dcg.pp_parse_error d) r.Fleet_collector.diags;
  if r.Fleet_collector.snapshots <> expected_snapshots then
    fail "ingest wrote %d snapshots, expected %d" r.Fleet_collector.snapshots expected_snapshots;
  if r.Fleet_collector.merged <> expected_segments then
    fail "compaction wrote %d segments, expected %d" r.Fleet_collector.merged expected_segments;
  let segments, diags = Fleet_store.load_all ~dir in
  List.iter (fun d -> fail "store: %a" Dcg.pp_parse_error d) diags;
  if List.length segments <> expected_segments then
    fail "store holds %d segments, expected %d" (List.length segments) expected_segments;
  let samples = List.fold_left (fun a (s : Fleet_store.segment) -> a + s.Fleet_store.samples) 0 segments in
  if samples <> r.Fleet_collector.samples_taken then
    fail "merged segments carry %d samples, snapshots took %d" samples r.Fleet_collector.samples_taken;
  List.iter
    (fun (s : Fleet_store.segment) ->
      if s.Fleet_store.origin <> -1 || s.Fleet_store.instances <> instances then
        fail "segment %s: origin %d, %d instances" (Fleet_store.segment_key s)
          s.Fleet_store.origin s.Fleet_store.instances)
    segments;
  List.rev !bad

(* ------------------------------ queries ---------------------------- *)

let render_top (v : Fleet_query.view) rows =
  Fmt.str "segments=%d samples=%d span=%s\n%s" v.Fleet_query.segments v.Fleet_query.samples
    (match v.Fleet_query.span with Some w -> Fleet.Window.key w | None -> "none")
    (String.concat "\n" (List.map (fun (l, s) -> Printf.sprintf "%.6f %s" s l) rows))

(* One query, as the CLI answers it: load the store, select, aggregate,
   answer.  Returns the answer text, or [Error] on store diagnostics or
   an empty selection. *)
let answer tr ~dir q =
  let span layer f = Pb_trace.span tr ~layer ~req:"" f in
  let segments, diags = span "segstore.load" (fun () -> Fleet_store.load_all ~dir) in
  if diags <> [] then Error (Fmt.str "%a" Dcg.pp_parse_error (List.hd diags))
  else
    let select filter = span "query.select" (fun () -> Fleet_query.select segments filter) in
    let view sel = span "query.view" (fun () -> Fleet_query.view sel) in
    let findings ~base ~cur =
      if base = [] || cur = [] then Error "diff needs segments on both sides"
      else
        let baseline = view base and current = view cur in
        Ok
          (span "query.diff" (fun () ->
               String.concat "\n"
                 (List.map Fleet_query.render_finding
                    (Fleet_query.diff ~baseline ~current ()))))
    in
    match q with
    | Top { kind; filter; n } ->
        let sel = select filter in
        if sel = [] then Error "no segments match the filter"
        else
          let v = view sel in
          Ok (span "query.top" (fun () -> render_top v (Fleet_query.top ~n kind sel)))
    | Folded { kind; filter } ->
        let sel = select filter in
        if sel = [] then Error "no segments match the filter"
        else
          let v = view sel in
          Ok
            (span "query.folded" (fun () ->
                 String.concat "\n" (Folded.to_lines (Fleet_query.folded kind v))))
    | Temporal { cohort; split } ->
        let base = select { Fleet_query.cohort = Some cohort; lo = None; hi = Some (split - 1) } in
        let cur = select { Fleet_query.cohort = Some cohort; lo = Some split; hi = None } in
        findings ~base ~cur
    | Cross { baseline; cohort } ->
        let base = select { Fleet_query.any with Fleet_query.cohort = Some baseline } in
        let cur = select { Fleet_query.any with Fleet_query.cohort = Some cohort } in
        findings ~base ~cur
    | Watch { persist } ->
        let degraded = span "segstore.load" (fun () -> Fleet_store.load_degraded ~dir) in
        Ok
          (span "watch.run" (fun () ->
               let r =
                 Fleet_watch.run ~rules:(Fleet_watch.default_rules ~persist ()) ~degraded segments
               in
               String.concat "\n" (List.map Fleet_watch.render_alert r.Fleet_watch.alerts)))

type reads = {
  time : Pb_clock.result;  (** with every query's latency, in order *)
  digests : string list;  (** answer digests, in query order *)
  errors : string list;
  alloc_mw : float;
  majors : int;
  alerts : int;
}

let read_phase tr inputs ~dir =
  Gc.compact ();
  let a0 = alloc_words () and g0 = major_collections () in
  let alerts = ref 0 in
  (* the clock laps after every two rounds of eight queries *)
  let results, time =
    Pb_trace.span tr ~layer:"phase" ~name:"read" ~req:"queries" (fun () ->
        let clock = Pb_clock.start tr in
        let results =
          Array.to_list
            (Array.mapi
               (fun i q ->
                 let t = now () in
                 let a =
                   Pb_trace.span tr ~layer:"query" ~name:(query_kind q) ~req:(string_of_int i)
                     (fun () -> answer tr ~dir q)
                 in
                 Pb_clock.record clock ((now () -. t) *. 1e3);
                 let r =
                   Pb_trace.span tr ~layer:"bench.check" ~req:(string_of_int i) (fun () ->
                       match a with
                       | Ok text ->
                           (match q with
                           | Watch _ when text <> "" ->
                               alerts := !alerts + List.length (String.split_on_char '\n' text)
                           | _ -> ());
                           (Digest.to_hex (Digest.string text), None)
                       | Error m -> ("", Some (Fmt.str "query %d (%s): %s" i (query_kind q) m)))
                 in
                 if i mod 16 = 15 then Pb_clock.lap clock;
                 r)
               inputs.queries)
        in
        (results, Pb_clock.stop clock))
  in
  {
    time;
    digests = List.map fst results;
    errors = List.filter_map snd results;
    alloc_mw = (alloc_words () -. a0) /. 1e6;
    majors = major_collections () - g0;
    alerts = !alerts;
  }

(* ------------------------------- cycles ---------------------------- *)

type cycle = {
  write : ingest;
  read : reads;
  failures : string list;
  failed_ops : int;
  disk_kb : float;
  layers : (string * float) list;
}

let layer_metrics tr (g : ingest) (r : reads) ~dir =
  let self = Pb_trace.self tr and outside = Pb_trace.outside tr in
  let rep = g.report in
  [
    ("collector.run_s", self "collector.run");
    ("collector.snapshots", float_of_int rep.Fleet_collector.snapshots);
    ("collector.samples", float_of_int rep.Fleet_collector.samples_taken);
    ("collector.alloc_mw", g.collector_alloc_mw);
    ("segstore.save_s", outside "segstore.save");
    ("segstore.compact_s", self "segstore.compact");
    ("segstore.load_s", self "segstore.load");
    ("segstore.files", float_of_int (List.length (files ~suffix:".seg" dir)));
    ("segstore.kb", float_of_int (Fleet_store.store_bytes ~dir) /. 1e3);
    ("query.select_s", self "query.select");
    ("query.view_s", self "query.view");
    ("query.top_s", self "query.top");
    ("query.folded_s", self "query.folded");
    ("query.diff_s", self "query.diff");
    ("watch.run_s", self "watch.run");
    ("watch.alerts", float_of_int r.alerts);
    ("gc.write.alloc_mw", g.alloc_mw);
    ("gc.write.major_collections", float_of_int g.majors);
    ("gc.read.alloc_mw", r.alloc_mw);
    ("gc.read.major_collections", float_of_int r.majors);
  ]

(* One ingest + query cycle into a fresh store at [dir].  The store must
   have the digest [store]; the answers must have the digests [answers]
   once they are known (the reference at the default seed, else the
   first cycle's). *)
let cycle tr inputs ~dir ~scratch ~store ~answers =
  let write = ingest tr inputs ~dir ~scratch in
  let ingest_problems = check_ingest ~dir write in
  let read = read_phase tr inputs ~dir in
  let store_problems =
    if write.md5 = store then [] else [ Fmt.str "store digest %s, expected %s" write.md5 store ]
  in
  let wrong =
    List.concat
      (List.mapi
         (fun i (got, want) ->
           if got = want || got = "" then []
           else [ Fmt.str "query %d: answer digest %s, expected %s" i got want ])
         (List.combine read.digests (Option.value ~default:read.digests answers)))
  in
  {
    write;
    read;
    failures = ingest_problems @ store_problems @ read.errors @ wrong;
    (* a wrong store fails every window it holds *)
    failed_ops =
      (if ingest_problems @ store_problems = [] then 0 else expected_snapshots)
      + List.length read.errors + List.length wrong;
    disk_kb = float_of_int (dir_bytes dir) /. 1e3;
    layers = (if Pb_trace.enabled tr then layer_metrics tr write read ~dir else []);
  }
