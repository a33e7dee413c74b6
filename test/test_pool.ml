(* The experiment pool and the persistent run cache, locked down by a
   differential layer:

   - determinism: every figure built through the pool (jobs=1, jobs=4,
     cold on-disk cache, warm on-disk cache) is bit-identical — float
     bits, not tolerances — to the serial on-demand build, and so is
     every cached run's measurement;
   - robustness: truncated, bit-flipped, wrong-version, stale-keyed,
     foreign-kind and legacy-text store entries are recomputed with a
     structured diagnostic, never trusted and never crashed on, for
     adaptive series, comparator entries and the advice as for runs; a
     digest-valid tamper is caught by the re-lint;
   - the advice entry: its rows round-trip for every suite workload and
     are checked against the program, and a warm store recalls it
     without running a warmup;
   - the memoization contract: a config runs exactly once per cache,
     disk hits included, an adaptive series is computed once, and
     values from a replay that failed verification are never persisted;
   - config_key injectivity over randomized configurations, the run,
     series and values codecs' round trips (every float bit included)
     and their rejection of damaged or foreign frames (each other's
     included), and the store's save/load round-trip (QCheck). *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let csl = Alcotest.(list string)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    (* unique, not yet existing: Exp_store creates it on first save *)
    let f = Filename.temp_file "pepsim-cache" "" in
    Sys.remove f;
    incr n;
    f ^ ".d" ^ string_of_int !n

let check_meas msg (a : Exp_harness.measurement) (b : Exp_harness.measurement) =
  check ci (msg ^ ": iter1") a.iter1 b.iter1;
  check ci (msg ^ ": iter2") a.iter2 b.iter2;
  check ci (msg ^ ": compile") a.compile b.compile;
  check ci (msg ^ ": checksum") a.checksum b.checksum

(* ------------------- differential determinism ------------------- *)

let envs =
  lazy
    (List.map
       (fun name -> Exp_harness.make_env ~seed:21 ~size:30 (Suite.find name))
       [ "compress"; "javac" ])

let fresh_caches ?cache_dir () =
  List.map (fun env -> Exp_cache.create ?cache_dir env) (Lazy.force envs)

(* floats replaced by their bit patterns: comparison means bit-identity *)
let figure_repr (f : Exp_figures.figure) =
  ( (f.Exp_figures.id, f.title, f.unit_, f.header, f.paper),
    List.map (fun (n, vs) -> (n, List.map Int64.bits_of_float vs)) f.rows,
    List.map (fun (n, v) -> (n, Int64.bits_of_float v)) f.summary )

let sweep ?cache_dir ~prefetch ~jobs () =
  let caches = fresh_caches ?cache_dir () in
  if prefetch then Exp_pool.prefetch ~jobs caches Exp_figures.ids;
  let figs =
    List.map (fun id -> figure_repr (Exp_figures.by_id id caches)) Exp_figures.ids
  in
  (caches, figs)

let advice_lines c = Advice.to_lines (Exp_cache.resolve_advice c)

let check_same_runs msg base caches =
  List.iter2
    (fun c c' ->
      check csl (msg ^ ": advice") (advice_lines c) (advice_lines c');
      let runs = Exp_cache.all_runs c and runs' = Exp_cache.all_runs c' in
      check csl (msg ^ ": run keys") (List.map fst runs) (List.map fst runs');
      List.iter2
        (fun (k, (r : Exp_harness.run)) (_, (r' : Exp_harness.run)) ->
          check_meas (Printf.sprintf "%s: %s" msg k) r.meas r'.meas)
        runs runs')
    base caches

let check_figs msg base figs =
  List.iter2
    (fun f f' ->
      let ((id, _, _, _, _), _, _) = f in
      check cb (Printf.sprintf "%s: figure %s bit-identical" msg id) true
        (f = f'))
    base figs

let test_pool_differential () =
  (* the serial seed behaviour: figures on demand, no pool, no disk *)
  let base_caches, base_figs = sweep ~prefetch:false ~jobs:1 () in
  let dir = fresh_dir () in
  (* sequenced lets: the cold sweep must populate [dir] before the warm one *)
  let v1 = sweep ~prefetch:true ~jobs:1 () in
  let v4 = sweep ~prefetch:true ~jobs:4 () in
  let vcold = sweep ~cache_dir:dir ~prefetch:true ~jobs:4 () in
  let vwarm = sweep ~cache_dir:dir ~prefetch:true ~jobs:4 () in
  let vwarm1 = sweep ~cache_dir:dir ~prefetch:true ~jobs:1 () in
  let variants =
    [
      ("prefetch jobs=1", v1);
      ("prefetch jobs=4", v4);
      ("cold disk cache jobs=4", vcold);
      ("warm disk cache jobs=4", vwarm);
      ("warm disk cache jobs=1", vwarm1);
    ]
  in
  List.iter
    (fun (msg, (caches, figs)) ->
      check_figs msg base_figs figs;
      check_same_runs msg base_caches caches;
      List.iter
        (fun c ->
          List.iter
            (fun d ->
              Alcotest.failf "%s: unexpected store diagnostic: %s" msg
                d.Dcg.reason)
            (Exp_cache.diagnostics c))
        caches)
    variants;
  (* cold sweep executed everything — every run, fig11's two adaptive
     series and the benchmark's one comparator entry — and warm recalled
     exactly that: zero simulator executions on a warm cache, at either
     job count *)
  let cold = fst (List.assoc "cold disk cache jobs=4" variants) in
  List.iter
    (fun c ->
      let s = Exp_cache.stats c in
      check ci
        "cold: every run, fig11's two series, the comparator entry and \
         the advice executed"
        (List.length (Exp_cache.all_runs c) + 4)
        s.Exp_cache.executed;
      check ci "cold: no disk hits" 0 s.Exp_cache.disk_hits;
      check ci "cold: no store errors" 0 s.Exp_cache.store_errors;
      check cb "cold: the comparator entry is on disk" true
        (Sys.file_exists (fst (Option.get (Exp_figures.comparators_slot c)))))
    cold;
  List.iter
    (fun variant ->
      List.iter2
        (fun c w ->
          let s = Exp_cache.stats w in
          check ci (variant ^ ": zero executions") 0 s.Exp_cache.executed;
          check ci
            (variant ^ ": disk hits = cold executions")
            (Exp_cache.stats c).Exp_cache.executed s.Exp_cache.disk_hits;
          check ci (variant ^ ": no store errors") 0 s.Exp_cache.store_errors)
        cold
        (fst (List.assoc variant variants)))
    [ "warm disk cache jobs=4"; "warm disk cache jobs=1" ]

(* suite_envs runs no warmup; the advice its envs resolve to is the
   same at any job count *)
let test_suite_envs_deterministic () =
  let envs jobs = Exp_pool.suite_envs ~scale:0.05 ~jobs ~seed:7 () in
  let repr (e : Exp_harness.env) =
    check cb "no warmup before the advice is needed" false (Lazy.is_val e.advice);
    (e.workload.Workload.name, e.size, e.seed, Advice.to_lines (Exp_harness.advice e))
  in
  check cb "suite_envs independent of jobs" true
    (List.map repr (envs 1) = List.map repr (envs 3))

(* ------------------- store robustness ------------------- *)

let rob_env =
  lazy (Exp_harness.make_env ~seed:33 ~size:20 (Suite.find "compress"))

let rob_config =
  {
    Exp_harness.default with
    Exp_harness.profiling =
      Exp_harness.Pep_profiled
        {
          sampling = Sampling.pep ~samples:64 ~stride:17;
          zero = `Hottest;
          numbering = `Smart;
        };
  }

(* The four kinds of store entry, behind one interface so each
   robustness case runs on all of them: [value] runs or recalls the
   entry through a cache and renders the result, after [runs] has
   ensured the cached runs it reads; [what] names the entry's format in
   diagnostics.  The advice is read when a cache opens ([at_open]); the
   others when first asked for. *)
type entry = {
  what : string;
  slot : Exp_cache.t -> string * string;
  runs : Exp_cache.t -> unit;
  value : Exp_cache.t -> string;
  at_open : bool;
}

(* [e.value] on [c] and what it cost on its own: (executed, disk hits,
   store errors) counted since [c] opened for the advice, else during
   [e.value], after the advice and [e.runs] *)
let measured e c =
  let s0 =
    if e.at_open then
      { Exp_cache.memory_hits = 0; disk_hits = 0; executed = 0; store_errors = 0; migrated = 0 }
    else begin
      ignore (Exp_cache.resolve_advice c);
      e.runs c;
      Exp_cache.stats c
    end
  in
  let v = e.value c in
  let s = Exp_cache.stats c in
  ( v,
    ( s.Exp_cache.executed - s0.Exp_cache.executed,
      s.Exp_cache.disk_hits - s0.Exp_cache.disk_hits,
      s.Exp_cache.store_errors - s0.Exp_cache.store_errors ) )

let series_trials = 3

let run_entry =
  {
    what = "cache";
    slot = (fun c -> Option.get (Exp_cache.store_slot c rob_config));
    runs = ignore;
    value =
      (fun c ->
        let m = (Exp_cache.run c rob_config).Exp_harness.meas in
        Printf.sprintf "%d %d %d %d" m.iter1 m.iter2 m.compile m.checksum);
    at_open = false;
  }

let series_entry =
  {
    what = "series cache";
    slot =
      (fun c ->
        Option.get (Exp_cache.adaptive_slot c rob_config ~trials:series_trials));
    runs = ignore;
    value =
      (fun c ->
        String.concat " "
          (List.map string_of_int
             (Exp_cache.adaptive c rob_config ~trials:series_trials)));
    at_open = false;
  }

let comparator_figures =
  [ "tab-hardware"; "tab-onetime-paths"; "tab-inline"; "tab-unroll" ]

(* the four comparator figures' rows, every value as its bits *)
let comparators_entry =
  {
    what = "values cache";
    slot = (fun c -> Option.get (Exp_figures.comparators_slot c));
    runs = (fun c -> Exp_pool.prefetch [ c ] comparator_figures);
    value =
      (fun c ->
        String.concat "; "
          (List.map
             (fun id ->
               let _, rows, _ = figure_repr (Exp_figures.by_id id [ c ]) in
               String.concat " "
                 (List.concat_map (fun (_, bits) -> List.map Int64.to_string bits) rows))
             comparator_figures));
    at_open = false;
  }

let advice_entry =
  {
    what = "advice cache";
    slot = (fun c -> Option.get (Exp_cache.advice_slot c));
    runs = ignore;
    value = (fun c -> String.concat "; " (Advice.to_lines (Exp_cache.resolve_advice c)));
    at_open = true;
  }

let all_entries = [ run_entry; series_entry; comparators_entry; advice_entry ]

(* run once against a fresh store, returning the run, its entry file
   and its composite identity key *)
let populate dir =
  let cache = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  let run = Exp_cache.run cache rob_config in
  let file, key = Option.get (Exp_cache.store_slot cache rob_config) in
  check cb "entry persisted" true (Sys.file_exists file);
  (run, file, key)

let read_all file = In_channel.with_open_bin file In_channel.input_all

let write_all file contents =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc contents)

let write_lines file lines =
  write_all file (String.concat "\n" lines ^ "\n")

let diag_mentions substring caches_diags =
  List.exists
    (fun d ->
      let reason = d.Dcg.reason in
      let n = String.length substring and l = String.length reason in
      let rec go i =
        i + n <= l && (String.sub reason i n = substring || go (i + 1))
      in
      go 0)
    caches_diags

(* corrupt the entry, rerun on a fresh cache: the entry must be
   recomputed (identical result), with a diagnostic mentioning
   [expect e] *)
let recompute_after ?(entries = all_entries) ~expect corrupt =
  let env = Lazy.force rob_env in
  List.iter
    (fun e ->
      let dir = fresh_dir () in
      let first = Exp_cache.create ~cache_dir:dir env in
      let orig, _ = measured e first in
      let file, key = e.slot first in
      check cb (e.what ^ ": entry persisted") true (Sys.file_exists file);
      corrupt file key;
      let expect = expect e in
      let cache = Exp_cache.create ~cache_dir:dir env in
      let v, (executed, disk_hits, store_errors) = measured e cache in
      check cs (e.what ^ ": recomputed after " ^ expect) orig v;
      check ci (e.what ^ ": recomputed, not loaded") 1 executed;
      check ci (e.what ^ ": no disk hit") 0 disk_hits;
      check ci (e.what ^ ": one store error") 1 store_errors;
      check cb
        (Printf.sprintf "%s: diagnostic mentions %S" e.what expect)
        true
        (diag_mentions expect (Exp_cache.diagnostics cache));
      (* the recompute overwrote the bad entry: a third cache warm-loads *)
      let again = Exp_cache.create ~cache_dir:dir env in
      let v, (_, disk_hits, _) = measured e again in
      check cs (e.what ^ ": rewritten entry loads") orig v;
      check ci (e.what ^ ": rewritten entry is a disk hit") 1 disk_hits)
    entries

let test_store_truncated () =
  recompute_after ~expect:(fun _ -> "truncated") (fun file _key ->
      (* cut the binary entry off before its digest trailer can fit *)
      write_all file (String.sub (read_all file) 0 20))

let test_store_bit_flip () =
  recompute_after ~expect:(fun _ -> "digest mismatch") (fun file _key ->
      let b = Bytes.of_string (read_all file) in
      let j = Bytes.length b / 2 in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 1));
      write_all file (Bytes.to_string b))

(* a forged digest does not save a wrong version: the version check runs
   even on digest-consistent files — here the real entry re-framed with
   version byte 99 and a recomputed, valid trailer *)
let test_store_wrong_version () =
  recompute_after
    ~expect:(fun e -> "unsupported " ^ e.what ^ " version")
    (fun file _key ->
      let bytes = read_all file in
      let body =
        Bytes.of_string (String.sub bytes 0 (String.length bytes - 16))
      in
      Bytes.set body 6 (Char.chr 99);
      let body = Bytes.to_string body in
      write_all file (body ^ Digest.string body))

(* a future version whose trailer does not match: the version is checked
   before the digest, so the diagnostic names the version — not a silent
   miss or a misparse *)
let test_store_future_binary_version () =
  recompute_after ~entries:[ run_entry ]
    ~expect:(fun _ -> "unsupported cache version")
    (fun file _key ->
      write_all file ("PEPRUN" ^ String.make 1 (Char.chr 99) ^ "future bytes"))

(* same workload name, size and seed — so the same store file — but a
   different program: the composite key catches the stale entry *)
let test_store_stale_program () =
  let w = Suite.find "compress" in
  let w' = { w with Workload.build = (Suite.find "db").Workload.build } in
  let env' = Exp_harness.make_env ~seed:33 ~size:20 w' in
  List.iter
    (fun e ->
      let dir = fresh_dir () in
      let first = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
      ignore (measured e first);
      let file, _key = e.slot first in
      let cache' = Exp_cache.create ~cache_dir:dir env' in
      check cs (e.what ^ ": same store file") file (fst (e.slot cache'));
      (* the new program's runs are stale too: ensure them first, so
         only the entry under test is counted *)
      let diags_before =
        if e.at_open then 0
        else begin
          ignore (Exp_cache.resolve_advice cache');
          e.runs cache';
          List.length (Exp_cache.diagnostics cache')
        end
      in
      let v', (executed, disk_hits, _) = measured e cache' in
      check ci (e.what ^ ": stale entry recomputed") 1 executed;
      check ci (e.what ^ ": stale entry not loaded") 0 disk_hits;
      check cb (e.what ^ ": stale diagnostic") true
        (diag_mentions "stale cache entry"
           (List.filteri
              (fun i _ -> i >= diags_before)
              (Exp_cache.diagnostics cache')));
      (* the overwrite serves the new program's runs from then on *)
      let again = Exp_cache.create ~cache_dir:dir env' in
      let v, (_, disk_hits, _) = measured e again in
      check cs (e.what ^ ": overwritten entry loads") v' v;
      check ci (e.what ^ ": overwritten entry is a disk hit") 1 disk_hits)
    all_entries

(* a tamper that keeps the digest valid (counts inflated, trailer
   recomputed) passes the store's checks — and must then be caught by
   the re-lint, because disk-loaded profiles are never trusted *)
let test_store_lint_catches_valid_digest_tamper () =
  let dir = fresh_dir () in
  let orig, file, key = populate dir in
  check cb "original run lints clean" false
    (Pep_check.has_errors orig.Exp_harness.checks);
  (* decode the entry, inflate the first recorded path count far past
     the sample bound, and re-save — digest and key both valid *)
  let p =
    match Exp_store.load ~file ~key with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.fail "entry vanished"
    | Error e -> Alcotest.failf "entry unreadable: %s" e.Dcg.reason
  in
  let inflated = ref false in
  let pep_paths =
    List.map
      (fun l ->
        if !inflated then l
        else begin
          inflated := true;
          match String.split_on_char ' ' l with
          | [ mi; pid; _count ] -> Printf.sprintf "%s %s %d" mi pid 1_000_000
          | _ -> Alcotest.failf "unexpected pep.paths line %S" l
        end)
      p.Exp_store.pep_paths
  in
  check cb "inflated a count" true !inflated;
  (match Exp_store.save ~file ~key { p with Exp_store.pep_paths } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "tampered save failed: %s" e.Dcg.reason);
  let cache = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  let r = Exp_cache.run cache rob_config in
  (* the store accepted it (digest and key are fine): the advice and
     the run are both disk hits... *)
  check ci "tampered entry loads" 2 (Exp_cache.stats cache).Exp_cache.disk_hits;
  check ci "no execution" 0 (Exp_cache.stats cache).Exp_cache.executed;
  (* ...and the re-lint flags the impossible profile *)
  check cb "re-lint catches inflated counts" true
    (Pep_check.has_errors r.Exp_harness.checks)

(* an entry in the retired line-oriented text format, valid in that
   format, is one more unreadable entry: a counted miss with a
   diagnostic, then a recompute that rewrites it in the binary format *)
let test_store_legacy_text_is_a_miss () =
  recompute_after ~entries:[ run_entry ]
    ~expect:(fun _ -> "not a pepsim cache entry")
    (fun file key ->
      let body =
        [ "pepsim-run-cache v2"; "key store-v2|" ^ key; "meas 1 2 3 4";
          "nsamples 0"; "pep.paths 0"; "pep.edges 0"; "ppaths 0"; "pedges 0" ]
      in
      let digest = Digest.to_hex (Digest.string (String.concat "\n" body)) in
      write_lines file (body @ [ "digest " ^ digest ]))

(* a valid frame of another kind in an entry's slot — a run or series
   frame where the comparator values belong, a values frame where a
   series or a run belongs — is a counted miss naming the format it
   expected, then recomputed and rewritten *)
let test_store_foreign_kind () =
  let payload =
    {
      Exp_store.iter1 = 1;
      iter2 = 2;
      compile = 3;
      checksum = 4;
      n_samples = 0;
      pep_paths = [];
      pep_edges = [];
      ppaths = [];
      pedges = [];
    }
  in
  let foreign encode file key = write_all file (encode key) in
  let expect e = "not a pepsim " ^ e.what ^ " entry" in
  recompute_after ~entries:[ comparators_entry ] ~expect
    (foreign (fun key -> Exp_codec.encode ~key payload));
  recompute_after ~entries:[ comparators_entry ] ~expect
    (foreign (fun key -> Exp_codec.encode_series ~key [ 1; 2; 3 ]));
  recompute_after ~entries:[ run_entry; series_entry; advice_entry ] ~expect
    (foreign (fun key -> Exp_codec.encode_values ~key [ 1.; 2.; 3. ]));
  recompute_after ~entries:[ advice_entry ] ~expect
    (foreign (fun key -> Exp_codec.encode ~key payload));
  recompute_after ~entries:[ advice_entry ] ~expect
    (foreign (fun key -> Exp_codec.encode_series ~key [ 1; 2; 3 ]));
  let advice =
    Result.get_ok
      (Advice.of_rows ~n_methods:1 [ Advice.Level { meth = 0; level = 1 } ])
  in
  recompute_after ~entries:[ run_entry; series_entry; comparators_entry ] ~expect
    (foreign (fun key -> Exp_codec.encode_advice ~key advice))

(* the advice's identity includes the warmup's cost model: an entry
   written under another timer is stale (the same file, since name,
   size and seed agree), counted as a miss with a diagnostic and
   overwritten, while the runs, replayed under the default cost, are
   still recalled *)
let test_store_stale_warmup_cost () =
  let dir = fresh_dir () in
  let first = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  ignore (Exp_cache.run first rob_config);
  let env' =
    Exp_harness.make_env
      ~cost:(Exp_harness.compressed_cost ~tick_shrink:2)
      ~seed:33 ~size:20 (Suite.find "compress")
  in
  let cache = Exp_cache.create ~cache_dir:dir env' in
  check cs "same advice file"
    (fst (Option.get (Exp_cache.advice_slot first)))
    (fst (Option.get (Exp_cache.advice_slot cache)));
  check cb "stale diagnostic at open" true
    (diag_mentions "stale cache entry" (Exp_cache.diagnostics cache));
  check cb "advice pending" true (Exp_cache.advice_pending cache);
  check csl "recomputed under its own timer"
    (Advice.to_lines (Exp_harness.warmup env'))
    (advice_lines cache);
  ignore (Exp_cache.run cache rob_config);
  let s = Exp_cache.stats cache in
  check ci "the advice executed" 1 s.Exp_cache.executed;
  check ci "the run recalled" 1 s.Exp_cache.disk_hits;
  check ci "one store error" 1 s.Exp_cache.store_errors;
  let again = Exp_cache.create ~cache_dir:dir env' in
  check ci "overwritten advice is a disk hit" 1
    (Exp_cache.stats again).Exp_cache.disk_hits;
  check csl "overwritten advice loads" (advice_lines cache) (advice_lines again)

(* every suite workload's advice survives the binary entry row for row,
   in fewer bytes than its text; rows naming a method the program does
   not have are rejected as the text reader rejects them *)
let test_advice_codec_suite () =
  List.iter
    (fun (e : Exp_harness.env) ->
      let name = e.workload.Workload.name in
      let a = Exp_harness.advice e and key = "k|" ^ name in
      let n_methods = Program.n_methods e.program in
      let enc = Exp_codec.encode_advice ~key a in
      (match Exp_codec.decode_advice ~n_methods ~file:"mem" ~key enc with
      | Ok a' ->
          check csl (name ^ ": rows round-trip") (Advice.to_lines a)
            (Advice.to_lines a')
      | Error d -> Alcotest.failf "%s: advice decode failed: %s" name d.Dcg.reason);
      check cb (name ^ ": smaller than its text") true
        (String.length enc < String.length (String.concat "\n" (Advice.to_lines a))))
    (Exp_pool.suite_envs ~scale:0.05 ~seed:42 ());
  let key = "k|range" in
  List.iter
    (fun (what, row) ->
      let enc =
        Exp_codec.encode_advice ~key (Result.get_ok (Advice.of_rows ~n_methods:3 [ row ]))
      in
      match Exp_codec.decode_advice ~n_methods:2 ~file:"mem" ~key enc with
      | Ok _ -> Alcotest.failf "%s for a third method accepted by two" what
      | Error d ->
          check cb (what ^ " out of range named") true
            (diag_mentions "method index in range" [ d ]))
    [
      ("a level", Advice.Level { meth = 2; level = 1 });
      ("edge counters", Advice.Edge { meth = 2; branch = 0; taken = 1; not_taken = 0 });
    ]

(* a traced cache over a warm store recalls the advice instead of
   running the warmup: a disk hit, nothing executed, not one timer tick
   on its sink once every run is recalled, and the cold advice *)
let test_warm_advice_no_warmup () =
  let dir = fresh_dir () in
  let configs =
    List.map
      (fun profiling -> { rob_config with Exp_harness.profiling })
      [ Exp_harness.Base; Exp_harness.pep_default; Exp_harness.Perfect_path ]
  in
  let cold = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  List.iter (fun c -> ignore (Exp_cache.run cold c)) configs;
  let tel = Telemetry.create () in
  let traced c = { c with Exp_harness.telemetry = Some tel } in
  let env =
    Exp_harness.make_env ~config:(traced Exp_harness.default) ~seed:33 ~size:20
      (Suite.find "compress")
  in
  let warm = Exp_cache.create ~config:(traced Exp_harness.default) ~cache_dir:dir env in
  List.iter (fun c -> ignore (Exp_cache.run warm (traced c))) configs;
  let s = Exp_cache.stats warm in
  check ci "the advice and every run recalled" (List.length configs + 1)
    s.Exp_cache.disk_hits;
  check ci "nothing executed" 0 s.Exp_cache.executed;
  check ci "no timer tick" 0
    (Metrics.value (Metrics.counter (Telemetry.metrics tel) "vm.ticks"));
  check csl "the cold advice" (advice_lines cold) (advice_lines warm)

(* ------------------- memoization contract ------------------- *)

let test_all_runs_records_once () =
  let dir = fresh_dir () in
  let env = Lazy.force rob_env in
  let a = Exp_cache.create ~cache_dir:dir env in
  let r1 = Exp_cache.run a rob_config in
  let r2 = Exp_cache.run a rob_config in
  check cb "second run is the memoized first" true (r1 == r2);
  check ci "one entry after two runs" 1 (List.length (Exp_cache.all_runs a));
  let s = Exp_cache.stats a in
  check ci "one execution and the advice's" 2 s.Exp_cache.executed;
  check ci "one memory hit" 1 s.Exp_cache.memory_hits;
  (* a fresh cache over the same store: the disk hit also records the
     run exactly once, with the same measurement *)
  let b = Exp_cache.create ~cache_dir:dir env in
  let rb = Exp_cache.run b rob_config in
  check ci "one entry after disk hit" 1 (List.length (Exp_cache.all_runs b));
  let s = Exp_cache.stats b in
  check ci "disk hit and the advice's" 2 s.Exp_cache.disk_hits;
  check ci "no execution" 0 s.Exp_cache.executed;
  check_meas "disk-loaded measurement" r1.Exp_harness.meas rb.Exp_harness.meas;
  (* disk-loaded checks are re-derived, not parroted from the file *)
  check cb "rebuilt run lints clean" false
    (Pep_check.has_errors rb.Exp_harness.checks)

(* an adaptive series is computed once, recalled from disk by the next
   cache, and from memory on a repeat lookup; another trial count is
   another series *)
let test_adaptive_series () =
  let dir = fresh_dir () in
  let env = Lazy.force rob_env in
  let trials = series_trials in
  let expected =
    List.init trials (fun trial ->
        Exp_harness.adaptive_total ~config:rob_config ~trial env)
  in
  let stats c =
    let s = Exp_cache.stats c in
    (s.Exp_cache.executed, s.Exp_cache.disk_hits, s.Exp_cache.memory_hits)
  in
  let cil = Alcotest.(list int) and triple = Alcotest.(triple int int int) in
  let a = Exp_cache.create ~cache_dir:dir env in
  check cil "cold totals" expected (Exp_cache.adaptive a rob_config ~trials);
  check triple "cold: executed once" (1, 0, 0) (stats a);
  let b = Exp_cache.create ~cache_dir:dir env in
  check cil "recalled totals" expected (Exp_cache.adaptive b rob_config ~trials);
  check triple "warm: one disk hit, no execution" (0, 1, 0) (stats b);
  check cil "repeat totals" expected (Exp_cache.adaptive b rob_config ~trials);
  check triple "repeat: a memory hit" (0, 1, 1) (stats b);
  check cil "two trials are their own series"
    (List.filteri (fun i _ -> i < 2) expected)
    (Exp_cache.adaptive b rob_config ~trials:2);
  check triple "shorter series executed" (1, 1, 1) (stats b);
  check ci "no store errors" 0
    (List.length (Exp_cache.diagnostics a @ Exp_cache.diagnostics b));
  (* a digest-valid entry under the right key but with the wrong number
     of totals is rejected and recomputed, never trusted *)
  let file, key = Option.get (Exp_cache.adaptive_slot b rob_config ~trials) in
  (match Exp_store.save_series ~file ~key [ 1; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "forged save failed: %s" e.Dcg.reason);
  let c = Exp_cache.create ~cache_dir:dir env in
  check cil "forged entry recomputed" expected
    (Exp_cache.adaptive c rob_config ~trials);
  check triple "forged entry: executed" (1, 0, 0) (stats c);
  check cb "forged entry rejected" true
    (diag_mentions "cache entry rejected" (Exp_cache.diagnostics c))

(* values whose replay failed verification are reported and never
   persisted, so the next cache computes them again; warnings neither
   block nor surface *)
let test_values_failed_verification () =
  let dir = fresh_dir () in
  let env = Lazy.force rob_env in
  let config = Exp_harness.default and tag = "|synthetic" in
  let diagnostic severity =
    {
      Pep_check.severity;
      pass = "transval@inline";
      loc = Pep_check.Method_loc "main";
      message = "synthetic miscompile";
    }
  in
  let calls = ref 0 in
  let compute checks () =
    incr calls;
    ([ 1.5; -0. ], checks)
  in
  let failing =
    compute
      [
        ("tab-inline", diagnostic Pep_check.Error);
        ("tab-hardware", diagnostic Pep_check.Warning);
      ]
  in
  let values c f = Exp_cache.values c config ~tag ~arity:2 f in
  let bits = List.map Int64.bits_of_float in
  let cbits = Alcotest.(list int64) in
  let a = Exp_cache.create ~cache_dir:dir env in
  check cbits "values returned" (bits [ 1.5; -0. ]) (bits (values a failing));
  let file, _ = Option.get (Exp_cache.values_slot a config ~tag) in
  check cb "no entry written" false (Sys.file_exists file);
  let s = Exp_cache.stats a in
  check ci "computed" 1 s.Exp_cache.executed;
  check ci "one diagnostic" 1 s.Exp_cache.store_errors;
  let d = List.hd (Exp_cache.diagnostics a) in
  List.iter
    (fun part ->
      check cb (Printf.sprintf "diagnostic names %S" part) true
        (diag_mentions part [ d ]))
    [ "compress"; "tab-inline"; "transval@inline"; "not persisted" ];
  check cb "the warning is not reported" false
    (diag_mentions "tab-hardware" [ d ]);
  (* memoized in memory all the same *)
  ignore (values a failing);
  check ci "memory hit" 1 (Exp_cache.stats a).Exp_cache.memory_hits;
  (* a fresh cache finds nothing on disk and computes again *)
  let b = Exp_cache.create ~cache_dir:dir env in
  ignore (values b failing);
  check ci "fresh cache recomputes" 1 (Exp_cache.stats b).Exp_cache.executed;
  check ci "no disk hit" 0 (Exp_cache.stats b).Exp_cache.disk_hits;
  check ci "compute ran twice" 2 !calls;
  (* clean values (warnings only) persist and are recalled bit for bit *)
  let clean = compute [ ("tab-hardware", diagnostic Pep_check.Warning) ] in
  let c = Exp_cache.create ~cache_dir:dir env in
  ignore (values c clean);
  check cb "clean entry written" true (Sys.file_exists file);
  check ci "no diagnostics" 0 (List.length (Exp_cache.diagnostics c));
  let d' = Exp_cache.create ~cache_dir:dir env in
  check cbits "recalled bits" (bits [ 1.5; -0. ]) (bits (values d' clean));
  check ci "recalled from disk" 1 (Exp_cache.stats d').Exp_cache.disk_hits;
  check ci "compute ran three times" 3 !calls

(* ------------------- QCheck properties ------------------- *)

let gen_sampling =
  QCheck.Gen.(
    oneof
      [
        return Sampling.never;
        map2
          (fun s t -> Sampling.pep ~samples:s ~stride:t)
          (int_range 1 128) (int_range 1 32);
        map2
          (fun s t -> Sampling.arnold_grove ~samples:s ~stride:t)
          (int_range 1 128) (int_range 1 32);
      ])

let gen_profiling =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            Exp_harness.Base;
            Exp_harness.Perfect_path;
            Exp_harness.Perfect_edge;
            Exp_harness.Classic_blpp;
            Exp_harness.Instr_back_edge;
          ];
        map3
          (fun sampling zero numbering ->
            Exp_harness.Pep_profiled { sampling; zero; numbering })
          gen_sampling
          (oneofl [ `Hottest; `Coldest ])
          (oneofl [ `Smart; `Ball_larus ]);
      ])

let gen_table =
  QCheck.Gen.(
    map
      (fun entries ->
        let tbl = Edge_profile.create_table ~n_methods:2 in
        List.iter
          (fun (mi, br, c) ->
            Edge_profile.add tbl.(mi) br ~taken:true c;
            Edge_profile.add tbl.(mi) br ~taken:false (c / 2))
          entries;
        tbl)
      (list_size (int_range 0 12)
         (triple (int_range 0 1) (int_range 0 15) (int_range 1 100))))

let gen_opt_profile =
  QCheck.Gen.(
    oneof
      [
        return Driver.From_baseline;
        return Driver.From_pep;
        map (fun t -> Driver.Fixed t) gen_table;
      ])

let gen_faults =
  QCheck.Gen.(
    oneof
      [
        return Fault_plan.empty;
        return { Fault_plan.empty with Fault_plan.noop = true };
        map2
          (fun seed cap ->
            { Fault_plan.empty with Fault_plan.seed; path_capacity = Some cap })
          (int_range 1 5) (int_range 1 64);
        map
          (fun p -> { Fault_plan.empty with Fault_plan.compile_fail = p })
          (oneofl [ 0.25; 0.5; 1.0 ]);
      ])

let gen_config =
  QCheck.Gen.(
    map
      (fun (profiling, opt_profile, (inline, unroll, engine), faults) ->
        {
          Exp_harness.profiling;
          opt_profile;
          inline;
          unroll;
          deep = false;
          engine;
          telemetry = None;
          faults;
        })
      (quad gen_profiling gen_opt_profile
         (triple bool bool (oneofl [ `Oracle; `Threaded ]))
         gen_faults))

(* structural equivalence, comparing fixed tables by canonical content *)
let same_opt a b =
  match (a, b) with
  | Driver.From_baseline, Driver.From_baseline
  | Driver.From_pep, Driver.From_pep ->
      true
  | Driver.Fixed ta, Driver.Fixed tb ->
      Edge_profile.to_lines ta = Edge_profile.to_lines tb
  | _ -> false

(* plans compare by canonical key: two plans the key cannot tell apart
   (e.g. [empty] vs [empty] with another seed) must not be required to
   produce distinct config keys *)
let same_config (a : Exp_harness.config) (b : Exp_harness.config) =
  a.profiling = b.profiling
  && same_opt a.opt_profile b.opt_profile
  && a.inline = b.inline && a.unroll = b.unroll && a.engine = b.engine
  && Fault_plan.key a.faults = Fault_plan.key b.faults

(* a structurally-equal but physically-distinct copy (fixed tables
   rebuilt through the parse_line round trip) *)
let copy_config (c : Exp_harness.config) =
  match c.opt_profile with
  | Driver.From_baseline | Driver.From_pep -> c
  | Driver.Fixed t ->
      let t' = Edge_profile.create_table ~n_methods:(Array.length t) in
      List.iter
        (fun l ->
          match Edge_profile.parse_line t' l with
          | Ok () -> ()
          | Error e -> Alcotest.failf "edge line %S rejected: %s" l e)
        (Edge_profile.to_lines t);
      { c with Exp_harness.opt_profile = Driver.Fixed t' }

let gen_config_pair =
  QCheck.Gen.(
    pair gen_config gen_config >>= fun (a, b) ->
    oneofl [ (a, copy_config a); (a, b) ])

(* [config_key] is exactly the equivalence the cache memoizes by — and,
   [telemetry] being stripped before persisting, also exactly the
   identity the on-disk store keys runs by *)
let prop_config_key_injective =
  QCheck.Test.make ~count:300 ~name:"config_key injective"
    (QCheck.make gen_config_pair) (fun (a, b) ->
      (Exp_harness.config_key a = Exp_harness.config_key b) = same_config a b)

let gen_flat_string =
  QCheck.Gen.(
    string_size (int_range 0 30) ~gen:(map Char.chr (int_range 32 126)))

let gen_payload =
  QCheck.Gen.(
    map
      (fun (((i1, i2, c), (ck, n)), (pp, pe, tp, te)) ->
        {
          Exp_store.iter1 = i1;
          iter2 = i2;
          compile = c;
          checksum = ck;
          n_samples = n;
          pep_paths = pp;
          pep_edges = pe;
          ppaths = tp;
          pedges = te;
        })
      (pair
         (pair
            (triple
               (int_range (-1000000) 1000000)
               (int_range (-1000000) 1000000)
               (int_range (-1000000) 1000000))
            (pair (int_range (-1000000) 1000000) (int_range 0 100000)))
         (quad
            (list_size (int_range 0 8) gen_flat_string)
            (list_size (int_range 0 8) gen_flat_string)
            (list_size (int_range 0 8) gen_flat_string)
            (list_size (int_range 0 8) gen_flat_string))))

(* Damaged variants of a valid frame, drawn from [i]: one flipped bit,
   a cut at a random offset, bytes appended, and [foreign] — the other
   store's valid bytes. *)
let damaged_frames ~foreign i bytes =
  let n = String.length bytes in
  let flipped = Bytes.of_string bytes in
  let j = i mod n in
  Bytes.set flipped j (Char.chr (Char.code bytes.[j] lxor (1 lsl (i mod 8))));
  [
    ("flipped-bit", Bytes.to_string flipped);
    ("truncated", String.sub bytes 0 (i mod n));
    ("appended", bytes ^ String.make (1 + (i mod 7)) (Char.chr (i land 0xff)));
    ("foreign", foreign);
  ]

(* every damaged variant is an [Error] naming [file]: never accepted,
   never an escaped exception *)
let rejects_all ~file decode variants =
  List.iter
    (fun (what, bytes) ->
      match decode bytes with
      | Ok _ -> QCheck.Test.fail_reportf "%s frame accepted" what
      | Error e when e.Dcg.file <> Some file ->
          QCheck.Test.fail_reportf "%s frame: diagnostic does not name %s" what
            file
      | Error _ -> ()
      | exception exn ->
          QCheck.Test.fail_reportf "%s frame raised %s" what
            (Printexc.to_string exn))
    variants

(* a valid fleet segment: foreign bytes for the run-cache decoder *)
let segment_bytes =
  lazy
    (let dir = fresh_dir () in
     let s =
       {
         Fleet_store.cohort =
           {
             Fleet.Cohort.name = "c";
             workload = "w";
             size = 1;
             seed = 1;
             config_key = "k";
             drift = Fleet.Drift.No_drift;
           };
         window = Fleet.Window.raw ~index:0 ~start_cycle:0 ~end_cycle:1;
         origin = 0;
         instances = 1;
         samples = 1;
         methods = [| "main" |];
         rows =
           Lazy.from_val
             { Fleet_store.paths = [| 0; 0; 1 |]; edges = [||]; dcg = [||] };
       }
     in
     match
       Result.bind (Fleet_store.open_ dir) (fun _ -> Fleet_store.save ~dir s)
     with
     | Ok () -> read_all (Fleet_store.filename ~dir s)
     | Error e -> failwith e.Dcg.reason)

(* the codecs in memory: encode∘decode is the identity on arbitrary
   payloads and series, and a damaged or foreign frame — flipped bit
   anywhere (body, digest trailer, magic, version byte), cut short,
   extended, a fleet segment, or the other kind of cache entry — is
   rejected, never misparsed *)
let prop_codec_binary =
  QCheck.Test.make ~count:200 ~name:"binary codec round trip and tamper"
    (QCheck.make
       QCheck.Gen.(
         quad gen_payload
           (list_size (int_range 0 20) int)
           gen_flat_string (int_range 0 100000)))
    (fun (p, totals, key, i) ->
      let key = "k|" ^ key in
      let enc = Exp_codec.encode ~key p in
      let ser = Exp_codec.encode_series ~key totals in
      (match Exp_codec.decode ~file:"mem" ~key enc with
      | Ok p' when p' = p -> ()
      | Ok _ -> QCheck.Test.fail_report "payload changed through binary codec"
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Dcg.reason);
      (match Exp_codec.decode_series ~file:"mem" ~key ser with
      | Ok t when t = totals -> ()
      | Ok _ -> QCheck.Test.fail_report "totals changed through series codec"
      | Error e ->
          QCheck.Test.fail_reportf "series decode failed: %s" e.Dcg.reason);
      rejects_all ~file:"mem"
        (Exp_codec.decode ~file:"mem" ~key)
        (damaged_frames ~foreign:(Lazy.force segment_bytes) i enc);
      rejects_all ~file:"mem"
        (Exp_codec.decode_series ~file:"mem" ~key)
        (damaged_frames ~foreign:enc i ser);
      (* each kind's valid frame, fed to the other kind's decoder, is
         named as a foreign entry *)
      let named_foreign what = function
        | Error e when diag_mentions "not a pepsim" [ e ] -> ()
        | _ -> QCheck.Test.fail_reportf "%s frame not named foreign" what
      in
      named_foreign "series" (Exp_codec.decode ~file:"mem" ~key ser);
      named_foreign "run" (Exp_codec.decode_series ~file:"mem" ~key enc);
      true)

(* floats by their bits, special values well represented *)
let gen_float_bits =
  QCheck.Gen.(
    oneof
      [
        map Int64.float_of_bits ui64;
        oneofl
          [
            nan;
            Int64.float_of_bits 0x7ff0_0000_0000_0001L (* signalling NaN *);
            Int64.float_of_bits 0xfff8_dead_beef_0001L (* negative, payload *);
            -0.;
            0.;
            infinity;
            neg_infinity;
            Int64.float_of_bits 1L (* smallest subnormal *);
            Int64.float_of_bits 0x000f_ffff_ffff_ffffL (* largest subnormal *);
            -.Float.min_float;
            Float.max_float;
          ];
      ])

(* the values codec keeps every float's exact bits, rejects damaged
   frames, and names each other kind of entry as foreign both ways *)
let prop_codec_values =
  QCheck.Test.make ~count:200 ~name:"values codec keeps float bits"
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (int_range 0 12) gen_float_bits) gen_flat_string
           (int_range 0 100000)))
    (fun (values, key, i) ->
      let key = "k|" ^ key in
      let enc = Exp_codec.encode_values ~key values in
      let bits = List.map Int64.bits_of_float in
      (match Exp_codec.decode_values ~file:"mem" ~key enc with
      | Ok vs when bits vs = bits values -> ()
      | Ok _ -> QCheck.Test.fail_report "float bits changed through values codec"
      | Error e ->
          QCheck.Test.fail_reportf "values decode failed: %s" e.Dcg.reason);
      let series = Exp_codec.encode_series ~key [ 1; 2 ] in
      rejects_all ~file:"mem"
        (Exp_codec.decode_values ~file:"mem" ~key)
        (damaged_frames ~foreign:series i enc);
      (match Exp_codec.decode_values ~file:"mem" ~key:(key ^ "'") enc with
      | Error e when diag_mentions "stale cache entry" [ e ] -> ()
      | _ -> QCheck.Test.fail_report "values under another key not stale");
      let named_foreign what = function
        | Error e when diag_mentions "not a pepsim" [ e ] -> ()
        | _ -> QCheck.Test.fail_reportf "%s frame not named foreign" what
      in
      named_foreign "values as series" (Exp_codec.decode_series ~file:"mem" ~key enc);
      named_foreign "values as run" (Exp_codec.decode ~file:"mem" ~key enc);
      named_foreign "series as values"
        (Exp_codec.decode_values ~file:"mem" ~key series);
      true)

let rt_dir = lazy (fresh_dir ())

let prop_store_round_trip =
  QCheck.Test.make ~count:100 ~name:"store save/load round trip"
    (QCheck.make QCheck.Gen.(pair gen_payload gen_flat_string))
    (fun (p, key) ->
      let key = "k|" ^ key in
      let file = Filename.concat (Lazy.force rt_dir) "rt.run" in
      (match Exp_store.save ~file ~key p with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e.Dcg.reason);
      (match Exp_store.load ~file ~key with
      | Ok (Some p') when p' = p -> ()
      | Ok (Some _) -> QCheck.Test.fail_report "payload changed in round trip"
      | Ok None -> QCheck.Test.fail_report "entry vanished"
      | Error e -> QCheck.Test.fail_reportf "load failed: %s" e.Dcg.reason);
      (* a different key is a stale entry, not a payload *)
      (match Exp_store.load ~file ~key:(key ^ "'") with
      | Error _ -> ()
      | Ok _ -> QCheck.Test.fail_report "key mismatch not detected");
      true)

let suite =
  [
    Alcotest.test_case "pool and disk cache are bit-identical to serial" `Slow
      test_pool_differential;
    Alcotest.test_case "suite_envs deterministic across jobs" `Slow
      test_suite_envs_deterministic;
    Alcotest.test_case "truncated entry recomputed" `Slow test_store_truncated;
    Alcotest.test_case "bit-flipped entry recomputed" `Slow test_store_bit_flip;
    Alcotest.test_case "wrong-version entry recomputed" `Slow
      test_store_wrong_version;
    Alcotest.test_case "future binary version recomputed" `Slow
      test_store_future_binary_version;
    Alcotest.test_case "stale program digest recomputed" `Slow
      test_store_stale_program;
    Alcotest.test_case "digest-valid tamper caught by re-lint" `Slow
      test_store_lint_catches_valid_digest_tamper;
    Alcotest.test_case "legacy text entry is a miss" `Slow
      test_store_legacy_text_is_a_miss;
    Alcotest.test_case "another kind's entry is a miss" `Slow
      test_store_foreign_kind;
    Alcotest.test_case "advice under another warmup cost is stale" `Slow
      test_store_stale_warmup_cost;
    Alcotest.test_case "advice rows round-trip for the suite" `Slow
      test_advice_codec_suite;
    Alcotest.test_case "warm store recalls the advice, no warmup" `Slow
      test_warm_advice_no_warmup;
    Alcotest.test_case "all_runs records each run once" `Slow
      test_all_runs_records_once;
    Alcotest.test_case "adaptive series" `Slow test_adaptive_series;
    Alcotest.test_case "values failing verification are not persisted" `Slow
      test_values_failed_verification;
    QCheck_alcotest.to_alcotest prop_config_key_injective;
    QCheck_alcotest.to_alcotest prop_codec_binary;
    QCheck_alcotest.to_alcotest prop_codec_values;
    QCheck_alcotest.to_alcotest prop_store_round_trip;
  ]
