(* Fault injection and graceful degradation: plan parsing, deterministic
   decision streams, the per-fault degradation policies end to end, the
   Too_many_paths edge-profiling fallback, and run-store crash
   consistency. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_meas msg (a : Exp_harness.measurement) (b : Exp_harness.measurement)
    =
  check ci (msg ^ ": iter1") a.iter1 b.iter1;
  check ci (msg ^ ": iter2") a.iter2 b.iter2;
  check ci (msg ^ ": compile") a.compile b.compile;
  check ci (msg ^ ": checksum") a.checksum b.checksum

(* ------------------------- plan parsing ------------------------- *)

let test_parse_empty () =
  (match Fault_plan.parse "" with
  | Ok p ->
      check cb "empty spec is the empty plan" true (Fault_plan.is_empty p)
  | Error m -> Alcotest.failf "empty spec rejected: %s" m);
  check cb "empty plan builds no injector" true
    (Option.is_none (Exp_harness.injector_of Exp_harness.default))

let test_parse_clauses () =
  let p =
    Fault_plan.parse_exn
      "seed=7,path-cap=4,edge-cap=8,compile-fail=0.25,compile-retries=5,\
       compile-backoff=1000,sample-overrun=0.5,corrupt=0.125"
  in
  check ci "seed" 7 p.Fault_plan.seed;
  check (Alcotest.option ci) "path-cap" (Some 4) p.Fault_plan.path_capacity;
  check (Alcotest.option ci) "edge-cap" (Some 8) p.Fault_plan.edge_capacity;
  check (Alcotest.float 0.) "compile-fail" 0.25 p.Fault_plan.compile_fail;
  check ci "compile-retries" 5 p.Fault_plan.compile_retries;
  check ci "compile-backoff" 1000 p.Fault_plan.compile_backoff;
  check (Alcotest.float 0.) "sample-overrun" 0.5 p.Fault_plan.sample_overrun;
  check (Alcotest.float 0.) "corrupt" 0.125 p.Fault_plan.corrupt

let test_perturbs () =
  let perturbs s =
    Fault_plan.perturbs_execution (Fault_plan.parse_exn s)
  in
  check cb "noop is inert" false (perturbs "noop");
  check cb "corrupt only perturbs inputs" false (perturbs "corrupt=1");
  check cb "path-cap perturbs" true (perturbs "path-cap=4");
  check cb "edge-cap perturbs" true (perturbs "edge-cap=4");
  check cb "compile-fail perturbs" true (perturbs "compile-fail=0.1");
  check cb "sample-overrun perturbs" true (perturbs "sample-overrun=0.1")

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault_plan.parse spec with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
      | Error _ -> ())
    [
      "path-cap=x";
      "compile-fail=1.5";
      "compile-fail=-0.1";
      "bogus=1";
      "seed";
      "@/nonexistent/fault/plan/file";
    ]

let test_key_roundtrip () =
  List.iter
    (fun spec ->
      let p = Fault_plan.parse_exn spec in
      let p' = Fault_plan.parse_exn (Fault_plan.key p) in
      check Alcotest.string
        (Fmt.str "key of %S roundtrips" spec)
        (Fault_plan.key p) (Fault_plan.key p'))
    [
      "";
      "noop";
      "seed=7,path-cap=2,edge-cap=2";
      "seed=3,compile-fail=0.3,compile-retries=4,compile-backoff=20000";
      "seed=13,path-cap=8,compile-fail=0.2,sample-overrun=0.2,corrupt=0.5";
    ]

let test_at_file () =
  let file = Filename.temp_file "pepsim-faults" ".plan" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        "# chaos plan\nseed=7\npath-cap=4, edge-cap=8\n# done\n");
  let p = Fault_plan.parse_exn ("@" ^ file) in
  Sys.remove file;
  check ci "seed from file" 7 p.Fault_plan.seed;
  check (Alcotest.option ci) "cap from file" (Some 4)
    p.Fault_plan.path_capacity

(* ---------------------- decision streams ------------------------ *)

let stream_of inj n =
  List.init n (fun i ->
      Fault_injector.fire_compile_fail inj ~ts:i ~meth:"m")

let test_stream_deterministic () =
  let plan = Fault_plan.parse_exn "seed=11,compile-fail=0.5" in
  let a = stream_of (Fault_injector.create plan) 200 in
  let b = stream_of (Fault_injector.create plan) 200 in
  check (Alcotest.list cb) "same plan, same decisions" a b;
  check cb "a fair coin fires sometimes" true (List.mem true a);
  check cb "and spares sometimes" true (List.mem false a);
  let c =
    stream_of
      (Fault_injector.create (Fault_plan.parse_exn "seed=12,compile-fail=0.5"))
      200
  in
  check cb "different seed, different stream" true (a <> c)

let test_noop_never_fires () =
  let inj = Fault_injector.create (Fault_plan.parse_exn "noop") in
  check (Alcotest.list cb) "noop stream is silent"
    (List.init 50 (fun _ -> false))
    (stream_of inj 50)

let test_corrupt_streams_independent () =
  let plan = Fault_plan.parse_exn "seed=3,corrupt=0.5" in
  let draw what =
    let inj = Fault_injector.create plan in
    List.init 64 (fun _ -> Fault_injector.fire_corrupt inj ~what)
  in
  check (Alcotest.list cb) "per-kind stream is stable" (draw "advice")
    (draw "advice");
  check cb "advice and dcg draw from distinct streams" true
    (draw "advice" <> draw "dcg")

let test_accounted () =
  let inj = Fault_injector.create (Fault_plan.parse_exn "noop") in
  let zero = Fault_injector.counts inj in
  (match Fault_injector.accounted zero with
  | Ok () -> ()
  | Error m -> Alcotest.failf "zero counts unaccounted: %s" m);
  check cb "an unanswered fault is flagged" true
    (Result.is_error
       (Fault_injector.accounted
          { zero with Fault_injector.compile_fail = 1 }))

(* ------------------ degradation, end to end --------------------- *)

let env =
  lazy (Exp_harness.make_env ~seed:21 ~size:40 (Suite.find "compress"))

let config spec =
  {
    Exp_harness.default with
    Exp_harness.profiling = Exp_harness.pep_default;
    faults = Fault_plan.parse_exn spec;
  }

let replay spec = Exp_harness.replay (Lazy.force env) (config spec)
let healthy = lazy (replay "")

let counts_of (r : Exp_harness.run) =
  match r.Exp_harness.faults with
  | Some inj -> Fault_injector.counts inj
  | None -> Alcotest.fail "faulted run carries no injector"

let assert_accounted c =
  match Fault_injector.accounted c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unaccounted degradation: %s" m

let test_empty_plan_no_injector () =
  check cb "empty plan, no injector" true
    (Option.is_none (Lazy.force healthy).Exp_harness.faults)

let test_noop_bit_identical () =
  let r = replay "noop" in
  check_meas "noop vs healthy" (Lazy.force healthy).Exp_harness.meas
    r.Exp_harness.meas;
  let c = counts_of r in
  check ci "noop injects nothing" 0
    (c.Fault_injector.compile_fail + c.Fault_injector.sample_overrun
   + c.Fault_injector.store_corrupt + c.Fault_injector.path_overflow
   + c.Fault_injector.edge_overflow + c.Fault_injector.quarantined)

let test_compile_dead () =
  let retries = 2 in
  let r = replay (Fmt.str "seed=1,compile-fail=1,compile-retries=%d" retries) in
  let c = counts_of r in
  assert_accounted c;
  check cb "some method gave up" true (c.Fault_injector.gaveups > 0);
  (* with p=1 every retry fails too: each doomed method burns exactly
     the initial attempt plus [retries] backoffs before giving up *)
  check ci "fail = gaveups * (retries+1)"
    (c.Fault_injector.gaveups * (retries + 1))
    c.Fault_injector.compile_fail;
  check ci "backoffs = gaveups * retries"
    (c.Fault_injector.gaveups * retries)
    c.Fault_injector.backoffs;
  check ci "checksum untouched"
    (Lazy.force healthy).Exp_harness.meas.Exp_harness.checksum
    r.Exp_harness.meas.Exp_harness.checksum

let test_sample_overrun_all () =
  let r = replay "seed=2,sample-overrun=1" in
  let c = counts_of r in
  assert_accounted c;
  check cb "samples were dropped" true (c.Fault_injector.samples_dropped > 0);
  (match r.Exp_harness.pep with
  | Some p ->
      check ci "every sample dropped, path tables empty" 0
        (Path_profile.table_total p.Pep.paths)
  | None -> Alcotest.fail "pep run lost its profiler");
  check ci "checksum untouched"
    (Lazy.force healthy).Exp_harness.meas.Exp_harness.checksum
    r.Exp_harness.meas.Exp_harness.checksum

let test_table_caps () =
  let r = replay "seed=4,path-cap=1,edge-cap=1" in
  let c = counts_of r in
  assert_accounted c;
  match r.Exp_harness.pep with
  | None -> Alcotest.fail "pep run lost its profiler"
  | Some p ->
      check cb "tight caps overflow" true (c.Fault_injector.path_overflow > 0);
      check ci "path accounting matches the table"
        (Path_profile.table_overflow p.Pep.paths)
        c.Fault_injector.path_overflow;
      check ci "edge accounting matches the table"
        (Edge_profile.table_overflow p.Pep.edges)
        c.Fault_injector.edge_overflow;
      check cb "lint still clean" false
        (Pep_check.has_errors r.Exp_harness.checks)

let test_quarantine_neutral () =
  let r = replay "seed=6,corrupt=1" in
  let c = counts_of r in
  assert_accounted c;
  (* both warmup inputs observed corrupt, quarantined, recomputed *)
  check ci "advice and dcg quarantined" 2 c.Fault_injector.quarantined;
  (* the recomputed inputs are identical, so nothing else may move *)
  check_meas "corrupt-only plan is measurement-neutral"
    (Lazy.force healthy).Exp_harness.meas r.Exp_harness.meas

let test_chaos_sweep () =
  let reports = Exp_chaos.sweep ~jobs:2 [ Lazy.force env ] in
  check ci "workload x plans x engines"
    (2 * List.length Exp_chaos.curated)
    (List.length reports);
  List.iter
    (fun (r : Exp_chaos.report) ->
      if r.Exp_chaos.violations <> [] then
        Alcotest.failf "chaos violation: %a" Exp_chaos.pp_report r)
    reports

(* -------- Too_many_paths -> edge-profiling fallback ------------- *)

(* A hot loop body of 31 sequential diamonds: 2^31 acyclic paths,
   over the 2^30 numbering limit, so PEP must refuse to plan the
   method (Warning, not Error) and profiling falls back to the
   one-time edge profile — while the run itself stays healthy. *)
let blowup =
  let open Ast in
  let build size =
    let diamonds =
      List.init 31 (fun k ->
          if_
            (eq (band (shr (v "j") (i (k mod 8))) (i 1)) (i 0))
            [ set "acc" (add (v "acc") (i 1)) ]
            [ set "acc" (add (v "acc") (i 2)) ])
    in
    let blow =
      mdef "blow" ~params:[ "x" ]
        [
          set "acc" (i 0);
          for_ "j" (v "x") (add (v "x") (i 64)) diamonds;
          ret (v "acc");
        ]
    in
    let main =
      mdef "main" ~params:[]
        [
          set "sum" (i 0);
          for_ "it" (i 0) (i size)
            [ set "sum" (add (v "sum") (call "blow" [ v "it" ])) ];
          ret (v "sum");
        ]
    in
    pdef "blowup" [ main; blow ]
  in
  {
    Workload.name = "blowup";
    description = "path-count blowup; must fall back to edge profiling";
    default_size = 300;
    build;
  }

let test_too_many_paths_fallback () =
  let env = Exp_harness.make_env ~seed:5 blowup in
  let run engine =
    Exp_harness.replay env
      { (config "") with Exp_harness.engine }
  in
  let ro = run `Oracle and rt = run `Threaded in
  let planned (r : Exp_harness.run) =
    List.exists
      (fun (d : Pep_check.diagnostic) ->
        d.Pep_check.pass = "plan"
        && d.Pep_check.severity = Pep_check.Warning
        && has_substring ~sub:"exceed the limit" d.Pep_check.message)
      r.Exp_harness.checks
  in
  check cb "oracle records the unprofilable plan" true (planned ro);
  check cb "threaded records the unprofilable plan" true (planned rt);
  check cb "no lint errors under fallback" false
    (Pep_check.has_errors rt.Exp_harness.checks);
  check cb "the one-time edge profile still has the method" true
    (Edge_profile.table_total (Driver.baseline_profile rt.Exp_harness.driver)
    > 0);
  check_meas "engines agree under fallback" ro.Exp_harness.meas
    rt.Exp_harness.meas

(* --------------- run-store crash consistency -------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    let f = Filename.temp_file "pepsim-faults" "" in
    Sys.remove f;
    incr n;
    f ^ ".d" ^ string_of_int !n

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

let test_tmp_sweep () =
  let dir = fresh_dir () in
  let file = Exp_store.filename ~dir "legit" in
  (match Exp_store.save ~file ~key:"legit" payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %a" Dcg.pp_parse_error e);
  (* a crash between temp-write and rename strands a run-*.tmp *)
  let stray = Filename.concat dir "run-stranded.tmp" in
  Out_channel.with_open_text stray (fun oc -> output_string oc "half a run");
  (match Exp_store.prepare_dir dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "prepare_dir failed: %a" Dcg.pp_parse_error e);
  check cb "stray tmp swept" false (Sys.file_exists stray);
  match Exp_store.load ~file ~key:"legit" with
  | Ok (Some p) -> check ci "committed entry survives the sweep" 4 p.checksum
  | Ok None -> Alcotest.fail "committed entry vanished"
  | Error e -> Alcotest.failf "committed entry unreadable: %a" Dcg.pp_parse_error e

let test_ensure_dir_not_a_dir () =
  let file = Filename.temp_file "pepsim-faults" ".file" in
  let dir = Filename.concat file "cache" in
  (match Exp_store.ensure_dir dir with
  | Ok () -> Alcotest.fail "created a directory under a regular file"
  | Error _ -> ());
  match Exp_store.prepare_dir dir with
  | Ok () -> Alcotest.fail "prepared a directory under a regular file"
  | Error _ -> Sys.remove file

let test_unusable_cache_dir () =
  (* a cache dir that cannot exist: runs must still execute, with the
     failure on record as a structured diagnostic, not an exception *)
  let file = Filename.temp_file "pepsim-faults" ".file" in
  let cache_dir = Filename.concat file "cache" in
  let cache = Exp_cache.create ~cache_dir (Lazy.force env) in
  check cb "failure reported at open" true
    (List.length (Exp_cache.diagnostics cache) > 0);
  let r = Exp_cache.base cache in
  check ci "runs still execute"
    (Lazy.force healthy).Exp_harness.meas.Exp_harness.checksum
    r.Exp_harness.meas.Exp_harness.checksum;
  check ci "the advice and the run executed, not loaded" 2
    (Exp_cache.stats cache).Exp_cache.executed;
  check ci "nothing loaded" 0 (Exp_cache.stats cache).Exp_cache.disk_hits;
  Sys.remove file

let test_store_corrupt_quarantine () =
  let dir = fresh_dir () in
  let config = config "seed=9,corrupt=1" in
  (* corrupt-only plans do not perturb execution, so they persist *)
  let cache1 = Exp_cache.create ~config ~cache_dir:dir (Lazy.force env) in
  let r1 = Exp_cache.run cache1 config in
  check cb "first run persisted" true
    (match Exp_cache.store_file cache1 config with
    | Some f -> Sys.file_exists f
    | None -> false);
  check cb "advice persisted" true
    (Sys.file_exists (fst (Option.get (Exp_cache.advice_slot cache1))));
  let quarantines c =
    List.length
      (List.filter
         (fun (d : Dcg.parse_error) ->
           has_substring ~sub:"quarantined" d.Dcg.reason)
         (Exp_cache.diagnostics c))
  in
  (* a fresh cache finds the entries on disk; the plan corrupts every
     load: the advice's at open, then the run's *)
  let cache2 = Exp_cache.create ~config ~cache_dir:dir (Lazy.force env) in
  check ci "advice quarantined at open" 1 (quarantines cache2);
  check cb "advice left to recompute" true (Exp_cache.advice_pending cache2);
  let r2 = Exp_cache.run cache2 config in
  check (Alcotest.list Alcotest.string) "identical advice either way"
    (Advice.to_lines (Exp_cache.resolve_advice cache1))
    (Advice.to_lines (Exp_cache.resolve_advice cache2));
  check ci "advice and run quarantined, recomputed" 2
    (Exp_cache.stats cache2).Exp_cache.executed;
  check ci "no disk hit" 0 (Exp_cache.stats cache2).Exp_cache.disk_hits;
  check ci "both quarantines diagnosed" 2 (quarantines cache2);
  (match (Exp_cache.run cache2 config).Exp_harness.faults with
  | Some inj ->
      check cb "store corruption accounted" true
        ((Fault_injector.counts inj).Fault_injector.store_corrupt > 0)
  | None -> Alcotest.fail "faulted run carries no injector");
  check_meas "identical either way" r1.Exp_harness.meas r2.Exp_harness.meas;
  (* an adaptive series follows the same rule: persisted, then its load
     quarantined and the totals recomputed *)
  let trials = 2 in
  let s1 = Exp_cache.adaptive cache1 config ~trials in
  check cb "series persisted" true
    (match Exp_cache.adaptive_slot cache1 config ~trials with
    | Some (f, _) -> Sys.file_exists f
    | None -> false);
  let s2 = Exp_cache.adaptive cache2 config ~trials in
  check ci "series quarantined, recomputed" 3
    (Exp_cache.stats cache2).Exp_cache.executed;
  check ci "still no disk hit" 0 (Exp_cache.stats cache2).Exp_cache.disk_hits;
  check ci "all three quarantines diagnosed" 3 (quarantines cache2);
  check (Alcotest.list ci) "identical totals either way" s1 s2;
  (* and so does the comparator entry: its runs ensured first, building
     a comparator figure quarantines the entry and recomputes it *)
  let comparator_ids = [ "tab-hardware"; "tab-inline" ] in
  let rows c =
    List.map
      (fun id ->
        List.map
          (fun (_, vs) -> List.map Int64.bits_of_float vs)
          (Exp_figures.by_id id [ c ]).Exp_figures.rows)
      comparator_ids
  in
  Exp_pool.prefetch [ cache1 ] comparator_ids;
  let r1 = rows cache1 in
  check cb "comparator entry persisted" true
    (match Exp_figures.comparators_slot cache1 with
    | Some (f, _) -> Sys.file_exists f
    | None -> false);
  Exp_pool.prefetch [ cache2 ] comparator_ids;
  let before = Exp_cache.stats cache2 in
  let q0 = quarantines cache2 in
  let r2 = rows cache2 in
  let after = Exp_cache.stats cache2 in
  check ci "comparator entry quarantined, recomputed" 1
    (after.Exp_cache.executed - before.Exp_cache.executed);
  check ci "comparator entry not a disk hit" 0
    (after.Exp_cache.disk_hits - before.Exp_cache.disk_hits);
  check ci "comparator quarantine diagnosed" (q0 + 1) (quarantines cache2);
  check cb "identical comparator rows either way" true (r1 = r2)

let test_perturbing_plans_not_persisted () =
  let dir = fresh_dir () in
  let config = config "seed=4,path-cap=8" in
  let cache = Exp_cache.create ~config ~cache_dir:dir (Lazy.force env) in
  check cb "no store slot for a perturbing plan" true
    (Option.is_none (Exp_cache.store_file cache config));
  check cb "no series slot for a perturbing plan" true
    (Option.is_none (Exp_cache.adaptive_slot cache config ~trials:2));
  check cb "no comparator slot for a perturbing plan" true
    (Option.is_none (Exp_figures.comparators_slot cache));
  check cb "no advice slot for a perturbing plan" true
    (Option.is_none (Exp_cache.advice_slot cache));
  let _ = Exp_cache.run cache config in
  let _ = Exp_cache.adaptive cache config ~trials:2 in
  let _ = Exp_figures.tab_hardware [ cache ] in
  check cb "nothing written" true
    (Sys.readdir dir = [||] || not (Sys.file_exists dir))

let suite =
  [
    Alcotest.test_case "parse: empty" `Quick test_parse_empty;
    Alcotest.test_case "parse: clauses" `Quick test_parse_clauses;
    Alcotest.test_case "parse: perturbs_execution" `Quick test_perturbs;
    Alcotest.test_case "parse: errors" `Quick test_parse_errors;
    Alcotest.test_case "parse: key roundtrip" `Quick test_key_roundtrip;
    Alcotest.test_case "parse: @file" `Quick test_at_file;
    Alcotest.test_case "stream: deterministic" `Quick test_stream_deterministic;
    Alcotest.test_case "stream: noop never fires" `Quick test_noop_never_fires;
    Alcotest.test_case "stream: corrupt kinds independent" `Quick
      test_corrupt_streams_independent;
    Alcotest.test_case "accounting identities" `Quick test_accounted;
    Alcotest.test_case "empty plan: no injector" `Quick
      test_empty_plan_no_injector;
    Alcotest.test_case "noop plan: bit-identical" `Quick
      test_noop_bit_identical;
    Alcotest.test_case "compile-fail=1: backoff then give up" `Quick
      test_compile_dead;
    Alcotest.test_case "sample-overrun=1: all samples dropped" `Quick
      test_sample_overrun_all;
    Alcotest.test_case "table caps: overflow accounted" `Quick test_table_caps;
    Alcotest.test_case "corrupt inputs: quarantine is neutral" `Quick
      test_quarantine_neutral;
    Alcotest.test_case "chaos sweep: invariants hold" `Slow test_chaos_sweep;
    Alcotest.test_case "too many paths: edge fallback differential" `Quick
      test_too_many_paths_fallback;
    Alcotest.test_case "store: stray tmp swept, entries kept" `Quick
      test_tmp_sweep;
    Alcotest.test_case "store: ensure_dir surfaces failures" `Quick
      test_ensure_dir_not_a_dir;
    Alcotest.test_case "store: unusable cache dir degrades" `Quick
      test_unusable_cache_dir;
    Alcotest.test_case "store: corrupt entry quarantined" `Quick
      test_store_corrupt_quarantine;
    Alcotest.test_case "store: perturbing plans never persist" `Quick
      test_perturbing_plans_not_persisted;
  ]
