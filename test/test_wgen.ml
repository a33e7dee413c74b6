(* The workload generator: spec codec, determinism, verifier
   cleanliness, differential sweeps, fleet triage and the
   accuracy-over-time regression. *)

let spec = Alcotest.testable (Fmt.of_to_string Wgen.print) ( = )

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected gen rejection: %s" (Wgen.error_to_string e)

(* QCheck generator over the valid axis space *)
let gen_spec =
  QCheck.Gen.(
    map
      (fun ((seed, methods, bias, mega), (depth, loops, diamonds, phases), (tenants, burst, size)) ->
        {
          Wgen.seed;
          methods;
          bias;
          mega;
          depth;
          loops;
          diamonds;
          phases;
          tenants;
          burst;
          size;
        })
      (triple
         (quad (int_bound 100_000) (int_range 1 8) (int_range 50 99)
            (int_range 0 8))
         (quad (int_range 0 16) (int_range 0 4) (int_range 0 30)
            (int_range 1 4))
         (triple (int_range 1 8) (int_range 1 32) (int_range 1 200))))

let arb_spec = QCheck.make ~print:Wgen.print gen_spec

let qcheck ?(count = 100) name law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb_spec law)

(* --- spec codec ---------------------------------------------------- *)

let prop_roundtrip s =
  match Wgen.parse (Wgen.print s) with
  | Ok s' -> s = s'
  | Error e -> QCheck.Test.fail_reportf "rejected: %s" (Wgen.error_to_string e)

let test_parse_defaults () =
  let s = ok_or_fail (Wgen.parse "gen:seed=9,phases=3") in
  Alcotest.(check int) "seed" 9 s.Wgen.seed;
  Alcotest.(check int) "phases" 3 s.Wgen.phases;
  Alcotest.(check int) "methods defaulted" Wgen.default.Wgen.methods s.Wgen.methods;
  Alcotest.(check spec) "bare prefix = default" Wgen.default
    (ok_or_fail (Wgen.parse "gen:"))

let test_parse_rejects () =
  let reject str axis =
    match Wgen.parse str with
    | Ok _ -> Alcotest.failf "%s should be rejected" str
    | Error e -> Alcotest.(check string) (str ^ " axis") axis e.Wgen.axis
  in
  reject "compress" "spec";
  reject "gen:bias=200" "bias";
  reject "gen:bias=85,bias=85" "bias";
  reject "gen:warp=3" "warp";
  reject "gen:seed=banana" "seed";
  reject "gen:methods" "spec";
  reject "gen:diamonds=31" "diamonds";
  reject "gen:phases=0" "phases"

let test_validate_matches_workload () =
  let bad = { Wgen.default with Wgen.bias = 12 } in
  (match Wgen.validate bad with
  | Error e -> Alcotest.(check string) "axis" "bias" e.Wgen.axis
  | Ok () -> Alcotest.fail "bias=12 should be rejected");
  match Wgen.workload bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "workload of an invalid spec should raise"

(* --- determinism --------------------------------------------------- *)

let prop_deterministic s =
  let build () = Marshal.to_string ((Wgen.workload s).Workload.build 17) [] in
  let sched () = Wgen.schedule s ~windows:6 in
  build () = build () && sched () = sched ()

let prop_schedule s =
  let windows = 6 in
  let sched = Wgen.schedule s ~windows in
  List.length sched = windows
  && List.for_all (fun p -> p >= 0 && p < s.Wgen.phases) sched
  && List.hd sched = 0
  && (* monotone: phases only advance *)
  fst
    (List.fold_left
       (fun (ok, prev) p -> (ok && p >= prev, p))
       (true, 0) sched)
  && List.for_all
       (fun w ->
         w > 0 && w < windows
         && List.nth sched w <> List.nth sched (w - 1))
       (Wgen.shifts s ~windows)

(* --- every generated program satisfies the static analyzer ---------- *)

let prop_check_clean s =
  (* small size: the static passes don't execute the program *)
  let w = Wgen.workload { s with Wgen.size = 5 } in
  let program = Workload.program w in
  let diags = Pep_check.check_program_static program in
  if Pep_check.has_errors diags then
    QCheck.Test.fail_reportf "static errors on %s:@ %a" (Wgen.print s)
      (Fmt.list Pep_check.pp_diagnostic)
      (List.filter
         (fun d -> d.Pep_check.severity = Pep_check.Error)
         diags)
  else true

let test_corpus_valid () =
  let specs = Wgen.corpus ~n:30 ~seed:5 () in
  Alcotest.(check int) "corpus size" 30 (List.length specs);
  List.iter (fun s -> ok_or_fail (Wgen.validate s)) specs;
  (* corpus is deterministic *)
  Alcotest.(check (list spec)) "deterministic" specs (Wgen.corpus ~n:30 ~seed:5 ())

(* --- resolver ------------------------------------------------------ *)

let test_resolve () =
  let name w = w.Workload.name in
  Alcotest.(check string) "suite" "compress"
    (name (Result.get_ok (Suite.resolve "compress")));
  Alcotest.(check string) "phased" "drift"
    (name (Result.get_ok (Suite.resolve "drift")));
  let s = Wgen.print Wgen.default in
  Alcotest.(check string) "gen" s (name (Result.get_ok (Suite.resolve s)));
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Suite.resolve "gen:bias=200" with
  | Error e ->
      Alcotest.(check bool) "mentions bias" true (contains e "bias")
  | Ok _ -> Alcotest.fail "invalid spec resolved");
  match Suite.resolve "nonesuch" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown name resolved"

(* --- differential: pooled and engine-v2 sweeps ---------------------- *)

let corpus_specs = lazy (Wgen.corpus ~n:20 ~seed:3 ())

let corpus_envs =
  lazy
    (List.map
       (fun s -> Exp_harness.make_env ~size:10 ~seed:13 (Wgen.workload s))
       (Lazy.force corpus_specs))

(* every observable of a PEP replay, one line per spec *)
let pool_repr ~jobs envs =
  let config =
    { Exp_harness.default with Exp_harness.profiling = Exp_harness.pep_default }
  in
  List.iter (fun env -> ignore (Exp_harness.advice env)) envs;
  Exp_pool.map ~jobs
    (fun _sink (env : Exp_harness.env) ->
      let r = Exp_harness.replay env config in
      let m, lines = Test_engine.observables r in
      Fmt.str "%s|%a|%s" env.Exp_harness.workload.Workload.name
        Test_engine.meas_pp m
        (String.concat ";" lines))
    envs

let test_corpus_pool_differential () =
  let envs = Lazy.force corpus_envs in
  Alcotest.(check (list string))
    "20 specs bit-identical serial vs jobs=4" (pool_repr ~jobs:1 envs)
    (pool_repr ~jobs:4 envs)

let test_corpus_engine_differential () =
  List.iter
    (fun s ->
      Test_engine.diff_of ~seed:13 (Wgen.workload { s with Wgen.size = 8 }) ())
    (Lazy.force corpus_specs)

(* --- fleet triage on a generated drifting cohort -------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    let f = Filename.temp_file "pepsim-wgen" "" in
    Sys.remove f;
    incr n;
    f ^ ".d" ^ string_of_int !n

let test_fleet_triage_gen () =
  let w =
    match Wgen.resolve "gen:seed=7,phases=3,diamonds=10" with
    | Ok w -> w
    | Error e -> Alcotest.failf "resolve: %s" (Wgen.error_to_string e)
  in
  let spec =
    Fleet_collector.default_spec ~size:30 ~seed:11 ~instances:2 ~windows:6
      ~cohorts:
        [
          ("steady", Fleet.Drift.No_drift);
          ("shift", Fleet.Drift.Phase_shift { at_window = 3; phase = 1 });
        ]
      w
  in
  let dir = fresh_dir () in
  (match Fleet_collector.run ~jobs:2 ~dir spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fleet run: %a" Dcg.pp_parse_error e);
  let segs, diags = Fleet_store.load_all ~dir in
  List.iter (fun e -> Alcotest.failf "load_all: %a" Dcg.pp_parse_error e) diags;
  let diff cohort =
    Fleet_query.diff
      ~baseline:
        (Fleet_query.view
           (Fleet_query.select segs
              { Fleet_query.cohort = Some cohort; lo = None; hi = Some 2 }))
      ~current:
        (Fleet_query.view
           (Fleet_query.select segs
              { Fleet_query.cohort = Some cohort; lo = Some 3; hi = None }))
      ()
  in
  let rendered = List.map Fleet_query.render_finding (diff "shift") in
  let has prefix =
    Alcotest.(check bool)
      (Fmt.str "finding %s under drift" prefix)
      true
      (List.exists
         (fun r ->
           String.length r >= String.length prefix
           && String.sub r 0 (String.length prefix) = prefix)
         rendered)
  in
  (* the generated phase shift must trip every rule family *)
  has "new-hot-path";
  has "edge-shift";
  has "caller-change leaf";
  Alcotest.(check int) "no-drift twin clean" 0 (List.length (diff "steady"))

(* --- accuracy over time: PEP re-converges after each shift ---------- *)

let drift_series =
  let run str =
    lazy (Exp_drift.run_spec ~size:25 ~seed:42 (ok_or_fail (Wgen.parse str)))
  in
  List.map
    (fun str -> (str, run str))
    [
      "gen:seed=7,phases=3";
      "gen:seed=3,phases=2";
      "gen:seed=5,phases=2,diamonds=16,mega=6";
    ]

let test_accuracy_over_time () =
  List.iter
    (fun (str, series) ->
      let series = Lazy.force series in
      Alcotest.(check bool)
        (str ^ " has shifts") true
        (series.Exp_drift.shifts <> []);
      let pts = Array.of_list series.Exp_drift.points in
      List.iter
        (fun w ->
          let p = pts.(w) in
          Alcotest.(check bool)
            (Fmt.str "%s: stale accuracy dips at shift w%d" str w)
            true
            (p.Exp_drift.stale_path_acc < p.Exp_drift.path_acc))
        series.Exp_drift.shifts;
      Alcotest.(check bool) (str ^ " re-converged") true series.Exp_drift.recovered)
    drift_series

let test_accuracy_export () =
  let str, series = List.hd drift_series in
  let series = Lazy.force series in
  let fig = Exp_drift.figure series in
  Alcotest.(check int) "rows = windows" series.Exp_drift.windows
    (List.length fig.Exp_figures.rows);
  List.iter
    (fun (_, vs) ->
      Alcotest.(check int) "row width = header width"
        (List.length fig.Exp_figures.header)
        (List.length vs))
    fig.Exp_figures.rows;
  let json = Exp_drift.to_json series in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    Alcotest.(check bool) (Fmt.str "json has %s" needle) true (go 0)
  in
  contains "\"recovered\":true";
  contains "\"points\":[{\"window\":0";
  contains (Fmt.str "\"windows\":%d" series.Exp_drift.windows);
  (* the whole series is a pure function of (spec, seed, size) *)
  let again = Exp_drift.run_spec ~size:25 ~seed:42 (ok_or_fail (Wgen.parse str)) in
  Alcotest.(check string) "series deterministic" json (Exp_drift.to_json again)

let suite =
  [
    Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
    Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
    Alcotest.test_case "validate = workload gate" `Quick
      test_validate_matches_workload;
    Alcotest.test_case "corpus valid + deterministic" `Quick test_corpus_valid;
    Alcotest.test_case "resolve namespace" `Quick test_resolve;
    qcheck "parse(print s) = s" prop_roundtrip;
    qcheck ~count:30 "same spec => byte-identical program+schedule"
      prop_deterministic;
    qcheck "schedule is monotone, in range, shifts real" prop_schedule;
    qcheck ~count:25 "generated programs pass Pep_check" prop_check_clean;
    Alcotest.test_case "corpus: serial = pooled (20 specs)" `Slow
      test_corpus_pool_differential;
    Alcotest.test_case "corpus: oracle = v2 engine (20 specs)" `Slow
      test_corpus_engine_differential;
    Alcotest.test_case "fleet triage: drift flags, twin clean" `Slow
      test_fleet_triage_gen;
    Alcotest.test_case "accuracy over time: re-converges after shifts" `Slow
      test_accuracy_over_time;
    Alcotest.test_case "accuracy figure/JSON shape + determinism" `Slow
      test_accuracy_export;
  ]
