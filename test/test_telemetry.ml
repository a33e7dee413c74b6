(* The telemetry subsystem's contracts:

   - metrics/trace primitives behave (registration, bucketing, folding,
     JSON escaping);
   - a traced run is deterministic: same seed, same trace bytes;
   - metrics agree between the oracle and threaded engines (modulo the
     engine.* counters that only the threaded engine registers);
   - attaching a sink changes no measurement, and the disabled default
     stays allocation-free at the recording sites. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let csl = Alcotest.(list string)

(* ------------------------- primitives ------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check ci "counter" 5 (Metrics.value c);
  let c' = Metrics.counter m "a.count" in
  Metrics.incr c';
  check ci "same counter by name" 6 (Metrics.value c);
  let g = Metrics.gauge m "a.gauge" in
  Metrics.set g 42;
  check ci "gauge" 42 (Metrics.read g);
  let h = Metrics.histogram ~bounds:[| 1; 10 |] m "a.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 5; 100 ];
  check ci "hist n" 4 (Metrics.observations h);
  (match Metrics.counter m "a.gauge" with
  | (_ : Metrics.counter) -> Alcotest.fail "kind clash undetected"
  | exception Invalid_argument _ -> ());
  (* registration order is preserved in the rendering *)
  match Metrics.to_lines m with
  | a :: _ -> check cb "first registered first" true (String.length a > 0)
  | [] -> Alcotest.fail "no lines"

let test_trace_json_shape () =
  let tr = Trace.create () in
  let _tid = Trace.begin_thread tr ~name:"run \"one\"" in
  Trace.span tr ~ts:10 ~dur:5 ~cat:"compile" ~name:"baseline m" ();
  Trace.instant tr ~ts:12 ~cat:"sample" ~name:"take"
    ~args:[ ("method", "f\n") ]
    ();
  check ci "length counts thread row + spans + instants" 3 (Trace.length tr);
  let json = Trace.to_json tr in
  check cb "has traceEvents" true
    (String.length json > 0
    && String.sub json 0 15 = "{\"traceEvents\":");
  let contains needle =
    let n = String.length needle and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check cb "span phase" true (contains "\"ph\":\"X\"");
  check cb "instant phase" true (contains "\"ph\":\"i\"");
  check cb "thread name metadata" true (contains "thread_name");
  check cb "escaped quote" true (contains "run \\\"one\\\"");
  check cb "escaped newline" true (contains "f\\n")

let test_trace_limit () =
  let tr = Trace.create ~limit:3 () in
  for i = 1 to 5 do
    Trace.instant tr ~ts:i ~cat:"sample" ~name:"x" ()
  done;
  check ci "kept" 3 (Trace.length tr);
  check ci "dropped" 2 (Trace.dropped tr)

let test_folded () =
  let f = Folded.create () in
  Folded.add f ~stack:[ "main"; "a b"; "leaf;1" ] 3;
  Folded.add f ~stack:[ "main"; "a b"; "leaf;1" ] 2;
  Folded.add f ~stack:[ "main" ] 1;
  Folded.add f ~stack:[ "main" ] 0 (* ignored *);
  check ci "total" 6 (Folded.total f);
  check csl "lines hottest first"
    [ "main;a_b;leaf_1 5"; "main 1" ]
    (Folded.to_lines f)

(* ------------------------- end-to-end ------------------------- *)

let pep_profiled =
  Exp_harness.Pep_profiled
    {
      sampling = Sampling.pep ~samples:64 ~stride:17;
      zero = `Hottest;
      numbering = `Smart;
    }

let traced_config () =
  let tel = Telemetry.create ~tracing:true () in
  ( tel,
    {
      Exp_harness.default with
      Exp_harness.profiling = pep_profiled;
      telemetry = Some tel;
    } )

let run_traced ~seed () =
  let env = Exp_harness.make_env ~size:30 ~seed (Suite.find "compress") in
  let tel, config = traced_config () in
  let run = Exp_harness.replay env config in
  (tel, run)

let test_trace_deterministic () =
  let tel1, run1 = run_traced ~seed:11 () in
  let tel2, run2 = run_traced ~seed:11 () in
  check ci "checksums" run1.Exp_harness.meas.checksum
    run2.Exp_harness.meas.checksum;
  let json t = Trace.to_json (Option.get (Telemetry.trace t)) in
  check cb "trace non-trivial" true
    (Trace.length (Option.get (Telemetry.trace tel1)) > 10);
  check cs "byte-identical trace JSON" (json tel1) (json tel2);
  check csl "byte-identical metrics"
    (Metrics.to_lines (Telemetry.metrics tel1))
    (Metrics.to_lines (Telemetry.metrics tel2))

let test_metrics_cover_subsystems () =
  let tel, _run = run_traced ~seed:11 () in
  let lines = Metrics.to_lines (Telemetry.metrics tel) in
  let has prefix =
    List.exists (fun l -> String.starts_with ~prefix l) lines
  in
  List.iter
    (fun p -> check cb ("metric " ^ p) true (has p))
    [
      "vm.yieldpoint.polls";
      "vm.ticks";
      "vm.compile.baseline";
      "vm.compile.units";
      "pep.samples.taken";
      "pep.path.promotions";
      "engine.translations";
      "engine.ic.hits";
    ]

(* The engines must agree on everything the simulation defines; only the
   engine.* counters are engine-specific (the oracle has no inline
   caches or translations to count). *)
let test_metrics_parity_across_engines () =
  let run engine =
    let env = Exp_harness.make_env ~size:30 ~seed:13 (Suite.find "jess") in
    let tel = Telemetry.create () in
    let config =
      {
        Exp_harness.default with
        Exp_harness.profiling = pep_profiled;
        engine;
        telemetry = Some tel;
      }
    in
    let run = Exp_harness.replay env config in
    (tel, run)
  in
  let tel_o, run_o = run `Oracle in
  let tel_t, run_t = run `Threaded in
  check ci "iter2 parity" run_o.Exp_harness.meas.iter2
    run_t.Exp_harness.meas.iter2;
  let sim_lines t =
    List.filter
      (fun l -> not (String.starts_with ~prefix:"engine." l))
      (Metrics.to_lines (Telemetry.metrics t))
  in
  check csl "simulation metrics identical across engines" (sim_lines tel_o)
    (sim_lines tel_t)

(* Attaching a sink must not change any measurement: recording is
   host-side only. *)
let test_enabled_changes_nothing () =
  let env = Exp_harness.make_env ~size:30 ~seed:17 (Suite.find "db") in
  let plain =
    Exp_harness.replay env
      { Exp_harness.default with Exp_harness.profiling = pep_profiled }
  in
  let _tel, traced = run_traced ~seed:17 () in
  ignore traced;
  let tel, config = traced_config () in
  let with_tel = Exp_harness.replay env config in
  check cb "sink saw events" true
    (Trace.length (Option.get (Telemetry.trace tel)) > 0);
  let m (r : Exp_harness.run) = r.Exp_harness.meas in
  check ci "iter1" (m plain).iter1 (m with_tel).iter1;
  check ci "iter2" (m plain).iter2 (m with_tel).iter2;
  check ci "compile" (m plain).compile (m with_tel).compile;
  check ci "checksum" (m plain).checksum (m with_tel).checksum;
  check csl "pep paths identical"
    (Path_profile.to_lines (Option.get plain.Exp_harness.pep).Pep.paths)
    (Path_profile.to_lines (Option.get with_tel.Exp_harness.pep).Pep.paths)

(* With telemetry disabled (the default), steady-state threaded
   execution must stay allocation-free — the recording sites compile to
   a single immutable option test. *)
let test_disabled_allocation_free () =
  let program =
    Ast.(
      Compile.program ~name:"tel_alloc" ~main:"main"
        [
          mdef "main" ~params:[]
            [
              set "s" (i 0);
              for_ "k" (i 0) (i 1000)
                [ set "s" (add (v "s") (call "leaf" [ v "k"; v "s" ])) ];
              ret (v "s");
            ];
          mdef "leaf" ~params:[ "a"; "b" ]
            [ ret (add (mul (v "a") (i 3)) (band (v "b") (i 1023))) ];
        ])
  in
  let st = Machine.create ~seed:1 program in
  let eng = Codegen.create st in
  ignore (Codegen.run eng) (* warm-up *);
  let w0 = Gc.minor_words () in
  ignore (Codegen.run eng);
  let words = Gc.minor_words () -. w0 in
  check cb
    (Fmt.str "steady-state allocation %.0f words < 256" words)
    true (words < 256.0)

let test_profile_export () =
  let env = Exp_harness.make_env ~size:30 ~seed:19 (Suite.find "jython") in
  let run =
    Exp_harness.replay env
      { Exp_harness.default with Exp_harness.profiling = pep_profiled }
  in
  let d = run.Exp_harness.driver in
  (match Profile_export.of_driver d `Paths with
  | None -> Alcotest.fail "paths export missing"
  | Some f ->
      check cb "paths non-empty" true (Folded.total f > 0);
      List.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "unparseable folded line %S" line
          | Some i ->
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              check cb "value is numeric" true (int_of_string_opt v <> None))
        (Folded.to_lines f));
  (match Profile_export.of_driver d `Edges with
  | None -> Alcotest.fail "edges export missing"
  | Some f -> check cb "edges non-empty" true (Folded.total f > 0));
  match Profile_export.of_driver d `Dcg with
  | None -> Alcotest.fail "dcg export missing"
  | Some f -> check cb "dcg non-empty" true (Folded.total f > 0)

(* A traced parallel sweep must record the same work as the serial one:
   per-worker sinks are merged into the main sink after the join, so the
   span and instant populations match jobs=1 exactly; the only parallel
   artifact is one extra trace thread row per worker. *)
let test_traced_parallel_sweep () =
  let count needle hay =
    let n = String.length needle and l = String.length hay in
    let rec go i acc =
      if i + n > l then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let sweep jobs =
    let tel = Telemetry.create ~tracing:true () in
    let config =
      {
        Exp_harness.default with
        Exp_harness.profiling = pep_profiled;
        telemetry = Some tel;
      }
    in
    let caches =
      List.map
        (fun name ->
          Exp_cache.create ~config
            (Exp_harness.make_env ~size:25 ~seed:29 (Suite.find name)))
        [ "compress"; "db" ]
    in
    let tasks =
      List.concat_map
        (fun cache ->
          List.map
            (fun profiling ->
              { Exp_pool.cache; config = { config with profiling } })
            [ Exp_harness.Base; pep_profiled; Exp_harness.Perfect_path ])
        caches
    in
    Exp_pool.run_tasks ~jobs ~telemetry:tel tasks;
    (tel, caches)
  in
  let tel1, caches1 = sweep 1 in
  let tel4, caches4 = sweep 4 in
  (* same runs, same measurements *)
  List.iter2
    (fun c1 c4 ->
      List.iter2
        (fun (k1, (r1 : Exp_harness.run)) (k4, (r4 : Exp_harness.run)) ->
          check cs "run key" k1 k4;
          check ci (k1 ^ " iter2") r1.meas.iter2 r4.meas.iter2;
          check ci (k1 ^ " checksum") r1.meas.checksum r4.meas.checksum)
        (Exp_cache.all_runs c1) (Exp_cache.all_runs c4))
    caches1 caches4;
  let json t = Trace.to_json (Option.get (Telemetry.trace t)) in
  let j1 = json tel1 and j4 = json tel4 in
  check cb "chrome trace shape" true
    (String.sub j4 0 15 = "{\"traceEvents\":");
  check ci "same span count" (count "\"ph\":\"X\"" j1) (count "\"ph\":\"X\"" j4);
  check ci "same instant count"
    (count "\"ph\":\"i\"" j1)
    (count "\"ph\":\"i\"" j4);
  check ci "no worker rows when serial" 0 (count "worker " j1);
  (* the two caches' advice stage (two workers), then the runs' four *)
  check ci "one trace thread per worker and stage" (2 + 4) (count "\"worker " j4);
  (* merged counters equal the serial totals; the one gauge
     (vm.compile.cycles) merges as a max over workers, so it is only
     order-independent, not comparable to the serial last-write *)
  let m t =
    List.sort compare
      (List.filter
         (fun l -> not (String.starts_with ~prefix:"vm.compile.cycles" l))
         (Metrics.to_lines (Telemetry.metrics t)))
  in
  check csl "merged metrics equal serial" (m tel1) (m tel4)

let suite =
  [
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "trace JSON shape" `Quick test_trace_json_shape;
    Alcotest.test_case "trace event limit" `Quick test_trace_limit;
    Alcotest.test_case "folded stacks" `Quick test_folded;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "metrics cover subsystems" `Quick
      test_metrics_cover_subsystems;
    Alcotest.test_case "metrics parity across engines" `Quick
      test_metrics_parity_across_engines;
    Alcotest.test_case "enabled sink changes nothing" `Quick
      test_enabled_changes_nothing;
    Alcotest.test_case "disabled telemetry allocation-free" `Quick
      test_disabled_allocation_free;
    Alcotest.test_case "profile export folded stacks" `Quick
      test_profile_export;
    Alcotest.test_case "traced parallel sweep merges cleanly" `Slow
      test_traced_parallel_sweep;
  ]
