(* pepsim — command-line front end for the PEP reproduction.

   Subcommands:
     run          parse a textual program and profile it with PEP
     workload     run one suite benchmark under a profiling configuration
     experiments  regenerate the paper's tables and figures
     trace        emit a Chrome trace of an adaptive PEP run
     top          render PEP's continuous profile as folded stacks
     check        run the static verifier and profile lint
     chaos        fault-injection sweep with degradation invariants
     fleet        continuous profiling over a simulated fleet
                  (run/query/diff/watch/chaos)
     list         enumerate workloads and experiment ids

   Exit codes: 0 success; 1 a check, experiment or chaos invariant
   failed; 2 usage or input parse error. *)

open Cmdliner

(* Shared flags come from {!Cli}, the one spec table every subcommand
   draws from. *)

let print_diags diags =
  List.iter (fun d -> Fmt.pr "%a@." Pep_check.pp_diagnostic d) diags

(* Static passes 1-3 over every method in both truncation modes (plus,
   when [deep], the pass-5 dataflow lints and unsafe-op justification),
   then — unless [static_only], or a static pass found an error, so
   the program may not load — one profiled run (PEP sampling plus an
   exact edge profiler) whose collected profiles feed pass 4.  A run
   that stops with a runtime error (call-stack overflow) is an error
   diagnostic of its own, and its partial profiles are not linted. *)
let check_program ?(static_only = false) ?(deep = false) ~sampling ~seed program
    =
  let diags =
    ref
      (if deep then Pep_check.check_program_deep program
       else Pep_check.check_program_static program)
  in
  let add ds = diags := !diags @ ds in
  if not (static_only || Pep_check.has_errors !diags) then begin
    let st = Machine.create ~seed program in
    let pep = Pep.create ~sampling st in
    let truth = Profiler.perfect_edge st in
    let hooks = Tick.hooks () @ pep.Pep.hooks @ truth.Profiler.ehooks in
    match Interp.run hooks st with
    | exception Interp.Runtime_error msg ->
        add
          [
            {
              Pep_check.severity = Pep_check.Error;
              pass = "run";
              loc = Pep_check.Program_loc;
              message = "runtime error: " ^ msg;
            };
          ]
    | (_ : int) ->
        add (Exp_harness.lint_pep st pep);
        Array.iteri
          (fun midx ep ->
            if not (Edge_profile.is_empty ep) then
              add
                (Pep_check.with_pass "profile@edge"
                   (Pep_check.lint_edge_profile ~exact:true
                      (Machine.cmeth st midx).Machine.cfg ep)))
          truth.Profiler.etable
  end;
  !diags

let print_profiles program (pep : Pep.t) =
  Program.iter_methods
    (fun m (meth : Method.t) ->
      let paths = pep.Pep.paths.(m) in
      if not (Path_profile.is_empty paths) then begin
        Printf.printf "\n%s: %d distinct paths, %d samples\n" meth.Method.name
          (Path_profile.n_distinct paths)
          (Path_profile.total paths);
        let entries =
          List.sort
            (fun (a : Path_profile.entry) b -> compare b.count a.count)
            (Path_profile.entries paths)
        in
        List.iteri
          (fun rank (e : Path_profile.entry) ->
            if rank < 8 then
              Printf.printf "  path %-5d %8d samples  %d branches\n" e.path_id
                e.count e.n_branches)
          entries;
        List.iter
          (fun br ->
            match Edge_profile.bias pep.Pep.edges.(m) br with
            | Some bias -> Printf.printf "  branch %-3d %5.1f%% taken\n" br (100. *. bias)
            | None -> ())
          (Edge_profile.branch_ids pep.Pep.edges.(m))
      end)
    program

(* --- loading textual programs ---------------------------------------- *)

(* A textual program that cannot be read, parsed, compiled or linked is
   reported as "FILE: message", exit 2. *)
let load_file file =
  match
    Compile.pdef
      (Parse.program (In_channel.with_open_text file In_channel.input_all))
  with
  | p -> p
  | exception (Parse.Error msg | Compile.Error msg | Program.Link_error msg) ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

(* SOURCE is a workload name (suite, phased or gen: spec) or a path to a
   textual program. *)
let load_program_arg source =
  match Suite.resolve source with
  | Ok w -> Workload.program ~size:2 w
  | Error _ ->
      if Sys.file_exists source && not (Sys.is_directory source) then
        load_file source
      else begin
        Printf.eprintf "%s: neither a workload nor a file\n" source;
        exit 2
      end

(* Before a loaded program runs or is shown: every diagnostic of the
   bytecode verifier on stderr, then exit 2 if one is an error or a
   method fails CFG construction ({!Verify.program}). *)
let verify_loaded label program =
  let ds = Verify.check_program program in
  List.iter (fun d -> Fmt.epr "%s: %a@." label Pep_check.pp_diagnostic d) ds;
  if Pep_check.has_errors ds then exit 2;
  match Verify.program program with
  | () -> ()
  | exception Verify.Error msg ->
      Printf.eprintf "%s: %s\n" label msg;
      exit 2

(* --- run ----------------------------------------------------------- *)

let run_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program in the pepsim textual format.")
  in
  let action file sampling seed verify =
    let program = load_file file in
    verify_loaded file program;
    let st = Machine.create ~seed program in
    let pep = Pep.create ~sampling st in
    let result =
      match Interp.run (Tick.hooks () @ pep.Pep.hooks) st with
      | r -> r
      | exception Interp.Runtime_error msg ->
          Printf.eprintf "%s: runtime error: %s\n" file msg;
          exit 1
    in
    Printf.printf "result: %d  (%.2f Mcycles, %d samples)\n" result
      (float_of_int st.Machine.cycles /. 1e6)
      (Pep.n_samples pep);
    print_profiles program pep;
    if verify then begin
      let diags =
        Pep_check.check_program_static program @ Exp_harness.lint_pep st pep
      in
      Fmt.pr "%a@." Pep_check.pp_report diags;
      if Pep_check.has_errors diags then exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Profile a textual program with PEP")
    Term.(const action $ file_arg $ Cli.sampling_arg $ Cli.seed_arg $ Cli.verify_arg)

(* --- workload ------------------------------------------------------ *)

let workload_cmd =
  let deep_flag =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Run the dataflow lints and unsafe-access justification on every \
             compiled body and print the combined diagnostics (implies the \
             reporting part of $(b,--verify)).")
  in
  let action name size sampling seed verify deep cache_dir no_cache faults_spec
      =
    let faults = Cli.parse_faults faults_spec in
    match Cli.find_workload name with
    | w ->
        let cache_dir = if no_cache then None else cache_dir in
        let size = Option.value ~default:w.Workload.default_size size in
        let env = Exp_harness.make_env ~size ~seed w in
        let cache =
          Exp_cache.create
            ~config:{ Exp_harness.default with Exp_harness.faults; deep }
            ?cache_dir env
        in
        let base = Exp_cache.base cache in
        let run =
          Exp_cache.run cache
            {
              (Exp_cache.config cache) with
              Exp_harness.profiling =
                Exp_harness.Pep_profiled
                  { sampling; zero = `Hottest; numbering = `Smart };
            }
        in
        Printf.printf
          "%s (size %d): base %.2f Mcycles, %s %.2f Mcycles (%+.2f%%)\n" name
          size
          (float_of_int base.Exp_harness.meas.iter2 /. 1e6)
          (Sampling.name sampling)
          (float_of_int run.Exp_harness.meas.iter2 /. 1e6)
          (Exp_report.overhead ~base:base.Exp_harness.meas.iter2
             run.Exp_harness.meas.iter2);
        Option.iter (print_profiles env.Exp_harness.program) run.Exp_harness.pep;
        if cache_dir <> None then Exp_cache.print_report [ cache ];
        if verify || deep then begin
          let diags =
            Pep_check.check_program_static env.Exp_harness.program
            @ base.Exp_harness.checks @ run.Exp_harness.checks
          in
          Fmt.pr "%a@." Pep_check.pp_report diags;
          if Pep_check.has_errors diags then exit 1
        end
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a suite benchmark under PEP")
    Term.(
      const action $ Cli.workload_name_arg $ Cli.size_arg $ Cli.sampling_arg $ Cli.seed_arg $ Cli.verify_arg
      $ deep_flag $ Cli.cache_dir_arg $ Cli.no_cache_arg $ Cli.faults_arg)

(* --- experiments --------------------------------------------------- *)

let experiments_cmd =
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"ID"
          ~doc:
            "Run only this experiment (repeatable, comma-separable); \
             default: all.")
  in
  let scale_arg = Cli.scale_arg ~default:1.0 in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Attach a telemetry sink to every run and write a Chrome \
             trace of the whole experiment sweep to $(i,FILE).")
  in
  let action only scale seed verify trace_out jobs cache_dir no_cache
      faults_spec =
    let faults = Cli.parse_faults faults_spec in
    let cache_dir = if no_cache then None else cache_dir in
    let only =
      List.filter
        (fun id -> id <> "")
        (List.concat_map (String.split_on_char ',') only)
    in
    let ids = if only = [] then Exp_figures.ids else only in
    List.iter
      (fun id ->
        if not (List.mem id Exp_figures.ids) then begin
          Printf.eprintf "unknown experiment %s; try `pepsim list`\n" id;
          exit 2
        end)
      ids;
    Printf.printf "preparing %d benchmarks (scale %.2f, jobs %d)...\n%!"
      (List.length Suite.names) scale jobs;
    let telemetry =
      Option.map (fun _ -> Telemetry.create ~tracing:true ()) trace_out
    in
    let config = { Exp_harness.default with Exp_harness.telemetry; faults } in
    let caches = Exp_pool.figures ~jobs ~config ?cache_dir ~scale ~seed ids in
    (match (trace_out, telemetry) with
    | Some path, Some tel ->
        let trace = Option.get (Telemetry.trace tel) in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Trace.to_json trace));
        Printf.printf "wrote %s (%d events)\n" path (Trace.length trace)
    | _ -> ());
    if verify then begin
      (* every cached run carries its driver + profile-lint diagnostics *)
      let n_runs = ref 0 in
      let diags =
        List.concat_map
          (fun cache ->
            let name =
              (Exp_cache.env cache).Exp_harness.workload.Workload.name
            in
            List.concat_map
              (fun (key, (r : Exp_harness.run)) ->
                incr n_runs;
                List.map
                  (fun (d : Pep_check.diagnostic) ->
                    { d with pass = Fmt.str "%s/%s:%s" name key d.pass })
                  r.Exp_harness.checks)
              (Exp_cache.all_runs cache))
          caches
      in
      Fmt.pr "verification: %d runs checked@." !n_runs;
      Fmt.pr "%a@." Pep_check.pp_report diags;
      if Pep_check.has_errors diags then exit 1
    end
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const action $ only_arg $ scale_arg $ Cli.seed_arg $ Cli.verify_arg $ trace_arg
      $ Cli.jobs_arg $ Cli.cache_dir_arg $ Cli.no_cache_arg $ Cli.faults_arg)

(* --- disasm -------------------------------------------------------- *)

let disasm_cmd =
  let source_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Workload name or program file.")
  in
  let method_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "method" ] ~docv:"NAME" ~doc:"Only this method.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("header", Dag.Loop_header); ("back-edge", Dag.Back_edge) ])
          Dag.Loop_header
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Truncation mode: $(b,header) (PEP) or $(b,back-edge) (BLPP).")
  in
  let action source method_filter mode =
    let program = load_program_arg source in
    verify_loaded source program;
    Program.iter_methods
      (fun _ (m : Method.t) ->
        if method_filter = None || method_filter = Some m.Method.name then begin
          Fmt.pr "%a@." Method.pp m;
          let cfg = To_cfg.cfg m in
          Fmt.pr "%a@." Cfg.pp cfg;
          let loops = Loops.compute cfg in
          Fmt.pr "loop headers: %a@."
            Fmt.(list ~sep:comma int)
            (Loops.headers loops);
          if not m.Method.uninterruptible then begin
            match Numbering.ball_larus (Dag.build mode cfg) with
            | numbering ->
                Fmt.pr "%a@." Dag.pp (Numbering.dag numbering);
                Fmt.pr "%a@." Numbering.pp numbering;
                let plan = Instrument.of_numbering numbering in
                Fmt.pr "static instrumentation ops: %d@.@."
                  (Instrument.static_ops plan)
            | exception Numbering.Too_many_paths { n_paths; _ } ->
                Fmt.pr "paths: %d (over the profiling limit)@.@." n_paths
            | exception Dag.Unsupported msg ->
                Fmt.pr "loop-header truncation unsupported: %s@.@." msg
          end
          else Fmt.pr "uninterruptible: not instrumented@.@."
        end)
      program
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Show bytecode, CFG, truncated DAG, numbering and plan")
    Term.(const action $ source_arg $ method_arg $ mode_arg)

(* --- profiles ------------------------------------------------------ *)

let profiles_cmd =
  let out_arg =
    Cli.out_arg ~docv:"PREFIX"
      ~doc:
        "Write $(i,PREFIX).paths, $(i,PREFIX).edges and $(i,PREFIX).advice \
         instead of printing a summary."
  in
  let action name out size sampling seed =
    match Cli.find_workload name with
    | w ->
        let env = Exp_harness.make_env ?size ~seed w in
        let run =
          Exp_harness.replay env
            {
              Exp_harness.default with
              Exp_harness.profiling =
                Exp_harness.Pep_profiled
                  { sampling; zero = `Hottest; numbering = `Smart };
            }
        in
        let pep = Option.get run.Exp_harness.pep in
        let write path lines =
          Out_channel.with_open_text path (fun oc ->
              List.iter
                (fun l ->
                  Out_channel.output_string oc l;
                  Out_channel.output_char oc '\n')
                lines);
          Printf.printf "wrote %s\n" path
        in
        (match out with
        | Some prefix ->
            write (prefix ^ ".paths") (Path_profile.to_lines pep.Pep.paths);
            write (prefix ^ ".edges") (Edge_profile.to_lines pep.Pep.edges);
            write (prefix ^ ".advice") (Advice.to_lines (Exp_harness.advice env))
        | None ->
            Printf.printf
              "%s: %d path samples over %d distinct paths; %d branch \
               executions observed\n"
              name
              (Path_profile.table_total pep.Pep.paths)
              (Array.fold_left
                 (fun acc p -> acc + Path_profile.n_distinct p)
                 0 pep.Pep.paths)
              (Edge_profile.table_total pep.Pep.edges))
  in
  Cmd.v
    (Cmd.info "profiles"
       ~doc:"Collect PEP profiles for a benchmark; optionally save them")
    Term.(
      const action $ Cli.workload_name_arg $ out_arg $ Cli.size_arg
      $ Cli.sampling_arg $ Cli.seed_arg)

(* --- trace / top --------------------------------------------------- *)

(* Parse an advice file, reporting malformed lines with their position
   the same way unreadable paths are reported. *)
let load_advice ~n_methods file =
  let src =
    match In_channel.with_open_text file In_channel.input_all with
    | src -> src
    | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  match Advice.of_lines ~file ~n_methods (String.split_on_char '\n' src) with
  | Ok advice -> advice
  | Error e ->
      Fmt.epr "%a@." Dcg.pp_parse_error e;
      exit 2

(* An adaptive run with PEP collecting the continuous profile and
   driving the optimizer (paper §6.5) — the configuration whose trace
   shows every event class: baseline compiles, promotions, PEP samples,
   recompiles and set_speed phase shifts.  With [advice_file], a
   deterministic replay of that advice instead. *)
let telemetry_run ~tracing ~size ~seed ~sampling ~iters ~advice_file
    ?(faults = Fault_plan.empty) w =
  let tel = Telemetry.create ~tracing () in
  let size = Option.value ~default:w.Workload.default_size size in
  let program = Workload.program ~size w in
  let mode =
    match advice_file with
    | None -> Driver.Adaptive { thresholds = Driver.default_thresholds }
    | Some file ->
        Driver.Replay (load_advice ~n_methods:(Program.n_methods program) file)
  in
  let st = Machine.create ~seed program in
  Telemetry.begin_run tel
    ~name:(Printf.sprintf "%s size=%d seed=%d" w.Workload.name size seed);
  let d =
    Driver.create
      {
        Driver.default_options with
        mode;
        opt_profile = Driver.From_pep;
        pep = Some { Driver.sampling; zero = `Hottest; numbering = `Smart };
        telemetry = Some tel;
        faults =
          (if Fault_plan.is_empty faults then None
           else Some (Fault_injector.create ~telemetry:tel faults));
      }
      st
  in
  for _ = 1 to iters do
    ignore (Driver.run d)
  done;
  (tel, d)

let trace_cmd =
  let out_arg =
    Cli.out_arg ~docv:"FILE"
      ~doc:"Write the trace JSON to $(i,FILE) instead of stdout."
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Also print the metrics registry.")
  in
  let action name out metrics size sampling seed iters advice_file faults_spec =
    let w = Cli.find_workload name in
    let faults = Cli.parse_faults faults_spec in
    let tel, _d =
      telemetry_run ~tracing:true ~size ~seed ~sampling ~iters ~advice_file
        ~faults w
    in
    let trace = Option.get (Telemetry.trace tel) in
    let json = Trace.to_json trace in
    (match out with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc json);
        Printf.printf "wrote %s (%d events%s)\n" path (Trace.length trace)
          (match Trace.dropped trace with
          | 0 -> ""
          | n -> Printf.sprintf ", %d dropped" n)
    | None -> print_string json);
    if metrics then Fmt.pr "%a@." Metrics.pp (Telemetry.metrics tel)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a benchmark adaptively under PEP and emit a Chrome \
          trace-event JSON of its virtual timeline (open in \
          about:tracing or ui.perfetto.dev)")
    Term.(
      const action $ Cli.workload_name_arg $ out_arg $ metrics_arg $ Cli.size_arg
      $ Cli.sampling_arg $ Cli.seed_arg $ Cli.iters_arg $ Cli.advice_arg $ Cli.faults_arg)

let top_cmd =
  let action name kind json limit size sampling seed iters advice_file =
    let w = Cli.find_workload name in
    let _tel, d =
      telemetry_run ~tracing:false ~size ~seed ~sampling ~iters ~advice_file w
    in
    match Profile_export.of_driver d kind with
    | None ->
        Printf.eprintf "%s: no PEP profile was collected\n"
          (Profile_export.kind_name kind);
        exit 1
    | Some folded ->
        if json then print_string (Folded.to_json folded)
        else begin
          let lines = Folded.to_lines folded in
          let lines =
            match limit with
            | Some n -> List.filteri (fun i _ -> i < n) lines
            | None -> lines
          in
          List.iter print_endline lines
        end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Render PEP's continuous profile as folded stacks (the \
          flamegraph.pl / speedscope input format), methods hung under \
          their hottest sampled call chain")
    Term.(
      const action $ Cli.workload_name_arg $ Cli.kind_arg $ Cli.json_arg
      $ Cli.limit_arg $ Cli.size_arg
      $ Cli.sampling_arg $ Cli.seed_arg $ Cli.iters_arg $ Cli.advice_arg)

(* --- check --------------------------------------------------------- *)

(* Deep mode's transform-validation sweep: replay the workload under
   every transform configuration and both engines with the driver's
   translation validation plus dataflow lints on, and collect what the
   driver recorded.  Labels name the configuration so a rejection says
   exactly which transform under which engine broke. *)
let deep_transform_configs =
  [
    ("base", false, false);
    ("inline", true, false);
    ("unroll", false, true);
    ("inline+unroll", true, true);
  ]

let deep_sweep ~size ~seed (w : Workload.t) =
  let env = Exp_harness.make_env ~size ~seed w in
  List.concat_map
    (fun engine ->
      List.map
        (fun (key, inline, unroll) ->
          let config =
            { Exp_harness.default with inline; unroll; deep = true; engine }
          in
          let r = Exp_harness.replay env config in
          let label =
            Fmt.str "%s/%s"
              (match engine with `Threaded -> "threaded" | `Oracle -> "oracle")
              key
          in
          (label, Driver.checks r.Exp_harness.driver))
        deep_transform_configs)
    [ `Threaded; `Oracle ]

let check_cmd =
  let sources_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SOURCE"
          ~doc:
            "Workload name, textual program file, or a directory whose \
             $(b,.pep) files are all checked (repeatable).")
  in
  let suite_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "suite" ] ~docv:"NAME"
          ~doc:"Check workload $(i,NAME), or $(b,all) for the whole suite.")
  in
  let static_arg =
    Arg.(
      value & flag
      & info [ "static-only" ]
          ~doc:"Skip the profiled run; run only the static passes.")
  in
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Also run the dataflow lints (liveness, intervals, effects), \
             justify the threaded engine's unchecked array operations, and \
             — for workload targets — replay every transform configuration \
             under both engines with translation validation on.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Check every $(b,.pep) program under $(b,examples/programs/) \
             in addition to the named targets.")
  in
  let bench_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:
            "Write per-target analysis wall-clock times as JSON to \
             $(i,FILE) (e.g. BENCH_check.json).")
  in
  let scale_arg =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale workload sizes by F for the profiled run.")
  in
  let action sources suite static_only deep all bench_out scale sampling seed =
    let scaled (w : Workload.t) =
      max 1 (int_of_float (float_of_int w.default_size *. scale))
    in
    let suite_targets =
      match suite with
      | None -> []
      | Some "all" -> Suite.all
      | Some name -> [ Cli.find_workload name ]
    in
    let expand_dir dir =
      match Sys.readdir dir with
      | entries ->
          let pep =
            List.filter
              (fun f -> Filename.check_suffix f ".pep")
              (Array.to_list entries)
          in
          if pep = [] then begin
            Printf.eprintf "%s: no .pep programs\n" dir;
            exit 2
          end;
          List.map (Filename.concat dir) (List.sort compare pep)
      | exception Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    let sources =
      (if all then expand_dir (Filename.concat "examples" "programs") else [])
      @ List.concat_map
          (fun src ->
            if
              (not (List.mem src (Suite.names)))
              && Sys.file_exists src && Sys.is_directory src
            then expand_dir src
            else [ src ])
          sources
    in
    let targets =
      List.map
        (fun src ->
          match Suite.resolve src with
          | Ok w -> (w.Workload.name, Workload.program ~size:(scaled w) w, Some w)
          | Error _ -> (src, load_program_arg src, None))
        sources
      @ List.map
          (fun (w : Workload.t) ->
            (w.Workload.name, Workload.program ~size:(scaled w) w, Some w))
          suite_targets
    in
    if targets = [] then begin
      Printf.eprintf "nothing to check: give a SOURCE, --suite or --all\n";
      exit 2
    end;
    let failed = ref false in
    let t_start = Unix.gettimeofday () in
    let bench_rows = ref [] in
    List.iter
      (fun (label, program, workload) ->
        let t0 = Unix.gettimeofday () in
        let diags = check_program ~static_only ~deep ~sampling ~seed program in
        print_diags diags;
        let static_s = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        let sweep =
          match workload with
          | Some w when deep && not static_only ->
              deep_sweep ~size:(scaled w) ~seed w
          | Some _ | None -> []
        in
        let sweep_errs = ref 0 in
        List.iter
          (fun (cfg, ds) ->
            let errs = Pep_check.errors ds in
            sweep_errs := !sweep_errs + List.length errs;
            List.iter
              (fun d -> Fmt.pr "[%s] %a@." cfg Pep_check.pp_diagnostic d)
              errs)
          sweep;
        let sweep_s = Unix.gettimeofday () -. t1 in
        let n_err = List.length (Pep_check.errors diags) + !sweep_errs in
        let n_warn =
          List.length
            (List.filter
               (fun (d : Pep_check.diagnostic) -> d.severity = Pep_check.Warning)
               diags)
        in
        (* deep runs audit the fusion table the engine compiles for each
           method; the count lets CI assert the pass covered the target *)
        let n_fusion =
          List.length
            (List.filter
               (fun (d : Pep_check.diagnostic) ->
                 d.pass = "fusion" && d.severity = Pep_check.Info)
               diags)
        in
        bench_rows :=
          (label, Program.n_methods program, static_s, sweep_s,
           List.length sweep, n_err, n_warn, n_fusion)
          :: !bench_rows;
        if n_err > 0 then begin
          failed := true;
          Printf.printf "%s: FAILED (%d error(s), %d warning(s))\n" label n_err
            n_warn
        end
        else
          Printf.printf "%s: ok (%d methods%s%s)\n" label
            (Program.n_methods program)
            (if sweep <> [] then
               Printf.sprintf ", %d config(s) validated" (List.length sweep)
             else "")
            (if n_warn > 0 then Printf.sprintf ", %d warning(s)" n_warn else ""))
      targets;
    (match bench_out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        Printf.fprintf oc
          "{\n  \"seed\": %d,\n  \"deep\": %b,\n  \"wall_clock_s\": %.3f,\n\
          \  \"targets\": [\n"
          seed deep
          (Unix.gettimeofday () -. t_start);
        let rows = List.rev !bench_rows in
        List.iteri
          (fun j (label, methods, static_s, sweep_s, configs, errs, warns, fus) ->
            Printf.fprintf oc
              "    { \"name\": %s, \"methods\": %d, \"static_s\": %.3f, \
               \"sweep_s\": %.3f, \"sweep_configs\": %d, \"errors\": %d, \
               \"warnings\": %d, \"fusion_tables\": %d }%s\n"
              (Tjson.str label) methods static_s sweep_s configs errs warns fus
              (if j = List.length rows - 1 then "" else ","))
          rows;
        Printf.fprintf oc "  ]\n}\n";
        close_out oc;
        Printf.printf "[check: %s written]\n" file);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify programs: bytecode, CFG/DAG invariants and path numbering \
          in both truncation modes, plus a profile lint over a profiled run; \
          $(b,--deep) adds dataflow lints and translation validation of the \
          optimizer's transforms")
    Term.(
      const action $ sources_arg $ suite_arg $ static_arg $ deep_arg $ all_arg
      $ bench_arg $ scale_arg $ Cli.sampling_arg $ Cli.seed_arg)

(* --- list ---------------------------------------------------------- *)

(* --- chaos --------------------------------------------------------- *)

let chaos_cmd =
  let seeds_arg =
    Arg.(
      value & opt string "42"
      & info [ "seed" ] ~docv:"N[,N...]"
          ~doc:"Input seed(s) to sweep (comma-separable).")
  in
  let scale_arg = Cli.scale_arg ~default:0.5 in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"WORKLOAD"
          ~doc:
            "Sweep only this workload (repeatable, comma-separable); \
             default: the whole suite.")
  in
  let case_arg =
    Arg.(
      value & opt_all string []
      & info [ "case" ] ~docv:"LABEL"
          ~doc:
            "Run only this curated plan (repeatable, comma-separable); \
             default: all of them.")
  in
  let max_loss_arg =
    Arg.(
      value & opt float 1.0
      & info [ "max-loss" ] ~docv:"F"
          ~doc:
            "Accuracy-loss bound for the custom $(b,--faults) plan \
             (1 - absolute overlap vs the healthy run).")
  in
  let action seeds scale jobs only case_labels faults_spec max_loss =
    let seeds =
      List.map
        (fun s ->
          match int_of_string_opt (String.trim s) with
          | Some n -> n
          | None ->
              Printf.eprintf "--seed: %s is not an integer\n" s;
              exit 2)
        (Cli.split_commas [ seeds ])
    in
    let cases =
      Cli.pick_cases ~what:"chaos case"
        ~label:(fun (c : Exp_chaos.case) -> c.Exp_chaos.label)
        Exp_chaos.curated case_labels
    in
    let cases =
      match Cli.parse_faults faults_spec with
      | p when Fault_plan.is_empty p -> cases
      | plan -> cases @ [ { Exp_chaos.label = "custom"; plan; max_loss } ]
    in
    let only = Cli.split_workloads only in
    (* non-suite targets (phased workloads, gen: specs) get their own
       envs; suite names filter the pooled suite sweep as before *)
    let extra =
      List.filter_map
        (fun n ->
          if List.mem n Suite.names then None else Some (Cli.find_workload n))
        only
    in
    let total = ref 0 and failures = ref 0 in
    List.iter
      (fun seed ->
        let envs = Exp_pool.suite_envs ~scale ~jobs ~seed () in
        let envs =
          if only = [] then envs
          else
            List.filter
              (fun (e : Exp_harness.env) ->
                List.mem e.Exp_harness.workload.Workload.name only)
              envs
            @ List.map
                (fun (w : Workload.t) ->
                  let size =
                    max 1
                      (int_of_float (float_of_int w.Workload.default_size *. scale))
                  in
                  Exp_harness.make_env ~size ~seed w)
                extra
        in
        Printf.printf "chaos: seed %d, %d workloads x %d plans x 2 engines\n%!"
          seed (List.length envs) (List.length cases);
        List.iter
          (fun (r : Exp_chaos.report) ->
            Fmt.pr "%a@." Exp_chaos.pp_report r;
            incr total;
            if r.Exp_chaos.violations <> [] then incr failures)
          (Exp_chaos.sweep ~jobs ~cases envs))
      seeds;
    Printf.printf "chaos: %d/%d runs clean\n" (!total - !failures) !total;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep deterministic fault plans over the suite and check the \
          graceful-degradation invariants")
    Term.(
      const action $ seeds_arg $ scale_arg $ Cli.jobs_arg $ only_arg $ case_arg
      $ Cli.faults_arg $ max_loss_arg)

(* --- fleet --------------------------------------------------------- *)

(* `pepsim fleet` — the in-process continuous-profiling service:
   `run` simulates a fleet of VM instances and lands windowed profile
   segments, `query` answers hotspots / folded stacks over them, and
   `diff` triages a baseline/current pair with the drift rules. *)

let fleet_dir_arg =
  Arg.(
    value & opt string "_fleet"
    & info [ "dir" ] ~docv:"DIR" ~doc:"Segment store directory.")

let fleet_cohort_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cohort" ] ~docv:"NAME"
        ~doc:"Restrict to this cohort (default: all cohorts).")

let fleet_from_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "from" ] ~docv:"W" ~doc:"First window index to include.")

let fleet_to_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "to" ] ~docv:"W" ~doc:"Last window index to include.")

(* "NAME=steady" or "NAME=shift@W=P", the grammar Fleet.Drift.key
   prints — so a cohort list can be round-tripped from any report *)
let parse_cohort spec =
  match String.index_opt spec '=' with
  | None -> Error (Fmt.str "bad cohort %S: expected NAME=DRIFT" spec)
  | Some i -> (
      let name = String.sub spec 0 i in
      let drift = String.sub spec (i + 1) (String.length spec - i - 1) in
      match drift with
      | "" | "steady" -> Ok (name, Fleet.Drift.No_drift)
      | _ -> (
          match Scanf.sscanf_opt drift "shift@%d=%d" (fun w p -> (w, p)) with
          | Some (at_window, phase) when at_window >= 0 && phase > 0 ->
              Ok (name, Fleet.Drift.Phase_shift { at_window; phase })
          | Some _ | None ->
              Error
                (Fmt.str
                   "bad cohort %S: drift must be `steady' or `shift@W=P'"
                   spec)))

let load_segments ~dir =
  let segments, diags = Fleet_store.load_all ~dir in
  List.iter (fun e -> Fmt.epr "fleet: %a@." Dcg.pp_parse_error e) diags;
  if segments = [] then begin
    Printf.eprintf "%s: no segments (run `pepsim fleet run` first)\n" dir;
    exit 2
  end;
  segments

let fleet_workload_arg =
  Arg.(
    value & opt string "drift"
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "Workload the instances run: $(b,drift) (the phased \
           drift-detection workload), any suite benchmark, or a \
           $(b,gen:) spec string.")

let fleet_run_cmd =
  let cohorts_arg =
    Arg.(
      value & opt_all string []
      & info [ "cohort" ] ~docv:"NAME=DRIFT"
          ~doc:
            "Add a cohort (repeatable, comma-separable): $(i,NAME=steady) \
             or $(i,NAME=shift@W=P) (shift to phase P at window W).  \
             Default: the steady/shift pair.")
  in
  let instances_arg =
    Arg.(
      value & opt int 8
      & info [ "instances" ] ~docv:"N" ~doc:"Simulated VM instances per cohort.")
  in
  let windows_arg =
    Arg.(
      value & opt int 4
      & info [ "windows" ] ~docv:"N"
          ~doc:"Collection windows (one application iteration each).")
  in
  let samples_arg =
    Arg.(
      value & opt int 64
      & info [ "samples" ] ~docv:"N" ~doc:"PEP sampling burst length.")
  in
  let stride_arg =
    Arg.(
      value & opt int 17
      & info [ "stride" ] ~docv:"N" ~doc:"PEP sampling stride.")
  in
  let tick_shrink_arg =
    Arg.(
      value & opt int 8
      & info [ "tick-shrink" ] ~docv:"N"
          ~doc:
            "Compress the simulated timer period by N so short windows \
             still sample every hot method.")
  in
  let drift_at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "drift-at" ] ~docv:"W"
          ~doc:
            "Window at which the drifting cohort shifts phase \
             (default: halfway).")
  in
  let keep_raw_arg =
    Arg.(
      value & flag
      & info [ "keep-raw" ]
          ~doc:"Skip compaction: keep one segment per (instance, window).")
  in
  let retain_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retain" ] ~docv:"N"
          ~doc:"Keep only each cohort's newest N windows after compaction.")
  in
  let action dir workload size seed samples stride jobs instances windows
      tick_shrink drift_at keep_raw retain cohort_specs faults_spec =
    Cli.require_pos "instances" instances;
    Cli.require_pos "windows" windows;
    Cli.require_pos "tick-shrink" tick_shrink;
    Option.iter (Cli.require_pos "retain") retain;
    let faults = Cli.parse_faults faults_spec in
    if Fault_plan.perturbs_execution faults then begin
      Printf.eprintf
        "--faults: fleet runs only accept fleet-level sites (crash, \
         torn-write, straggler, seg-corrupt); %s perturbs execution\n"
        (Fault_plan.key faults);
      exit 2
    end;
    let w = Cli.find_workload workload in
    let at_window = Option.value ~default:(windows / 2) drift_at in
    let cohorts =
      match Cli.split_commas cohort_specs with
      | [] ->
          [
            ("steady", Fleet.Drift.No_drift);
            ("shift", Fleet.Drift.Phase_shift { at_window; phase = 1 });
          ]
      | specs ->
          List.map
            (fun s ->
              match parse_cohort s with
              | Ok c -> c
              | Error msg ->
                  Printf.eprintf "--cohort: %s\n" msg;
                  exit 2)
            specs
    in
    let spec =
      Fleet_collector.default_spec ?size ~seed ~samples ~stride ~instances
        ~windows ~tick_shrink ~keep_raw ?retain_windows:retain ~cohorts
        ~faults w
    in
    match Fleet_collector.run ~jobs ~dir spec with
    | Error e ->
        Fmt.epr "fleet: %a@." Dcg.pp_parse_error e;
        exit 1
    | Ok r ->
        List.iter
          (fun e -> Fmt.epr "fleet: %a@." Dcg.pp_parse_error e)
          r.Fleet_collector.diags;
        Printf.printf
          "[fleet] cohorts=%d instances=%d windows=%d simulated=%d \
           skipped=%d snapshots=%d samples=%d merged=%d store_bytes=%d\n"
          r.Fleet_collector.cohorts r.Fleet_collector.instances
          r.Fleet_collector.windows r.Fleet_collector.simulated
          r.Fleet_collector.skipped r.Fleet_collector.snapshots
          r.Fleet_collector.samples_taken r.Fleet_collector.merged
          r.Fleet_collector.store_bytes;
        (match r.Fleet_collector.counts with
        | Some c when not (Fault_plan.is_empty faults) ->
            Printf.printf
              "[fleet-faults] plan=%s healed_open=%d crash=%d torn=%d \
               straggler=%d seg_corrupt=%d restarts=%d lost_instances=%d \
               writes_recovered=%d catchups=%d quarantined=%d\n"
              (Fault_plan.key faults) r.Fleet_collector.healed_open
              c.Fault_injector.instance_crash c.Fault_injector.torn_write
              c.Fault_injector.straggler c.Fault_injector.seg_corrupt
              c.Fault_injector.restarts c.Fault_injector.lost_instances
              c.Fault_injector.writes_recovered c.Fault_injector.catchups
              c.Fault_injector.seg_quarantined
        | Some _ | None -> ());
        List.iter
          (fun (cohort, window, reason) ->
            Printf.printf "[fleet-degraded] cohort=%s window=%d reason=%s\n"
              cohort window reason)
          r.Fleet_collector.degraded;
        if r.Fleet_collector.diags <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate a fleet of VM instances and ingest their windowed \
          profile snapshots into the segment store")
    Term.(
      const action $ fleet_dir_arg $ fleet_workload_arg $ Cli.size_arg $ Cli.seed_arg
      $ samples_arg $ stride_arg $ Cli.jobs_arg $ instances_arg $ windows_arg
      $ tick_shrink_arg $ drift_at_arg $ keep_raw_arg $ retain_arg
      $ cohorts_arg $ Cli.faults_arg)

let fleet_query_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Hotspots to list (default 10).")
  in
  let decay_arg =
    Arg.(
      value & opt float 0.75
      & info [ "decay" ] ~docv:"F"
          ~doc:
            "Per-window score decay: a count W windows before the newest \
             weighs $(i,F)^W.")
  in
  let folded_arg =
    Arg.(
      value & flag
      & info [ "folded" ]
          ~doc:
            "Emit folded stacks ($(b,pepsim top)'s format) instead of the \
             hotspot table.")
  in
  let action dir cohort lo hi kind top decay folded json limit =
    let segments = load_segments ~dir in
    let selected =
      Fleet_query.select segments { Fleet_query.cohort; lo; hi }
    in
    if selected = [] then begin
      Printf.eprintf "no segments match the filter\n";
      exit 2
    end;
    let v = Fleet_query.view selected in
    if folded || json then begin
      let f = Fleet_query.folded kind v in
      if json then print_string (Folded.to_json f)
      else begin
        let lines = Folded.to_lines f in
        let lines =
          match limit with
          | Some n -> List.filteri (fun i _ -> i < n) lines
          | None -> lines
        in
        List.iter print_endline lines
      end
    end
    else begin
      Printf.printf "[fleet-query] cohort=%s windows=%s segments=%d samples=%d\n"
        (Option.value ~default:"all" cohort)
        (match v.Fleet_query.span with
        | Some w -> Fleet.Window.key w
        | None -> "none")
        v.Fleet_query.segments v.Fleet_query.samples;
      List.iteri
        (fun i (label, score) ->
          Printf.printf "%3d. %12.1f  %s\n" (i + 1) score label)
        (Fleet_query.top ~decay ~n:top kind selected)
    end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer top-N hotspots or folded stacks over the stored segments")
    Term.(
      const action $ fleet_dir_arg $ fleet_cohort_arg $ fleet_from_arg
      $ fleet_to_arg $ Cli.kind_arg $ top_arg $ decay_arg $ folded_arg
      $ Cli.json_arg $ Cli.limit_arg)

let fleet_diff_cmd =
  let cohort_arg =
    Arg.(
      value & opt string "shift"
      & info [ "cohort" ] ~docv:"NAME" ~doc:"Cohort under triage.")
  in
  let baseline_cohort_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-cohort" ] ~docv:"NAME"
          ~doc:
            "Diff against this cohort over the same windows instead of \
             the cohort's own early windows.")
  in
  let split_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "split" ] ~docv:"W"
          ~doc:
            "First window of the current side for a temporal diff \
             (default: halfway).")
  in
  let action dir cohort baseline_cohort split new_share edge_shift =
    let segments = load_segments ~dir in
    let max_hi =
      List.fold_left
        (fun acc (s : Fleet_store.segment) ->
          max acc s.Fleet_store.window.Fleet.Window.hi)
        0 segments
    in
    let select c lo hi =
      Fleet_query.select segments { Fleet_query.cohort = Some c; lo; hi }
    in
    let (base_desc, base_segs), (cur_desc, cur_segs) =
      match baseline_cohort with
      | Some b ->
          ( (Fmt.str "cohort=%s" b, select b None None),
            (Fmt.str "cohort=%s" cohort, select cohort None None) )
      | None ->
          (* temporal: early windows are the baseline *)
          let split = Option.value ~default:((max_hi + 1) / 2) split in
          ( ( Fmt.str "cohort=%s win=0-%d" cohort (split - 1),
              select cohort None (Some (split - 1)) ),
            ( Fmt.str "cohort=%s win=%d-%d" cohort split max_hi,
              select cohort (Some split) None ) )
    in
    if base_segs = [] || cur_segs = [] then begin
      Printf.eprintf "diff needs segments on both sides (%s: %d, %s: %d)\n"
        base_desc (List.length base_segs) cur_desc (List.length cur_segs);
      exit 2
    end;
    let thresholds =
      { Fleet_query.default_thresholds with Fleet_query.new_share; edge_shift }
    in
    let findings =
      Fleet_query.diff ~thresholds
        ~baseline:(Fleet_query.view base_segs)
        ~current:(Fleet_query.view cur_segs) ()
    in
    Printf.printf "[fleet-diff] baseline=%s current=%s findings=%d\n" base_desc
      cur_desc (List.length findings);
    List.iter
      (fun f -> print_endline ("  " ^ Fleet_query.render_finding f))
      findings;
    if findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Triage profile drift between two time windows or cohorts; \
          exits 1 when the rules flag a regression")
    Term.(
      const action $ fleet_dir_arg $ cohort_arg $ baseline_cohort_arg
      $ split_arg $ Cli.new_share_arg $ Cli.edge_shift_arg)

let fleet_watch_cmd =
  let rules_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Alert rules file: one rule per line, $(i,NAME \
             [cohort=C] [family=F1,F2] [persist=N] [min-share=X] \
             [min-shift=X]); $(b,#) comments.  Default: one catch-all \
             rule over every cohort and finding family.")
  in
  let rule_arg =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:"Add one inline rule (repeatable; same grammar as --rules).")
  in
  let persist_arg =
    Arg.(
      value & opt int 1
      & info [ "persist" ] ~docv:"N"
          ~doc:
            "Consecutive windows a finding must hold before the default \
             rule fires (ignored when rules are given explicitly).")
  in
  let baseline_arg =
    Arg.(
      value & opt int 1
      & info [ "baseline-windows" ] ~docv:"N"
          ~doc:"Per-cohort baseline aggregate width, in windows.")
  in
  let action dir rules_file inline_rules persist baseline_windows new_share
      edge_shift =
    Cli.require_pos "persist" persist;
    Cli.require_pos "baseline-windows" baseline_windows;
    let from_file =
      match rules_file with
      | None -> []
      | Some f -> (
          match Fleet_watch.load_rules f with
          | Ok rs -> rs
          | Error m ->
              Printf.eprintf "--rules: %s\n" m;
              exit 2)
    in
    let inline =
      List.map
        (fun line ->
          match Fleet_watch.parse_rule line with
          | Ok r -> r
          | Error m ->
              Printf.eprintf "--rule: %s\n" m;
              exit 2)
        inline_rules
    in
    let rules =
      match from_file @ inline with
      | [] -> Fleet_watch.default_rules ~persist ()
      | rs -> rs
    in
    let segments = load_segments ~dir in
    let degraded = Fleet_store.load_degraded ~dir in
    let thresholds =
      { Fleet_query.default_thresholds with Fleet_query.new_share; edge_shift }
    in
    let report =
      Fleet_watch.run ~thresholds ~baseline_windows ~rules ~degraded segments
    in
    Fmt.pr "%a@." Fleet_watch.pp_report report;
    if report.Fleet_watch.alerts <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Evaluate standing alert rules over every stored window (with \
          hysteresis, dedup and degraded-data annotation); exits 1 when \
          any rule fires")
    Term.(
      const action $ fleet_dir_arg $ rules_file_arg $ rule_arg $ persist_arg
      $ baseline_arg $ Cli.new_share_arg $ Cli.edge_shift_arg)

let fleet_chaos_cmd =
  let dir_arg =
    Arg.(
      value & opt string "_fleet_chaos"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Root directory for the per-case segment stores.")
  in
  let instances_arg =
    Arg.(
      value & opt int 2
      & info [ "instances" ] ~docv:"N" ~doc:"Simulated VM instances per cohort.")
  in
  let windows_arg =
    Arg.(
      value & opt int 3
      & info [ "windows" ] ~docv:"N" ~doc:"Collection windows per instance.")
  in
  let case_arg =
    Arg.(
      value & opt_all string []
      & info [ "case" ] ~docv:"LABEL"
          ~doc:
            "Run only this curated fleet plan (repeatable, \
             comma-separable); default: all of them.")
  in
  let action dir workload size seed jobs instances windows case_labels =
    Cli.require_pos "instances" instances;
    Cli.require_pos "windows" windows;
    let cases =
      Cli.pick_cases ~what:"fleet chaos case"
        ~label:(fun (c : Exp_chaos.fleet_case) -> c.Exp_chaos.flabel)
        Exp_chaos.fleet_curated case_labels
    in
    let w = Cli.find_workload workload in
    let spec =
      Fleet_collector.default_spec ?size ~seed ~instances ~windows w
    in
    Printf.printf "fleet-chaos: seed %d, %d instances x %d windows, %d plans\n%!"
      seed instances windows (List.length cases);
    let reports = Fleet_chaos.sweep ~jobs ~cases ~dir spec in
    List.iter (fun r -> Fmt.pr "%a@." Fleet_chaos.pp_report r) reports;
    let failures =
      List.length (List.filter (fun r -> r.Fleet_chaos.violations <> []) reports)
    in
    Printf.printf "fleet-chaos: %d/%d cases clean\n"
      (List.length reports - failures)
      (List.length reports);
    if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep the curated fleet fault plans (crash, torn write, \
          straggler, segment corruption) and check byte-level recovery \
          convergence against a healthy run")
    Term.(
      const action $ dir_arg $ fleet_workload_arg $ Cli.size_arg
      $ Cli.seed_arg $ Cli.jobs_arg $ instances_arg $ windows_arg $ case_arg)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Continuous-profiling service over a simulated fleet: ingest, \
          query, diff, watch, chaos")
    [
      fleet_run_cmd;
      fleet_query_cmd;
      fleet_diff_cmd;
      fleet_watch_cmd;
      fleet_chaos_cmd;
    ]

(* --- gen ----------------------------------------------------------- *)

(* `pepsim gen` — the seeded adversarial workload generator: describe
   or emit a spec's program, run it under PEP, sweep a generated
   corpus, and measure accuracy over time under its drift schedule. *)

let gen_spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:
          "Workload spec string, e.g. \
           $(b,gen:seed=7,phases=3,mega=6,diamonds=12).  Omitted axes \
           take their defaults; $(b,gen:) alone is the default spec.")

let parse_gen_spec s =
  match Wgen.parse s with
  | Ok spec -> spec
  | Error e ->
      Printf.eprintf "%s\n" (Wgen.error_to_string e);
      exit 2

let gen_windows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "windows" ] ~docv:"N"
        ~doc:
          "Collection windows for the drift schedule (default: two per \
           phase, at least 6).")

let gen_windows spec = function
  | Some w -> w
  | None -> max 6 (2 * spec.Wgen.phases)

let gen_describe_cmd =
  let action s windows =
    let spec = parse_gen_spec s in
    let windows = gen_windows spec windows in
    let w = Wgen.workload spec in
    let program = Workload.program ~size:2 w in
    Printf.printf "spec:     %s\n" (Wgen.print spec);
    Printf.printf "axes:     %s\n" w.Workload.description;
    Printf.printf "methods:  %d (%s)\n"
      (Program.n_methods program)
      (String.concat " "
         (List.of_seq
            (Seq.map
               (fun i -> (Program.method_of_index program i).Method.name)
               (Seq.init (Program.n_methods program) Fun.id))));
    Printf.printf "schedule: %s  (shifts at %s)\n"
      (String.concat " "
         (List.map string_of_int (Wgen.schedule spec ~windows)))
      (match Wgen.shifts spec ~windows with
      | [] -> "none"
      | s -> String.concat " " (List.map string_of_int s))
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Validate a spec and show its axes, methods and drift schedule")
    Term.(const action $ gen_spec_arg $ gen_windows_arg)

let gen_emit_cmd =
  let action s out =
    let spec = parse_gen_spec s in
    let program = Workload.program (Wgen.workload spec) in
    Verify.program program;
    let pp ppf () =
      Fmt.pf ppf "; %s@." (Wgen.print spec);
      Program.iter_methods (fun _ m -> Fmt.pf ppf "%a@." Method.pp m) program
    in
    match out with
    | None -> Fmt.pr "%a" pp ()
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            Fmt.pf (Format.formatter_of_out_channel oc) "%a@?" pp ())
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Compile a spec and emit its program's bytecode listing")
    Term.(
      const action $ gen_spec_arg
      $ Cli.out_arg ~docv:"FILE" ~doc:"Write the listing to FILE (default: stdout).")

let gen_run_cmd =
  let action s size sampling seed verify =
    let spec = parse_gen_spec s in
    let w = Wgen.workload spec in
    let size = Option.value ~default:w.Workload.default_size size in
    let env = Exp_harness.make_env ~size ~seed w in
    let base = Exp_harness.replay env Exp_harness.default in
    let run =
      Exp_harness.replay env
        {
          Exp_harness.default with
          Exp_harness.profiling =
            Exp_harness.Pep_profiled
              { sampling; zero = `Hottest; numbering = `Smart };
        }
    in
    Printf.printf
      "%s (size %d): base %.2f Mcycles, %s %.2f Mcycles (%+.2f%%)\n"
      w.Workload.name size
      (float_of_int base.Exp_harness.meas.iter2 /. 1e6)
      (Sampling.name sampling)
      (float_of_int run.Exp_harness.meas.iter2 /. 1e6)
      (Exp_report.overhead ~base:base.Exp_harness.meas.iter2
         run.Exp_harness.meas.iter2);
    Option.iter (print_profiles env.Exp_harness.program) run.Exp_harness.pep;
    if verify then begin
      let diags =
        Pep_check.check_program_static env.Exp_harness.program
        @ base.Exp_harness.checks @ run.Exp_harness.checks
      in
      Fmt.pr "%a@." Pep_check.pp_report diags;
      if Pep_check.has_errors diags then exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a generated workload under PEP")
    Term.(
      const action $ gen_spec_arg $ Cli.size_arg $ Cli.sampling_arg
      $ Cli.seed_arg $ Cli.verify_arg)

let gen_accuracy_cmd =
  let threshold_arg =
    Arg.(
      value & opt float Exp_drift.default_threshold
      & info [ "threshold" ] ~docv:"F"
          ~doc:"Stale-accuracy level a post-shift window must recover to.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit 1 unless accuracy recovers after every phase shift.")
  in
  let action s windows size seed threshold strict out =
    let spec = parse_gen_spec s in
    let windows = gen_windows spec windows in
    let series = Exp_drift.run_spec ~windows ~threshold ?size ~seed spec in
    Exp_figures.print (Exp_drift.figure series);
    (match out with
    | None -> ()
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Exp_drift.to_json series);
            Out_channel.output_char oc '\n'));
    if strict && not series.Exp_drift.recovered then begin
      Printf.eprintf
        "accuracy did not recover to %.2f after every phase shift\n" threshold;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "accuracy"
       ~doc:
         "Windowed accuracy-over-time of PEP vs ground truth under the \
          spec's drift schedule")
    Term.(
      const action $ gen_spec_arg $ gen_windows_arg $ Cli.size_arg
      $ Cli.seed_arg $ threshold_arg $ strict_arg
      $ Cli.out_arg ~docv:"FILE" ~doc:"Also write the series as JSON to FILE.")

let gen_corpus_cmd =
  let n_arg =
    Arg.(
      value & opt int 20
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Corpus size (specs generated).")
  in
  let action seed n jobs size =
    let specs = Wgen.corpus ~n ~seed () in
    let envs =
      List.map
        (fun spec ->
          let w = Wgen.workload spec in
          Exp_harness.make_env
            ~size:(Option.value ~default:w.Workload.default_size size)
            ~seed w)
        specs
    in
    let config =
      {
        Exp_harness.default with
        Exp_harness.profiling = Exp_harness.pep_default;
      }
    in
    (* the warmups run here, on the main domain, before the pool *)
    List.iter (fun env -> ignore (Exp_harness.advice env)) envs;
    let runs =
      Exp_pool.map ~jobs
        (fun _sink env -> Exp_harness.replay env config)
        envs
    in
    let failed = ref false in
    List.iter2
      (fun (env : Exp_harness.env) (r : Exp_harness.run) ->
        let errors = List.length (Pep_check.errors r.Exp_harness.checks) in
        if errors > 0 then failed := true;
        Printf.printf "%s checksum=%d cycles=%d samples=%d errors=%d\n"
          env.Exp_harness.workload.Workload.name r.Exp_harness.meas.checksum
          r.Exp_harness.meas.iter2
          (match r.Exp_harness.pep with Some p -> Pep.n_samples p | None -> 0)
          errors)
      envs runs;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Replay a deterministic generated corpus under PEP and print one \
          digest line per spec (byte-identical across $(b,--jobs))")
    Term.(
      const action $ Cli.seed_arg $ n_arg $ Cli.jobs_arg $ Cli.size_arg)

let gen_cmd =
  Cmd.group
    (Cmd.info "gen"
       ~doc:
         "Seeded adversarial workload generator: describe/emit/run specs, \
          corpus sweeps, accuracy-over-time under drift")
    [ gen_describe_cmd; gen_emit_cmd; gen_run_cmd; gen_accuracy_cmd; gen_corpus_cmd ]

let list_cmd =
  let action () =
    Printf.printf "workloads:\n";
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "  %-10s (default size %5d)  %s\n" w.name w.default_size
          w.description)
      Suite.all;
    Printf.printf "\nphased workloads:\n  %s\n"
      (String.concat " "
         (List.map (fun (w : Workload.t) -> w.Workload.name) Phased.all));
    Printf.printf
      "\ngenerated workloads:\n\
      \  gen:seed=..,bias=..,..  (any workload argument; see `pepsim gen`)\n";
    Printf.printf "\nexperiments:\n  %s\n" (String.concat " " Exp_figures.ids)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List workloads and experiment ids")
    Term.(const action $ const ())

let () =
  let info =
    Cmd.info "pepsim" ~version:"1.0.0"
      ~doc:"Continuous path and edge profiling (PEP) simulator"
  in
  (* cmdliner reports CLI usage errors as 124; pepsim documents 2 for
     usage/parse errors and 1 for check/experiment failures *)
  let code =
    Cmd.eval
      (Cmd.group info
         [
           run_cmd;
           workload_cmd;
           experiments_cmd;
           trace_cmd;
           top_cmd;
           check_cmd;
           disasm_cmd;
           profiles_cmd;
           chaos_cmd;
           fleet_cmd;
          gen_cmd;
           list_cmd;
         ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
