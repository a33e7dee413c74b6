type env = {
  workload : Workload.t;
  program : Program.t;
  advice : Advice.t Lazy.t;
  cost : Cost_model.t;
  size : int;
  seed : int;
}

let advice env = Lazy.force env.advice

type measurement = { iter1 : int; iter2 : int; compile : int; checksum : int }

type profiling =
  | Base
  | Pep_profiled of {
      sampling : Sampling.config;
      zero : [ `Hottest | `Coldest ];
      numbering : [ `Smart | `Ball_larus ];
    }
  | Perfect_path
  | Perfect_edge
  | Classic_blpp
  | Instr_back_edge

let pep_default =
  Pep_profiled
    {
      sampling = Sampling.pep ~samples:64 ~stride:17;
      zero = `Hottest;
      numbering = `Smart;
    }

type config = {
  profiling : profiling;
  opt_profile : Driver.opt_profile_source;
  inline : bool;
  unroll : bool;
  deep : bool;
  engine : Driver.engine;
  telemetry : Telemetry.t option;
  faults : Fault_plan.t;
}

let default =
  {
    profiling = Base;
    opt_profile = Driver.From_baseline;
    inline = false;
    unroll = false;
    deep = false;
    engine = `Threaded;
    telemetry = None;
    faults = Fault_plan.empty;
  }

(* One fresh injector per run: decision-stream ordinals and degradation
   counts are per-run state, never shared across runs. *)
let injector_of config =
  if Fault_plan.is_empty config.faults then None
  else Some (Fault_injector.create ?telemetry:config.telemetry config.faults)

let profiling_key = function
  | Base -> "base"
  | Pep_profiled { sampling; zero; numbering } ->
      Fmt.str "%s-%s-%s" (Sampling.name sampling)
        (match zero with `Hottest -> "hot" | `Coldest -> "cold")
        (match numbering with `Smart -> "smart" | `Ball_larus -> "bl")
  | Perfect_path -> "perfect-path"
  | Perfect_edge -> "perfect-edge"
  | Classic_blpp -> "classic-blpp"
  | Instr_back_edge -> "instr-back-edge"

let config_key c =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (profiling_key c.profiling);
  (match c.opt_profile with
  | Driver.From_baseline -> ()
  | Driver.From_pep -> Buffer.add_string buf "+opt=pep"
  | Driver.Fixed table ->
      (* distinct fixed tables (e.g. continuous vs flipped) must not
         alias, so the table's content is part of the key *)
      let digest =
        Digest.to_hex
          (Digest.string (String.concat "\n" (Edge_profile.to_lines table)))
      in
      Buffer.add_string buf ("+opt=fixed:" ^ String.sub digest 0 8));
  if c.inline then Buffer.add_string buf "+inline";
  if c.unroll then Buffer.add_string buf "+unroll";
  if c.deep then Buffer.add_string buf "+deep";
  (match c.engine with
  | `Oracle -> Buffer.add_string buf "+oracle"
  | `Threaded -> Buffer.add_string buf "+v2-flat");
  (match c.telemetry with
  | Some _ -> Buffer.add_string buf "+tel"
  | None -> ());
  if not (Fault_plan.is_empty c.faults) then
    Buffer.add_string buf ("+faults=" ^ Fault_plan.key c.faults);
  Buffer.contents buf

let begin_run config name =
  match config.telemetry with
  | None -> ()
  | Some tel -> Telemetry.begin_run tel ~name

let compressed_cost ~tick_shrink =
  {
    Cost_model.default with
    Cost_model.tick_period =
      max 1 (Cost_model.default.Cost_model.tick_period / max 1 tick_shrink);
  }

(* The two-iteration adaptive run whose final decisions are the
   advice: only [config]'s engine and telemetry sink matter. *)
let warmup ?(config = default) env =
  let st = Machine.create ~cost:env.cost ~seed:env.seed env.program in
  begin_run config (Fmt.str "warmup %s" env.workload.Workload.name);
  let driver =
    Driver.create
      {
        Driver.default_options with
        engine = config.engine;
        telemetry = config.telemetry;
      }
      st
  in
  ignore (Driver.run driver);
  ignore (Driver.run driver);
  Driver.advice driver

let make_env ?(cost = Cost_model.default) ?size ?config ~seed workload =
  let size = Option.value ~default:workload.Workload.default_size size in
  let program = Workload.program ~size workload in
  Verify.program program;
  let rec env =
    { workload; program; advice = lazy (warmup ?config env); cost; size; seed }
  in
  env

type run = {
  meas : measurement;
  pep : Pep.t option;
  ppaths : Profiler.path_profiler option;
  pedges : Profiler.edge_profiler option;
  driver : Driver.t;
  faults : Fault_injector.t option;
  checks : Pep_check.diagnostic list;
}

(* Lint every profile PEP collected: the sampled edge profile (flow holds
   only approximately, so [exact:false]) and each method's path profile
   against the numbering of the plan that produced its ids.
   [expected_samples] overrides the sampler's live taken-count as the
   path-total bound — a run rebuilt from disk has a fresh sampler, so
   the count persisted alongside the profile is the bound to check. *)
let lint_pep ?expected_samples st (p : Pep.t) =
  let acc = ref [] in
  let add ds = acc := !acc @ Pep_check.with_pass "profile@pep" ds in
  let expected_total =
    match expected_samples with Some n -> n | None -> Pep.n_samples p
  in
  Array.iteri
    (fun midx ep ->
      if not (Edge_profile.is_empty ep) then
        add
          (Pep_check.lint_edge_profile ~exact:false
             (Machine.cmeth st midx).Machine.cfg ep))
    p.Pep.edges;
  Array.iteri
    (fun midx pp ->
      match p.Pep.plans.(midx) with
      | Some plan when not (Path_profile.is_empty pp) ->
          add
            (Pep_check.lint_path_profile ~expected_total
               plan.Instrument.numbering pp)
      | Some _ | None -> ())
    p.Pep.paths;
  !acc

let lint_run ?expected_samples (r : run) =
  let st = Driver.machine r.driver in
  let acc = ref (Driver.checks r.driver) in
  let add ds = acc := !acc @ ds in
  (match r.pep with
  | Some p -> add (lint_pep ?expected_samples st p)
  | None -> ());
  (match r.ppaths with
  | Some (p : Profiler.path_profiler) ->
      Array.iteri
        (fun midx pp ->
          match p.Profiler.plans.(midx) with
          | Some plan when not (Path_profile.is_empty pp) ->
              add
                (Pep_check.with_pass "profile@path"
                   (Pep_check.lint_path_profile plan.Instrument.numbering pp))
          | Some _ | None -> ())
        p.Profiler.table
  | None -> ());
  (* a transformed body shares branch ids across duplicated blocks and the
     profiler's block mapping predates the transform, so whole-run flow
     conservation is only claimed for untransformed code *)
  let exact =
    Driver.inlined_sites r.driver = 0 && Driver.unrolled_loops r.driver = 0
  in
  (match r.pedges with
  | Some (p : Profiler.edge_profiler) ->
      Array.iteri
        (fun midx ep ->
          if not (Edge_profile.is_empty ep) then
            add
              (Pep_check.with_pass "profile@edge"
                 (Pep_check.lint_edge_profile ~exact
                    (Machine.cmeth st midx).Machine.cfg ep)))
        p.Profiler.etable
  | None -> ());
  (* the one-time baseline profile stops counting at recompilation, so
     only its shape is linted *)
  Array.iteri
    (fun midx ep ->
      if not (Edge_profile.is_empty ep) then
        add
          (Pep_check.with_pass "profile@baseline"
             (Pep_check.lint_edge_profile ~exact:false
                (Machine.cmeth st midx).Machine.cfg ep)))
    (Driver.baseline_profile r.driver);
  !acc

let advice_number env midx dag = Pep.smart_number (advice env).Advice.profile midx dag

(* Restrict a profiler's plans to the methods the advice opt-compiles, so
   every configuration profiles the same method set PEP does. *)
let mask_plans env (plans : Profile_hooks.plans) =
  Array.iteri
    (fun m level -> if level < 0 then plans.(m) <- None)
    (advice env).Advice.levels

(* A [corrupt] fault models a damaged input detected at load time: the
   input is quarantined and recomputed from scratch.  Advice (and its
   DCG) is recomputed by re-running the deterministic warmup, so the
   substitute is identical to the quarantined original — measurements
   are unaffected; only host time and the [degrade.input_quarantined]
   accounting change.  The run-cache analogue lives in [Exp_cache]. *)
let quarantine_inputs env config faults =
  match faults with
  | None -> env
  | Some inj ->
      let bad_advice = Fault_injector.fire_corrupt inj ~what:"advice" in
      let bad_dcg = Fault_injector.fire_corrupt inj ~what:"dcg" in
      if not (bad_advice || bad_dcg) then env
      else begin
        let fresh = warmup ~config:{ default with engine = config.engine } env in
        if bad_advice then
          Fault_injector.note_quarantine inj ~what:"advice"
            ~reason:"corrupt advice quarantined; recomputed from warmup";
        if bad_dcg then
          Fault_injector.note_quarantine inj ~what:"dcg"
            ~reason:"corrupt DCG quarantined; recomputed from warmup";
        let advice =
          if bad_advice then fresh
          else { (advice env) with Advice.dcg = fresh.Advice.dcg }
        in
        { env with advice = Lazy.from_val advice }
      end

(* The replay-mode driver of [config] over [st].  Every replay — the
   cacheable configurations and the comparator replays alike — builds
   its driver here, so all of them share one set of options: the
   advice, [config]'s opt profile, transforms, verification (always
   on), engine and telemetry.  [config.profiling] turns PEP on
   ([Pep_profiled]) or leaves it off; the other profilers ride along as
   [extra_hooks]. *)
let replay_driver ?extra_hooks ~faults env config st =
  let pep =
    match config.profiling with
    | Pep_profiled { sampling; zero; numbering } ->
        Some { Driver.sampling; zero; numbering }
    | Base | Perfect_path | Perfect_edge | Classic_blpp | Instr_back_edge ->
        None
  in
  Driver.create ?extra_hooks
    {
      Driver.mode = Replay (advice env);
      opt_profile = config.opt_profile;
      pep;
      inline = config.inline;
      unroll = config.unroll;
      verify = true;
      deep_verify = config.deep;
      engine = config.engine;
      telemetry = config.telemetry;
      faults;
    }
    st

(* Build the machine, profilers, hooks and driver for [config] —
   everything a replay does before the first application iteration.
   Shared between [replay] (which then executes) and [rebuild] (which
   precompiles and restores persisted profiles instead of executing);
   both must construct the state identically or cached runs would not
   be bit-identical to executed ones. *)
let setup_replay ~faults env config =
  let st = Machine.create ~seed:env.seed env.program in
  let extra =
    match config.profiling with
    | Base | Pep_profiled _ -> None
    | Perfect_path ->
        let p = Profiler.perfect_path ~number:(advice_number env) st in
        mask_plans env p.Profiler.plans;
        Some (`Path p)
    | Perfect_edge -> Some (`Edge (Profiler.perfect_edge st))
    | Classic_blpp ->
        let p = Profiler.classic_blpp ~number:(advice_number env) st in
        mask_plans env p.Profiler.plans;
        Some (`Path p)
    | Instr_back_edge ->
        let plans =
          Profile_hooks.make_plans ~mode:Dag.Back_edge
            ~number:(advice_number env) st
        in
        mask_plans env plans;
        let hooks =
          Profile_hooks.path_hooks ~plans ~count_cost:`None
            ~on_path_end:(fun _ _ ~path_id:_ -> ())
            ()
        in
        Some (`Hooks hooks)
  in
  let extra_hooks =
    match extra with
    | None -> None
    | Some (`Path (p : Profiler.path_profiler)) -> Some p.hooks
    | Some (`Edge (p : Profiler.edge_profiler)) -> Some p.ehooks
    | Some (`Hooks h) -> Some h
  in
  (extra, replay_driver ?extra_hooks ~faults env config st)

let run_of_driver ~meas ~extra ~faults driver =
  {
    meas;
    pep = Driver.pep driver;
    faults;
    ppaths =
      (match extra with
      | Some (`Path p) -> Some p
      | Some (`Edge _) | Some (`Hooks _) | None -> None);
    pedges =
      (match extra with
      | Some (`Edge p) -> Some p
      | Some (`Path _) | Some (`Hooks _) | None -> None);
    driver;
    checks = [];
  }

let replay ?faults env config =
  let faults =
    match faults with Some _ as f -> f | None -> injector_of config
  in
  begin_run config
    (Fmt.str "%s %s" env.workload.Workload.name (config_key config));
  let env = quarantine_inputs env config faults in
  let extra, driver = setup_replay ~faults env config in
  let iter1, c1 = Driver.run driver in
  let iter2, c2 = Driver.run driver in
  (* the two iterations see different PRNG draws, so combine both results
     into the cross-configuration checksum *)
  let meas =
    {
      iter1;
      iter2;
      compile = Driver.compile_cycles driver;
      checksum = c1 lxor (c2 * 1_000_003);
    }
  in
  let r = run_of_driver ~meas ~extra ~faults driver in
  { r with checks = lint_run r }

(* Rebuild a replay run from a persisted payload without executing the
   application.  Replay compilation is execution-order-independent (the
   advice fixes the opt profile and the call graph), so [precompile]
   yields the same compiled bodies, plans and transform counts as the
   lazy compilation of a live run; the profile tables are then refilled
   from their rows through the [add_row] checks every reader applies
   and re-linted from scratch — nothing recorded on disk is trusted
   beyond the raw counts.  [Error reason] means the payload does not
   fit the configuration (wrong sections, rows naming no method of the
   program or holding impossible counts): callers fall back to
   executing. *)
let rebuild ?faults env config (p : Exp_store.payload) =
  let faults =
    match faults with Some _ as f -> f | None -> injector_of config
  in
  begin_run config
    (Fmt.str "cached %s %s" env.workload.Workload.name (config_key config));
  let env = quarantine_inputs env config faults in
  let extra, driver = setup_replay ~faults env config in
  Driver.precompile driver;
  let exception Bad of string in
  let paths what tbl a =
    for k = 0 to (Array.length a / 3) - 1 do
      let mi = a.(3 * k) and pid = a.((3 * k) + 1) and count = a.((3 * k) + 2) in
      match Path_profile.add_row tbl mi pid ~count with
      | Ok () -> ()
      | Error reason ->
          raise (Bad (Fmt.str "%s: %s (row %d %d %d)" what reason mi pid count))
    done
  in
  let edges what tbl a =
    for k = 0 to (Array.length a / 4) - 1 do
      let o = 4 * k in
      let mi = a.(o) and b = a.(o + 1) in
      let taken = a.(o + 2) and not_taken = a.(o + 3) in
      match Edge_profile.add_row tbl mi b ~taken ~not_taken with
      | Ok () -> ()
      | Error reason ->
          raise
            (Bad
               (Fmt.str "%s: %s (row %d %d %d %d)" what reason mi b taken
                  not_taken))
    done
  in
  let want what a =
    if Array.length a > 0 then
      raise
        (Bad (Fmt.str "payload has a %s section this configuration never collects" what))
  in
  match
    (match Driver.pep driver with
    | Some pp ->
        paths "pep.paths" pp.Pep.paths p.Exp_store.pep_paths;
        edges "pep.edges" pp.Pep.edges p.Exp_store.pep_edges
    | None ->
        want "pep.paths" p.Exp_store.pep_paths;
        want "pep.edges" p.Exp_store.pep_edges);
    (match extra with
    | Some (`Path pr) -> paths "ppaths" pr.Profiler.table p.Exp_store.ppaths
    | _ -> want "ppaths" p.Exp_store.ppaths);
    (match extra with
    | Some (`Edge pr) -> edges "pedges" pr.Profiler.etable p.Exp_store.pedges
    | _ -> want "pedges" p.Exp_store.pedges)
  with
  | () ->
      let meas =
        {
          iter1 = p.Exp_store.iter1;
          iter2 = p.Exp_store.iter2;
          compile = p.Exp_store.compile;
          checksum = p.Exp_store.checksum;
        }
      in
      let r = run_of_driver ~meas ~extra ~faults driver in
      Ok { r with checks = lint_run ~expected_samples:p.Exp_store.n_samples r }
  | exception Bad reason -> Error reason

(* A replay with one more profiler watching both iterations: [config]'s
   replay driver, its fault plan included, plus the hooks [observer]
   builds over the machine.  With [precompile] every method is compiled
   first, so the observer instruments the bodies the optimizer
   transformed rather than the original ones. *)
let observe ?(precompile = false) ~name env config observer =
  begin_run config
    (Fmt.str "%s %s %s" name env.workload.Workload.name (config_key config));
  let faults = injector_of config in
  let st = Machine.create ~seed:env.seed env.program in
  let driver, v =
    if precompile then begin
      let driver = replay_driver ~faults env config st in
      Driver.precompile driver;
      let hooks, v = observer st in
      Driver.add_hooks driver hooks;
      (driver, v)
    end
    else
      let hooks, v = observer st in
      (replay_driver ~extra_hooks:hooks ~faults env config st, v)
  in
  ignore (Driver.run driver);
  ignore (Driver.run driver);
  (driver, v)

let adaptive_total ?(config = default) ~trial env =
  (* The adaptive system needs enough timer ticks for promotion decisions
     to stabilize (the paper's runs see ~550); compress the tick period so
     the tick:execution ratio stays comparable at simulation scale. *)
  let cost = compressed_cost ~tick_shrink:4 in
  let period = cost.Cost_model.tick_period in
  (* pseudo-uniform, distinct timer phases across trials *)
  let tick_offset = 1 + (trial * 10007 * 977) mod period in
  let st = Machine.create ~cost ~tick_offset ~seed:env.seed env.program in
  begin_run config
    (Fmt.str "adaptive %s trial%d" env.workload.Workload.name trial);
  (* [Pep_profiled] turns on PEP and lets it drive optimization (paper
     Fig. 11); any other profiling value runs the plain adaptive system.
     [inline]/[unroll]/[opt_profile] are fixed by the methodology and
     ignored here. *)
  let pep, opt_profile =
    match config.profiling with
    | Pep_profiled { sampling; zero; numbering } ->
        (Some { Driver.sampling; zero; numbering }, Driver.From_pep)
    | Base | Perfect_path | Perfect_edge | Classic_blpp | Instr_back_edge ->
        (None, Driver.From_baseline)
  in
  let driver =
    Driver.create
      {
        Driver.default_options with
        opt_profile;
        pep;
        deep_verify = config.deep;
        engine = config.engine;
        telemetry = config.telemetry;
        faults = injector_of config;
      }
      st
  in
  let a, _ = Driver.run driver in
  let b, _ = Driver.run driver in
  a + b

let check_consistent = function
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun r ->
          if r.meas.checksum <> first.meas.checksum then
            failwith "profiling configuration changed application behaviour")
        rest
