type opt_profile_source =
  | From_baseline
  | Fixed of Edge_profile.table
  | From_pep

type pep_opts = {
  sampling : Sampling.config;
  zero : [ `Hottest | `Coldest ];
  numbering : [ `Smart | `Ball_larus ];
}

type mode = Adaptive of { thresholds : int array } | Replay of Advice.t
type engine = [ `Oracle | `Threaded ]

type options = {
  mode : mode;
  opt_profile : opt_profile_source;
  pep : pep_opts option;
  inline : bool;  (* inline small/hot callees *)
  unroll : bool;  (* unroll small innermost loops at opt levels >= 1 *)
  verify : bool;  (* re-verify bytecode after every optimization pass *)
  deep_verify : bool;  (* also run the dataflow lints on every compiled body *)
  engine : engine;  (* flat threaded code by default; interp oracle *)
  telemetry : Telemetry.t option;  (* host-side metrics/trace sink *)
  faults : Fault_injector.t option;  (* deterministic fault injection *)
}

let default_thresholds = [| 3; 12; 40 |]

let default_options =
  {
    mode = Adaptive { thresholds = default_thresholds };
    opt_profile = From_baseline;
    pep = None;
    inline = false;
    unroll = false;
    verify = true;
    deep_verify = false;
    engine = `Threaded;
    telemetry = None;
    faults = None;
  }

(* Trivial inlining takes any tiny callee; profile-guided inlining takes
   mid-size callees the sampled call graph has seen at this caller. *)
let trivial_inline_size = 25
let guided_inline_size = 60

type compile_state = Uncompiled | Baseline | Opt of int

(* Driver-level telemetry.  All recording here is host-side — nothing
   below touches simulated cycles — so a run with a sink attached
   charges exactly the cycles of a run without one. *)
type tstats = {
  tel : Telemetry.t;
  polls : Metrics.counter;
  ticks : Metrics.counter;
  compile_baseline_n : Metrics.counter;
  compile_opt_n : Metrics.counter array;  (* per opt level *)
  recompile_n : Metrics.counter array;  (* per opt level *)
  compile_units : Metrics.histogram;
  compile_cycles_g : Metrics.gauge;
  check_errors : Metrics.counter;
  check_warnings : Metrics.counter;
  plan_unprofilable : Metrics.counter;
  transval_ok : Metrics.counter;
  transval_rejected : Metrics.counter;
  deep_methods : Metrics.counter;
}

type t = {
  st : Machine.t;
  opts : options;
  states : compile_state array;
  baseline_profile : Edge_profile.table;
  baseline_active : bool array;
  samples : int array;
  dcg : Dcg.t;
  pep_state : Pep.t option;
  (* compile-fail degradation state: consecutive failed opt-compile
     attempts per method, and the virtual cycle before which the driver
     must not retry (max_int once it has given up) *)
  fault_attempts : int array;
  fault_retry_at : int array;
  mutable compile_cycles : int;
  mutable recompilations : int;
  mutable inlined_sites : int;
  mutable unrolled_loops : int;
  mutable checks : Pep_check.diagnostic list;  (* newest first *)
  mutable hooks : Interp.hooks;
  eng : Codegen.t;
  tstats : tstats option;
  mutable iterations : int;  (* completed [run] calls, for trace labels *)
}

let record_checks d ds =
  (match d.tstats with
  | None -> ()
  | Some s ->
      List.iter
        (fun (diag : Pep_check.diagnostic) ->
          match diag.Pep_check.severity with
          | Pep_check.Error -> Metrics.incr s.check_errors
          | Pep_check.Warning -> Metrics.incr s.check_warnings
          | Pep_check.Info -> ())
        ds);
  d.checks <- List.rev_append ds d.checks

(* Re-verify a method body right after an optimization pass produced it,
   so a miscompile is caught at the pass that introduced it. *)
let verify_body d ~stage (meth : Method.t) =
  if d.opts.verify then
    record_checks d
      (Pep_check.with_pass ("bytecode@" ^ stage)
         (Pep_check.verify_method d.st.Machine.program meth))

(* Translation validation: check a transform's output against its input
   via the witness it emitted.  Gated on [verify] like [verify_body] —
   the dataflow passes below are the [deep_verify] extra. *)
let record_transval d ~stage ds =
  let ds = Pep_check.with_pass ("transval@" ^ stage) ds in
  (match d.tstats with
  | None -> ()
  | Some s ->
      if Pep_check.has_errors ds then Metrics.incr s.transval_rejected
      else Metrics.incr s.transval_ok);
  record_checks d ds

let validate_inline_body d ~source ~witness meth =
  if d.opts.verify then
    record_transval d ~stage:"inline"
      (Pep_check.validate_inline d.st.Machine.program ~source ~witness meth)

let validate_unroll_body d ~source ~witness meth =
  if d.opts.verify then
    record_transval d ~stage:"unroll"
      (Pep_check.validate_unroll ~source ~witness meth)

(* Deep verification of the body the machine actually compiled: dataflow
   lints plus an independent justification of the unchecked array
   operations the threaded engine emits, against the exact [max_stack]
   bound the compiled method carries. *)
let deep_verify_body d midx (cm : Machine.cmeth) =
  if d.opts.deep_verify then begin
    let p = d.st.Machine.program in
    let meth = cm.Machine.meth in
    (match d.tstats with
    | None -> ()
    | Some s -> Metrics.incr s.deep_methods);
    record_checks d (Pep_check.lint_liveness meth);
    record_checks d (Pep_check.lint_intervals p meth);
    record_checks d
      (Pep_check.justify_unsafe p ~max_stack:cm.Machine.max_stack meth);
    (* the fusion table the engine compiles for this body, validated
       against an independent effect/pattern derivation *)
    record_checks d
      (Pep_check.validate_fusion ~witness:(Codegen.fusion_witness d.eng midx)
         meth)
  end

let charge_compile d cycles =
  d.compile_cycles <- d.compile_cycles + cycles;
  Machine.add_cycles d.st cycles

(* Compile-cost unit: bytecode instructions plus one per block for the
   terminator. *)
let method_units (m : Method.t) = Method.size m + Array.length m.blocks

(* Both compilers call [Machine.set_speed] before they touch
   [baseline_active] or the PEP plans: those are hook sites, and a
   layer's sites may change only together with a generation bump of the
   method (see [Interp]), which makes the engine re-mark the method's
   transfers. *)
let compile_baseline d midx =
  let cm = Machine.cmeth d.st midx in
  let cost = d.st.Machine.cost in
  if cm.meth.Method.uninterruptible then begin
    (* uninterruptible methods model VM-internal code: precompiled at full
       speed, never instrumented, never recompiled *)
    Machine.set_speed d.st midx ~percent:100;
    Machine.clear_edge_extra d.st midx;
    d.baseline_active.(midx) <- false
  end
  else begin
    let ts = d.st.Machine.cycles in
    let units = method_units cm.meth in
    charge_compile d (units * cost.Cost_model.compile_cost_baseline);
    Machine.set_speed d.st midx
      ~percent:(100 * cost.Cost_model.baseline_slowdown);
    Machine.clear_edge_extra d.st midx;
    d.baseline_active.(midx) <- true;
    match d.tstats with
    | None -> ()
    | Some s ->
        Metrics.incr s.compile_baseline_n;
        Metrics.observe s.compile_units units;
        Metrics.set s.compile_cycles_g d.compile_cycles;
        let mname = cm.meth.Method.name in
        Telemetry.span s.tel ~ts ~dur:(d.st.Machine.cycles - ts) ~cat:"compile"
          ~name:("baseline " ^ mname)
          ~args:[ ("method", mname); ("units", string_of_int units) ]
          ();
        Telemetry.instant s.tel ~ts:d.st.Machine.cycles ~cat:"phase"
          ~name:"set_speed"
          ~args:
            [
              ("method", mname);
              ( "percent",
                string_of_int (100 * cost.Cost_model.baseline_slowdown) );
            ]
          ()
  end;
  d.states.(midx) <- Baseline

let opt_profile_for d midx : Edge_profile.t =
  match d.opts.opt_profile with
  | From_baseline -> (
      (* in replay mode the one-time profile comes with the advice, since
         replayed methods skip the baseline-profiling phase *)
      match d.opts.mode with
      | Replay advice -> advice.Advice.profile.(midx)
      | Adaptive _ -> d.baseline_profile.(midx))
  | Fixed table -> table.(midx)
  | From_pep -> (
      match d.pep_state with
      | Some p when not (Edge_profile.is_empty p.Pep.edges.(midx)) ->
          p.Pep.edges.(midx)
      | Some _ | None -> d.baseline_profile.(midx))

let dcg_for d =
  match d.opts.mode with Replay advice -> advice.Advice.dcg | Adaptive _ -> d.dcg

(* Body transformations applied by the optimizing compiler.  Always
   expanded from the pristine bytecode: recompiling an already-transformed
   body would compound copies at every promotion. *)
let apply_transforms d midx ~level =
  let top_level = Array.length d.st.Machine.cost.Cost_model.compile_cost_opt - 1 in
  if d.opts.inline || (d.opts.unroll && level >= 1) then begin
    let pristine = Program.method_of_index d.st.Machine.program midx in
    let meth, no_yieldpoint, inlined_sites =
      if d.opts.inline then begin
        let dcg = dcg_for d in
        (* trivial inlining at every opt level; profile-guided
           (call-graph driven) inlining of larger callees at the top *)
        let should_inline (callee : Method.t) =
          Method.size callee <= trivial_inline_size
          || level >= top_level
             && Method.size callee <= guided_inline_size
             && Dcg.weight dcg ~caller:midx
                  ~callee:(Machine.index d.st callee.Method.name)
                >= 2
        in
        let r = Inline.expand d.st.Machine.program pristine ~should_inline in
        let meth = r.Inline.meth in
        verify_body d ~stage:"inline" meth;
        validate_inline_body d ~source:pristine ~witness:r.Inline.witness meth;
        ( meth,
          r.Inline.no_yieldpoint,
          List.fold_left (fun acc (_, n) -> acc + n) 0 r.Inline.inlined )
      end
      else (pristine, Array.make (Array.length pristine.Method.blocks) false, 0)
    in
    let meth, no_yieldpoint, unrolled =
      if d.opts.unroll && level >= 1 then begin
        let r = Unroll.expand ~no_yieldpoint meth in
        verify_body d ~stage:"unroll" r.Unroll.meth;
        validate_unroll_body d ~source:meth ~witness:r.Unroll.witness
          r.Unroll.meth;
        (r.Unroll.meth, r.Unroll.no_yieldpoint, r.Unroll.unrolled)
      end
      else (meth, no_yieldpoint, 0)
    in
    if inlined_sites > 0 || unrolled > 0 then begin
      d.inlined_sites <- d.inlined_sites + inlined_sites;
      d.unrolled_loops <- d.unrolled_loops + unrolled;
      Machine.recompile d.st midx ~no_yieldpoint meth
    end
  end

let do_compile_opt d midx ~level =
  let ts = d.st.Machine.cycles in
  apply_transforms d midx ~level;
  let cm = Machine.cmeth d.st midx in
  let cost = d.st.Machine.cost in
  let pep_pass_units =
    match d.opts.pep with
    | Some _ -> Array.length cm.meth.Method.blocks * cost.Cost_model.pep_pass_cost
    | None -> 0
  in
  charge_compile d
    ((method_units cm.meth * cost.Cost_model.compile_cost_opt.(level))
    + pep_pass_units);
  Machine.set_speed d.st midx ~percent:cost.Cost_model.opt_speedup_percent.(level);
  d.baseline_active.(midx) <- false;
  let profile = opt_profile_for d midx in
  let lay = Layout.compute cm.cfg profile in
  Layout.apply d.st midx lay;
  verify_body d ~stage:"layout" (Machine.cmeth d.st midx).Machine.meth;
  (if d.opts.verify then
     let cm = Machine.cmeth d.st midx in
     record_transval d ~stage:"layout"
       (Pep_check.validate_layout cm.Machine.cfg ~pos:(Layout.positions lay)
          ~predict_taken:(Layout.predicted lay)
          ~edge_extra:(fun b idx -> cm.Machine.edge_extra.(b).(idx))
          ~taken_penalty:cost.Cost_model.taken_branch_penalty
          ~mispredict_penalty:cost.Cost_model.mispredict_penalty));
  deep_verify_body d midx (Machine.cmeth d.st midx);
  (match (d.pep_state, d.opts.pep) with
  | Some p, Some popts ->
      let number _ dag =
        match popts.numbering with
        | `Smart -> Pep.smart_number_profile ~zero:popts.zero profile dag
        | `Ball_larus -> Numbering.ball_larus dag
      in
      let mname = cm.Machine.meth.Method.name in
      let unprofilable fmt =
        Fmt.kstr
          (fun message ->
            (match d.tstats with
            | None -> ()
            | Some s ->
                Metrics.incr s.plan_unprofilable;
                Telemetry.instant s.tel ~ts:d.st.Machine.cycles ~cat:"plan"
                  ~name:"unprofilable"
                  ~args:[ ("method", mname); ("reason", message) ]
                  ());
            record_checks d
              [
                {
                  Pep_check.severity = Pep_check.Warning;
                  pass = "plan";
                  loc = Pep_check.Method_loc mname;
                  message;
                };
              ])
          fmt
      in
      (match Profile_hooks.plan_outcome ~mode:Dag.Loop_header ~number d.st midx with
      | Profile_hooks.Planned plan -> p.Pep.plans.(midx) <- Some plan
      | Profile_hooks.Uninterruptible -> p.Pep.plans.(midx) <- None
      | Profile_hooks.Too_many_paths { n_paths; limit } ->
          p.Pep.plans.(midx) <- None;
          unprofilable "unprofilable: %d paths exceed the limit %d" n_paths
            limit
      | Profile_hooks.Truncation_unsupported msg ->
          p.Pep.plans.(midx) <- None;
          unprofilable "unprofilable: truncation unsupported (%s)" msg);
      (* path ids change with the numbering; drop stale entries *)
      Path_profile.clear p.Pep.paths.(midx)
  | _ -> ());
  let is_recompile =
    match d.states.(midx) with
    | Opt _ -> true
    | Uncompiled | Baseline -> false
  in
  if is_recompile then d.recompilations <- d.recompilations + 1;
  d.states.(midx) <- Opt level;
  match d.tstats with
  | None -> ()
  | Some s ->
      let units = method_units cm.meth in
      Metrics.incr s.compile_opt_n.(level);
      if is_recompile then Metrics.incr s.recompile_n.(level);
      Metrics.observe s.compile_units units;
      Metrics.set s.compile_cycles_g d.compile_cycles;
      let mname = cm.meth.Method.name in
      Telemetry.span s.tel ~ts ~dur:(d.st.Machine.cycles - ts) ~cat:"compile"
        ~name:(Fmt.str "%s%d %s" (if is_recompile then "recompile" else "opt") level mname)
        ~args:
          [
            ("method", mname);
            ("level", string_of_int level);
            ("units", string_of_int units);
          ]
        ();
      Telemetry.instant s.tel ~ts:d.st.Machine.cycles ~cat:"phase"
        ~name:"set_speed"
        ~args:
          [
            ("method", mname);
            ( "percent",
              string_of_int cost.Cost_model.opt_speedup_percent.(level) );
          ]
        ()

(* Optimizing compilation through the fault gate.  A [compile-fail]
   fault burns the compile budget but leaves the method at its current
   tier; the driver re-queues it with virtual-cycle exponential backoff
   (retry_at = now + backoff * 2^(attempt-1)) and gives up for good
   after [compile-retries] consecutive failures.  A successful compile
   resets the attempt count. *)
let fail_compile d inj midx ~level =
  let cm = Machine.cmeth d.st midx in
  let cost = d.st.Machine.cost in
  (* the aborted compile still burned its budget *)
  charge_compile d
    (method_units cm.Machine.meth * cost.Cost_model.compile_cost_opt.(level));
  let attempt = d.fault_attempts.(midx) + 1 in
  d.fault_attempts.(midx) <- attempt;
  let plan = Fault_injector.plan inj in
  let mname = cm.Machine.meth.Method.name in
  if attempt > plan.Fault_plan.compile_retries then begin
    d.fault_retry_at.(midx) <- max_int;
    Fault_injector.note_gaveup inj ~ts:d.st.Machine.cycles ~meth:mname
  end
  else begin
    let backoff = plan.Fault_plan.compile_backoff * (1 lsl (attempt - 1)) in
    let until = d.st.Machine.cycles + backoff in
    d.fault_retry_at.(midx) <- until;
    Fault_injector.note_backoff inj ~ts:d.st.Machine.cycles ~meth:mname ~until
      ~attempt
  end

let compile_opt d midx ~level =
  match d.opts.faults with
  | Some inj
    when Fault_injector.fire_compile_fail inj ~ts:d.st.Machine.cycles
           ~meth:(Machine.cmeth d.st midx).Machine.meth.Method.name ->
      fail_compile d inj midx ~level
  | Some _ | None ->
      do_compile_opt d midx ~level;
      d.fault_attempts.(midx) <- 0;
      d.fault_retry_at.(midx) <- 0

let ensure_compiled d midx =
  match d.states.(midx) with
  | Baseline | Opt _ -> ()
  | Uncompiled -> (
      match d.opts.mode with
      | Adaptive _ -> compile_baseline d midx
      | Replay advice ->
          let level = advice.Advice.levels.(midx) in
          if level < 0 then compile_baseline d midx
          else begin
            compile_baseline d midx;
            compile_opt d midx ~level
          end)

let consider_promotion d midx =
  match d.opts.mode with
  | Replay _ -> ()
  | Adaptive { thresholds } ->
      let next_level =
        match d.states.(midx) with
        | Uncompiled | Baseline -> 0
        | Opt l -> l + 1
      in
      if
        next_level < Array.length thresholds
        && d.samples.(midx) >= thresholds.(next_level)
        && d.st.Machine.cycles >= d.fault_retry_at.(midx)
        && not (Machine.cmeth d.st midx).meth.Method.uninterruptible
      then compile_opt d midx ~level:next_level

(* Replay mode has no promotion path, so a method whose advised compile
   failed is retried from the tick hook once its backoff expires. *)
let maybe_retry_replay d advice midx =
  if
    d.fault_attempts.(midx) > 0
    && d.fault_retry_at.(midx) <> max_int
    && d.st.Machine.cycles >= d.fault_retry_at.(midx)
  then begin
    match d.states.(midx) with
    | Baseline when advice.Advice.levels.(midx) >= 0 ->
        compile_opt d midx ~level:advice.Advice.levels.(midx)
    | Uncompiled | Baseline | Opt _ -> ()
  end

let create ?(extra_hooks = []) opts st =
  let n_methods = Array.length st.Machine.methods in
  let n_levels = Array.length st.Machine.cost.Cost_model.compile_cost_opt in
  let tstats =
    match opts.telemetry with
    | None -> None
    | Some tel ->
        let m = Telemetry.metrics tel in
        Some
          {
            tel;
            polls = Metrics.counter m "vm.yieldpoint.polls";
            ticks = Metrics.counter m "vm.ticks";
            compile_baseline_n = Metrics.counter m "vm.compile.baseline";
            compile_opt_n =
              Array.init n_levels (fun l ->
                  Metrics.counter m (Fmt.str "vm.compile.opt.l%d" l));
            recompile_n =
              Array.init n_levels (fun l ->
                  Metrics.counter m (Fmt.str "vm.recompile.l%d" l));
            compile_units =
              Metrics.histogram
                ~bounds:[| 8; 16; 32; 64; 128; 256; 512; 1024; 2048 |]
                m "vm.compile.units";
            compile_cycles_g = Metrics.gauge m "vm.compile.cycles";
            check_errors = Metrics.counter m "vm.check.errors";
            check_warnings = Metrics.counter m "vm.check.warnings";
            plan_unprofilable = Metrics.counter m "vm.plan.unprofilable";
            transval_ok = Metrics.counter m "vm.check.transval.validated";
            transval_rejected = Metrics.counter m "vm.check.transval.rejected";
            deep_methods = Metrics.counter m "vm.check.deep.methods";
          }
  in
  let pep_state =
    match opts.pep with
    | Some popts ->
        Some
          (Pep.create ?telemetry:opts.telemetry ?faults:opts.faults
             ~eager:false ~sampling:popts.sampling st)
    | None -> None
  in
  let d =
    {
      st;
      opts;
      states = Array.make n_methods Uncompiled;
      baseline_profile = Edge_profile.create_table ~n_methods;
      baseline_active = Array.make n_methods false;
      samples = Array.make n_methods 0;
      dcg = Dcg.create ();
      pep_state;
      fault_attempts = Array.make n_methods 0;
      fault_retry_at = Array.make n_methods 0;
      compile_cycles = 0;
      recompilations = 0;
      inlined_sites = 0;
      unrolled_loops = 0;
      checks = [];
      hooks = Interp.no_hooks;
      eng = Codegen.create ?telemetry:opts.telemetry st;
      tstats;
      iterations = 0;
    }
  in
  let tick_hooks =
    Tick.hooks
      ~on_tick:(fun _st (frame : Interp.frame) ->
        (match d.tstats with Some s -> Metrics.incr s.ticks | None -> ());
        d.samples.(frame.fmeth) <- d.samples.(frame.fmeth) + 1;
        Dcg.record d.dcg ~caller:frame.fparent ~callee:frame.fmeth;
        (match d.opts.mode with
        | Replay advice when Option.is_some d.opts.faults ->
            maybe_retry_replay d advice frame.fmeth
        | Replay _ | Adaptive _ -> ());
        consider_promotion d frame.fmeth)
      ()
  in
  let lazy_compile =
    {
      Interp.layer with
      on_entry = Some (fun _st (frame : Interp.frame) -> ensure_compiled d frame.fmeth);
    }
  in
  let branch_of = Profile_hooks.branch_table st in
  (* Baseline code counts its branch edges.  [baseline_active] is part
     of the site, so it changes only right after a [set_speed] of the
     method ([compile_baseline], [do_compile_opt]); baseline bodies are
     never transformed, so [branch_of] describes them. *)
  let baseline_edge =
    {
      Interp.layer with
      on_edge =
        Some
          (fun st (frame : Interp.frame) ~src ~idx ~dst:_ ->
            if d.baseline_active.(frame.fmeth) then begin
              let br = branch_of.(frame.fmeth).(src) in
              if br >= 0 then begin
                Edge_profile.incr d.baseline_profile.(frame.fmeth) br
                  ~taken:(idx = 0);
                Machine.add_cycles st st.Machine.cost.Cost_model.edge_count
              end
            end);
      edge_site =
        Some
          (fun meth ~src ~idx:_ ->
            d.baseline_active.(meth) && branch_of.(meth).(src) >= 0);
    }
  in
  (* The yieldpoint-poll counter rides along as one more layer.  An
     [on_yieldpoint] closure makes every transfer into a yieldpoint an
     observed one, so only telemetry-enabled runs pay for it; without
     it a run observes nothing but the tick (inline at the poll) and the
     baseline counter's edges, and runs PEP's register updates and path
     ends lowered ([Interp.layer.path]). *)
  let polls =
    match d.tstats with
    | Some s ->
        [
          {
            Interp.layer with
            on_yieldpoint = Some (fun _st _frame _blk -> Metrics.incr s.polls);
          };
        ]
    | None -> []
  in
  let hooks =
    tick_hooks
    @ [ lazy_compile; baseline_edge ]
    @ (match pep_state with Some p -> p.Pep.hooks | None -> [])
    @ extra_hooks
    @ polls
  in
  d.hooks <- hooks;
  Codegen.set_hooks d.eng hooks;
  d

let run d =
  let before = d.st.Machine.cycles in
  let result =
    match d.opts.engine with
    | `Threaded -> Codegen.run d.eng
    | `Oracle -> Interp.run d.hooks d.st
  in
  let dur = d.st.Machine.cycles - before in
  (match d.tstats with
  | None -> ()
  | Some s ->
      d.iterations <- d.iterations + 1;
      Telemetry.span s.tel ~ts:before ~dur ~cat:"run" ~name:"iteration"
        ~args:[ ("i", string_of_int d.iterations) ]
        ());
  (dur, result)

let machine d = d.st
let pep d = d.pep_state
let compile_cycles d = d.compile_cycles
let recompilations d = d.recompilations
let baseline_profile d = d.baseline_profile

let advice d =
  let levels =
    Array.map
      (function Uncompiled | Baseline -> -1 | Opt l -> l)
      d.states
  in
  {
    Advice.levels;
    profile = Edge_profile.copy_table d.baseline_profile;
    dcg = Dcg.copy d.dcg;
  }

let method_samples d = Array.copy d.samples
let dcg d = d.dcg
let inlined_sites d = d.inlined_sites
let unrolled_loops d = d.unrolled_loops
let checks d = List.rev d.checks
let add_hooks d h =
  d.hooks <- d.hooks @ h;
  Codegen.set_hooks d.eng d.hooks

let hooks d = d.hooks
let engine d = d.eng

let precompile d =
  Program.iter_methods (fun midx _ -> ensure_compiled d midx) d.st.Machine.program
