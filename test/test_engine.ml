(* Differential testing of the closure-threaded engine (Codegen) against
   the interpreter oracle (Interp), plus the engine-specific contracts:
   inline-cache invalidation on recompile/set_speed, hook specialization,
   every hook producer's edge-site declaration, and steady-state
   allocation behaviour. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let csl = Alcotest.(list string)

(* ------------------------- differential suite ------------------------- *)

let pep_profiling =
  Exp_harness.Pep_profiled
    {
      sampling = Sampling.pep ~samples:64 ~stride:17;
      zero = `Hottest;
      numbering = `Smart;
    }

let with_engine engine config = { config with Exp_harness.engine }
let cfg profiling = { Exp_harness.default with Exp_harness.profiling }

let transformed config = { config with Exp_harness.inline = true; unroll = true }

(* Every hook producer a replay can attach: the driver's own layers
   (tick, lazy compile, baseline counter, PEP) and each profiler.  The
   oracle calls [on_edge] on every edge while the flat engine consults
   it only where a layer declares a site, so agreement here checks each
   producer's [edge_site]. *)
let configs =
  [
    ("Base", cfg Exp_harness.Base);
    ("Pep_profiled", cfg pep_profiling);
    ("Perfect_path", cfg Exp_harness.Perfect_path);
    ("Perfect_edge", cfg Exp_harness.Perfect_edge);
    ("Perfect_edge+inline+unroll", transformed (cfg Exp_harness.Perfect_edge));
    ("Classic_blpp", cfg Exp_harness.Classic_blpp);
    ("Instr_back_edge", cfg Exp_harness.Instr_back_edge);
  ]

let meas_pp ppf (m : Exp_harness.measurement) =
  Fmt.pf ppf "{iter1=%d; iter2=%d; compile=%d; checksum=%d}" m.iter1 m.iter2
    m.compile m.checksum

let meas : Exp_harness.measurement Alcotest.testable =
  Alcotest.testable meas_pp ( = )

(* Every observable of a run: the measurement and every collected
   profile, serialized.  Two engines must agree on all of it. *)
let observables (r : Exp_harness.run) =
  let profile_lines =
    (match r.pep with
    | Some p ->
        Path_profile.to_lines p.Pep.paths @ Edge_profile.to_lines p.Pep.edges
    | None -> [])
    @ (match r.ppaths with
      | Some p -> Path_profile.to_lines p.Profiler.table
      | None -> [])
    @ (match r.pedges with
      | Some p -> Edge_profile.to_lines p.Profiler.etable
      | None -> [])
    @ Edge_profile.to_lines (Driver.baseline_profile r.driver)
  in
  (r.meas, profile_lines)

(* Oracle-vs-threaded differential over an arbitrary workload (the
   wgen suite reuses this for generated specs). *)
let diff_of ?(seed = 11) (w : Workload.t) () =
  let name = w.Workload.name in
  let size = max 4 (min 30 w.Workload.default_size) in
  let env = Exp_harness.make_env ~size ~seed w in
  List.iter
    (fun (cname, config) ->
      let oracle = Exp_harness.replay env (with_engine `Oracle config) in
      let threaded = Exp_harness.replay env (with_engine `Threaded config) in
      let om, op = observables oracle and tm, tp = observables threaded in
      check meas (name ^ "/" ^ cname ^ " measurement") om tm;
      check csl (name ^ "/" ^ cname ^ " profiles") op tp)
    configs

let diff_workload name = diff_of (Suite.find name)

(* The adaptive system promotes methods mid-execution (set_speed and
   recompilation from a timer-tick hook while frames of the method are
   live); both engines must agree there too, including on the advice the
   warmup produces. *)
let test_adaptive_differential () =
  List.iter
    (fun name ->
      let w = Suite.find name in
      let size = max 4 (min 25 w.Workload.default_size) in
      let oenv =
        Exp_harness.make_env
          ~config:(with_engine `Oracle Exp_harness.default)
          ~size ~seed:5 w
      in
      let tenv =
        Exp_harness.make_env
          ~config:(with_engine `Threaded Exp_harness.default)
          ~size ~seed:5 w
      in
      check
        Alcotest.(array int)
        (name ^ " advice levels") oenv.advice.Advice.levels
        tenv.advice.Advice.levels;
      check csl (name ^ " advice profile")
        (Edge_profile.to_lines oenv.advice.Advice.profile)
        (Edge_profile.to_lines tenv.advice.Advice.profile);
      List.iter
        (fun (label, profiling) ->
          check ci
            (Fmt.str "%s adaptive total (%s)" name label)
            (Exp_harness.adaptive_total
               ~config:(with_engine `Oracle (cfg profiling))
               ~trial:3 oenv)
            (Exp_harness.adaptive_total
               ~config:(with_engine `Threaded (cfg profiling))
               ~trial:3 tenv))
        [ ("plain", Exp_harness.Base); ("pep", pep_profiling) ])
    [ "compress"; "jython" ]

(* Body transformations (inlining, unrolling) recompile methods into
   fresh compiled forms; the engine must pick up the new bodies. *)
let test_transform_differential () =
  List.iter
    (fun name ->
      let w = Suite.find name in
      let size = max 4 (min 25 w.Workload.default_size) in
      let env = Exp_harness.make_env ~size ~seed:7 w in
      let transformed engine =
        {
          (cfg pep_profiling) with
          Exp_harness.inline = true;
          unroll = true;
          engine;
        }
      in
      let oracle = Exp_harness.replay env (transformed `Oracle) in
      let threaded = Exp_harness.replay env (transformed `Threaded) in
      let om, op = observables oracle and tm, tp = observables threaded in
      check meas (name ^ " transformed measurement") om tm;
      check csl (name ^ " transformed profiles") op tp)
    [ "db"; "pmd" ]

(* A failed optimizing compile is retried from the tick hook once its
   backoff expires, so under inline+unroll the retry recompiles a method
   into a larger body while frames of it may be live: those frames must
   finish on the hooked path, and the new body's sites must be the ones
   its layers act on. *)
let test_faulted_transform_differential () =
  let retried = ref 0 in
  List.iter
    (fun name ->
      let w = Suite.find name in
      let size = max 4 (min 25 w.Workload.default_size) in
      let env = Exp_harness.make_env ~size ~seed:7 w in
      List.iter
        (fun fseed ->
          let faults =
            Fault_plan.parse_exn (Fmt.str "seed=%d,compile-fail=0.5" fseed)
          in
          let faulted engine : Exp_harness.config =
            { (transformed (cfg pep_profiling)) with faults; engine }
          in
          let oracle = Exp_harness.replay env (faulted `Oracle) in
          let threaded = Exp_harness.replay env (faulted `Threaded) in
          let label = Fmt.str "%s faulted seed=%d" name fseed in
          let om, op = observables oracle and tm, tp = observables threaded in
          check meas (label ^ " measurement") om tm;
          check csl (label ^ " profiles") op tp;
          match threaded.Exp_harness.faults with
          | Some inj ->
              let c = Fault_injector.counts inj in
              if c.Fault_injector.backoffs > 0 && Driver.inlined_sites threaded.driver > 0
              then incr retried
          | None -> ())
        [ 1; 2; 3 ])
    [ "jess"; "db"; "pmd" ];
  check cb "some compile retried under inline+unroll" true (!retried > 0)

(* Exp_drift's collection instance: a replay with PEP whose masked
   perfect path profiler (the ground truth) is attached by
   [Driver.add_hooks] after [Driver.precompile], then driven through
   windows with the phase global changing between them. *)
let test_drift_truth_differential () =
  let w = Option.get (Phased.find "drift") in
  let size = 20 in
  let env = Exp_harness.make_env ~size ~seed:3 w in
  let collect engine =
    let st = Machine.create ~seed:4 env.program in
    let driver =
      Driver.create
        {
          Driver.default_options with
          Driver.mode = Driver.Replay env.advice;
          pep =
            Some
              {
                Driver.sampling = Sampling.pep ~samples:64 ~stride:17;
                zero = `Hottest;
                numbering = `Smart;
              };
          verify = false;
          engine;
        }
        st
    in
    Driver.precompile driver;
    let truth =
      Profiler.perfect_path ~number:(Exp_harness.advice_number env) st
    in
    Exp_harness.mask_plans env truth.Profiler.plans;
    Driver.add_hooks driver truth.Profiler.hooks;
    let windows =
      List.map
        (fun phase ->
          if Array.length st.Machine.globals > Phased.phase_global then
            st.Machine.globals.(Phased.phase_global) <- phase;
          fst (Driver.run driver))
        [ 0; 0; 1; 2; 1 ]
    in
    let pep = Option.get (Driver.pep driver) in
    ( windows,
      Path_profile.to_lines truth.Profiler.table
      @ Path_profile.to_lines pep.Pep.paths
      @ Edge_profile.to_lines pep.Pep.edges )
  in
  let ow, op = collect `Oracle and tw, tp = collect `Threaded in
  check Alcotest.(list int) "window cycles" ow tw;
  check csl "truth and PEP profiles" op tp;
  check cb "truth collected" true (op <> [])

(* The fleet collector's configuration: an 8x timer, PEP(64,17) over
   replay advice with [verify = false], and a phase drift mid-run.
   Every window's cumulative path, edge and DCG rows, its cycles and
   the sample count must agree, so every per-window delta does. *)
let fleet_workload =
  "gen:seed=3,methods=8,mega=8,depth=6,loops=3,diamonds=16,phases=4,tenants=4,burst=8,size=6"

let test_fleet_collector_differential () =
  let w =
    match Suite.resolve fleet_workload with
    | Ok w -> w
    | Error m -> Alcotest.fail m
  in
  let program = Workload.program w in
  let cost =
    {
      Cost_model.default with
      Cost_model.tick_period = Cost_model.default.Cost_model.tick_period / 8;
    }
  in
  let collect engine =
    let st = Machine.create ~cost ~seed:42 program in
    let warm =
      Driver.create
        {
          Driver.default_options with
          Driver.mode = Driver.Adaptive { thresholds = Driver.default_thresholds };
          engine;
        }
        st
    in
    ignore (Driver.run warm);
    ignore (Driver.run warm);
    let st = Machine.create ~cost ~seed:7 program in
    let driver =
      Driver.create
        {
          Driver.default_options with
          Driver.mode = Driver.Replay (Driver.advice warm);
          pep =
            Some
              {
                Driver.sampling = Sampling.pep ~samples:64 ~stride:17;
                zero = `Hottest;
                numbering = `Smart;
              };
          verify = false;
          engine;
        }
        st
    in
    let pep = Option.get (Driver.pep driver) in
    List.map
      (fun phase ->
        if Array.length st.Machine.globals > Phased.phase_global then
          st.Machine.globals.(Phased.phase_global) <- phase;
        let cycles, _ = Driver.run driver in
        Fmt.str "cycles=%d samples=%d" cycles (Pep.n_samples pep)
        :: Path_profile.to_lines pep.Pep.paths
        @ Edge_profile.to_lines pep.Pep.edges
        @ List.map
            (fun (a, b, c) -> Fmt.str "dcg %d %d %d" a b c)
            (List.sort compare (Dcg.edges (Driver.dcg driver))))
      [ 0; 0; 0; 1; 1; 2 ]
  in
  let oracle = collect `Oracle and threaded = collect `Threaded in
  List.iteri
    (fun i (o, t) -> check csl (Fmt.str "window %d" i) o t)
    (List.combine oracle threaded);
  check cb "samples taken" true
    (List.exists
       (fun lines -> not (String.equal (List.hd lines) "cycles=0 samples=0"))
       oracle)

(* Two path layers in one run.  tab-inline's truth replay: PEP and a
   perfect path profiler, added after [Driver.precompile], over inlined
   code.  And the onetime-paths layer, whose [on_path_end] reads the
   cycle counter: every path end's cycles must be the oracle's, so the
   lowered charges land before the call exactly as the closures'. *)
let test_two_path_layers_differential () =
  List.iter
    (fun name ->
      let w = Suite.find name in
      let size = max 4 (min 25 w.Workload.default_size) in
      let env = Exp_harness.make_env ~size ~seed:7 w in
      let truth engine =
        let driver, p =
          Exp_harness.observe ~precompile:true ~name:"truth" env
            {
              Exp_harness.default with
              Exp_harness.profiling = Exp_harness.pep_default;
              inline = true;
              engine;
            }
            (fun st ->
              let p =
                Profiler.perfect_path ~number:(Exp_harness.advice_number env) st
              in
              Exp_harness.mask_plans env p.Profiler.plans;
              (p.Profiler.hooks, p))
        in
        let pep = Option.get (Driver.pep driver) in
        Fmt.str "cycles=%d" (Driver.machine driver).Machine.cycles
        :: Path_profile.to_lines p.Profiler.table
        @ Path_profile.to_lines pep.Pep.paths
        @ Edge_profile.to_lines pep.Pep.edges
      in
      let onetime engine =
        let seen = ref [] in
        let _, () =
          Exp_harness.observe ~name:"onetime-paths" env
            { Exp_harness.default with Exp_harness.engine }
            (fun st ->
              let plans =
                Profile_hooks.make_plans ~mode:Dag.Loop_header
                  ~number:(Exp_harness.advice_number env)
                  st
              in
              Exp_harness.mask_plans env plans;
              let on_path_end (st : Machine.t) (frame : Interp.frame) ~path_id =
                seen :=
                  Fmt.str "%d/%d@%d" frame.Interp.fmeth path_id st.Machine.cycles
                  :: !seen
              in
              (Profile_hooks.path_hooks ~plans ~count_cost:`Hash ~on_path_end (), ()))
        in
        List.rev !seen
      in
      let t_o = truth `Oracle in
      check csl (name ^ " truth replay") t_o (truth `Threaded);
      check cb (name ^ " truth collected") true (List.length t_o > 1);
      let o = onetime `Oracle in
      check csl (name ^ " onetime path ends and their cycles") o (onetime `Threaded);
      check cb (name ^ " path ends seen") true (o <> []))
    [ "db"; "jess" ]

(* A tick promotes the running method mid-path: [main]'s frame is in
   the middle of a loop iteration when [set_speed] bumps its generation,
   so its lowered register updates stop and the closures carry on over
   the same register; the path ids and the cycles at every path end must
   be the oracle's.  [f] is promoted too, from inside a callee frame, so
   the register is indexed per depth. *)
let stale_path_program () =
  Compile.program ~name:"stale" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 3000)
            [
              if_ (eq (band (v "k") (i 3)) (i 0))
                [ set "s" (add (v "s") (call "f" [ v "k"; v "s" ])) ]
                [
                  if_ (lt (band (v "k") (i 7)) (i 5))
                    [ set "s" (bxor (v "s") (i 5)) ]
                    [ set "s" (add (v "s") (i 3)) ];
                ];
            ];
          ret (v "s");
        ];
      mdef "f" ~params:[ "a"; "b" ]
        [
          set "t" (i 0);
          for_ "j" (i 0) (band (v "a") (i 7))
            [
              if_ (eq (band (v "j") (i 1)) (i 0))
                [ set "t" (add (v "t") (v "j")) ]
                [ set "t" (sub (v "t") (i 1)) ];
            ];
          ret (add (v "t") (v "b"));
        ];
    ]

let stale_path_run engine =
  let p = stale_path_program () in
  let st = Machine.create ~tick_offset:900 ~seed:3 p in
  let plans =
    Profile_hooks.make_plans ~mode:Dag.Loop_header
      ~number:(fun _ dag -> Numbering.ball_larus dag)
      st
  in
  let ends = ref [] in
  let layer =
    Profile_hooks.path_hooks ~plans ~count_cost:`Hash
      ~on_path_end:(fun st (frame : Interp.frame) ~path_id ->
        ends :=
          Fmt.str "%d/%d@%d" frame.Interp.fmeth path_id st.Machine.cycles
          :: !ends)
      ()
  in
  let ticks = ref 0 in
  let tick =
    Tick.hooks
      ~on_tick:(fun st (frame : Interp.frame) ->
        incr ticks;
        if !ticks <= 6 then
          Machine.set_speed st frame.Interp.fmeth ~percent:(100 + (10 * !ticks)))
      ()
  in
  let hooks = tick @ layer in
  let r =
    match engine with
    | `Oracle -> Interp.run hooks st
    | `Threaded -> Codegen.run (Codegen.create ~hooks st)
  in
  (r, st.Machine.cycles, List.rev !ends)

let test_stale_mid_path () =
  let r_o, c_o, e_o = stale_path_run `Oracle in
  let r_t, c_t, e_t = stale_path_run `Threaded in
  check ci "result" r_o r_t;
  check ci "cycles" c_o c_t;
  check csl "path ends, ids and cycles" e_o e_t;
  check cb "many path ends" true (List.length e_o > 3000)

(* Generated workloads under every path-layer configuration the sweep
   replays: PEP sampled and never sampled, classic BLPP (count edges)
   and back-edge instrumentation. *)
let prop_gen_path_layers =
  let configs =
    [|
      ("PEP(64,17)", cfg pep_profiling);
      ( "instr-only",
        cfg
          (Exp_harness.Pep_profiled
             { sampling = Sampling.never; zero = `Hottest; numbering = `Smart }) );
      ("classic-blpp", cfg Exp_harness.Classic_blpp);
      ("back-edge", cfg Exp_harness.Instr_back_edge);
    |]
  in
  QCheck.Test.make ~count:12 ~name:"gen: specs, path layers: oracle = flat"
    QCheck.(pair (int_bound 100_000) (int_bound (Array.length configs - 1)))
    (fun (seed, ci) ->
      let spec = List.hd (Wgen.corpus ~n:1 ~seed ()) in
      let w = Wgen.workload { spec with Wgen.size = min spec.Wgen.size 8 } in
      let env = Exp_harness.make_env ~size:8 ~seed w in
      let cname, config = configs.(ci) in
      let om, op =
        observables (Exp_harness.replay env (with_engine `Oracle config))
      and tm, tp =
        observables (Exp_harness.replay env (with_engine `Threaded config))
      in
      if om <> tm || op <> tp then
        QCheck.Test.fail_reportf "%s under %s: oracle and flat engine differ"
          (Wgen.print spec) cname;
      true)

(* --------------------- engine-specific contracts --------------------- *)

let tiny_defs body_ret =
  [
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 40)
          [
            if_ (eq (band (v "k") (i 3)) (i 0))
              [ set "s" (add (v "s") (call "f" [ v "k"; v "s" ])) ]
              [ set "s" (add (v "s") (i 1)) ];
          ];
        ret (v "s");
      ];
    mdef "f" ~params:[ "a"; "b" ] body_ret;
  ]

let tiny_program ?(body_ret = [ ret (add (v "a") (v "b")) ]) () =
  Compile.program ~name:"t" ~main:"main" (tiny_defs body_ret)

let test_engine_matches_oracle () =
  let p = tiny_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_t = Codegen.run (Codegen.create st_t) in
  check ci "result" r_o r_t;
  check ci "cycles" st_o.Machine.cycles st_t.Machine.cycles

let test_set_speed_invalidates () =
  let p = tiny_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let eng = Codegen.create st_t in
  ignore (Interp.run Interp.no_hooks st_o);
  ignore (Codegen.run eng);
  let run1 = st_t.Machine.cycles in
  let fidx = Machine.index st_t "f" in
  Machine.set_speed st_o fidx ~percent:700;
  Machine.set_speed st_t fidx ~percent:700;
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_t = Codegen.run eng in
  check ci "result after set_speed" r_o r_t;
  check ci "cycles after set_speed" st_o.Machine.cycles st_t.Machine.cycles;
  check cb "speed change visible in cycles" true
    (st_t.Machine.cycles - run1 <> run1)

let test_recompile_invalidates () =
  let p = tiny_program () in
  let replacement =
    Program.find
      (tiny_program ~body_ret:[ ret (mul (sub (v "a") (v "b")) (i 3)) ] ())
      "f"
  in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let eng = Codegen.create st_t in
  let before_o = Interp.run Interp.no_hooks st_o in
  let before_t = Codegen.run eng in
  check ci "result before recompile" before_o before_t;
  let fidx = Machine.index st_t "f" in
  Machine.recompile st_o fidx replacement;
  Machine.recompile st_t fidx replacement;
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_t = Codegen.run eng in
  check cb "recompile changed behaviour" true (r_t <> before_t);
  check ci "result after recompile" r_o r_t;
  check ci "cycles after recompile" st_o.Machine.cycles st_t.Machine.cycles

(* Hook specialization: the hooked variant must deliver the same events,
   in the same order, as the oracle: for one layer, and for three layers
   that each tag their events with their index, which must then arrive
   in layer order at every hook point.  Layer 0 rearms the timer at a
   tick, as the tick driver does; the flag was read before, so layers 1
   and 2 see that tick too. *)
let test_hook_parity () =
  let p = tiny_program () in
  let trace_layer ?(tick = false) trace k =
    let ev e = trace := (k, e) :: !trace in
    {
      Interp.layer with
      on_entry = Some (fun _ (f : Interp.frame) -> ev (`E, f.Interp.fmeth, 0, 0));
      on_exit = Some (fun _ (f : Interp.frame) -> ev (`X, f.Interp.fmeth, 0, 0));
      on_edge =
        Some
          (fun _ (f : Interp.frame) ~src ~idx ~dst:_ ->
            ev (`D, f.Interp.fmeth, src, idx));
      on_tick =
        (if tick then
           Some
             (fun st (f : Interp.frame) ->
               ev (`T, f.Interp.fmeth, 0, 0);
               if k = 0 then Machine.rearm_timer st)
         else None);
      on_yieldpoint =
        Some (fun _ (f : Interp.frame) blk -> ev (`Y, f.Interp.fmeth, blk, 0));
    }
  in
  let parity label hooks_of =
    let st_o = Machine.create ~tick_offset:50 ~seed:3 p
    and st_t = Machine.create ~tick_offset:50 ~seed:3 p in
    let tr_o = ref [] and tr_t = ref [] in
    let r_o = Interp.run (hooks_of tr_o) st_o in
    let r_t = Codegen.run (Codegen.create ~hooks:(hooks_of tr_t) st_t) in
    check ci (label ^ " result") r_o r_t;
    check ci (label ^ " cycles") st_o.Machine.cycles st_t.Machine.cycles;
    check cb (label ^ " hook event sequences identical") true (!tr_o = !tr_t);
    check cb (label ^ " events seen") true (List.length !tr_o > 50);
    List.rev !tr_o
  in
  ignore (parity "one layer" (fun tr -> [ trace_layer tr 0 ]));
  let events =
    parity "three layers" (fun tr ->
        List.map (trace_layer ~tick:true tr) [ 0; 1; 2 ])
  in
  let rec in_layer_order = function
    | [] -> true
    | (0, e0) :: (1, e1) :: (2, e2) :: rest ->
        e0 = e1 && e1 = e2 && in_layer_order rest
    | _ -> false
  in
  check cb "three layers: every hook point in layer order" true
    (in_layer_order events);
  List.iter
    (fun kind ->
      check cb "three layers: every kind of hook point seen" true
        (List.exists (fun (_, (k, _, _, _)) -> k = kind) events))
    [ `E; `X; `D; `T; `Y ]

(* Switching hooks on an existing engine re-specializes: bare runs must
   not fire hooks, hooked runs must. *)
let test_hook_switch () =
  let p = tiny_program () in
  let st = Machine.create ~seed:3 p in
  let eng = Codegen.create st in
  let r1 = Codegen.run eng in
  let edges = ref 0 in
  Codegen.set_hooks eng
    [
      {
        Interp.layer with
        on_edge = Some (fun _ _ ~src:_ ~idx:_ ~dst:_ -> incr edges);
      };
    ];
  let r2 = Codegen.run eng in
  check ci "same result under hooks" r1 r2;
  check cb "hooks fired" true (!edges > 0);
  let fired = !edges in
  Codegen.set_hooks eng Interp.no_hooks;
  let r3 = Codegen.run eng in
  check ci "same result bare again" r1 r3;
  check ci "bare run fires no hooks" fired !edges

(* A layer whose sites widen when its tick hook recompiles the running
   method: main's frame keeps executing the superseded body, whose
   transfers were translated as plain.  [Machine.recompile] marks that
   form stale, so the frame finishes on the hooked path and the layer
   sees every edge the oracle shows it; without the mark the frame would
   run its loop unobserved to the end.  [set_speed] takes the same
   route. *)
let widening_program () =
  Compile.program ~name:"widen" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 2000)
            [
              if_ (eq (band (v "k") (i 3)) (i 0))
                [ set "s" (add (v "s") (v "k")) ]
                [ set "s" (bxor (v "s") (i 5)) ];
            ];
          ret (v "s");
        ];
    ]

let widening_run ~engine ~change =
  let p = widening_program () in
  let st = Machine.create ~tick_offset:400 ~seed:3 p in
  let main = Machine.index st "main" in
  let widened = ref false and counted = ref 0 in
  let layer =
    [
      {
        Interp.layer with
        on_edge =
          Some
            (fun st (frame : Interp.frame) ~src:_ ~idx:_ ~dst:_ ->
              if !widened && frame.Interp.fmeth = main then begin
                incr counted;
                Machine.add_cycles st 3
              end);
        edge_site = Some (fun meth ~src:_ ~idx:_ -> !widened && meth = main);
      };
    ]
  in
  let tick =
    Tick.hooks
      ~on_tick:(fun st _ ->
        if not !widened then begin
          (match change with
          | `Recompile ->
              Machine.recompile st main (Program.method_of_index p main)
          | `Set_speed -> Machine.set_speed st main ~percent:300);
          widened := true
        end)
      ()
  in
  let hooks = tick @ layer in
  let r =
    match engine with
    | `Oracle -> Interp.run hooks st
    | `Threaded -> Codegen.run (Codegen.create ~hooks st)
  in
  (r, st.Machine.cycles, !counted)

let test_sites_widen_under_running_frame () =
  List.iter
    (fun (label, change) ->
      let r_o, c_o, n_o = widening_run ~engine:`Oracle ~change in
      let r_t, c_t, n_t = widening_run ~engine:`Threaded ~change in
      check ci (label ^ " result") r_o r_t;
      check ci (label ^ " edges seen") n_o n_t;
      check ci (label ^ " cycles") c_o c_t;
      check cb (label ^ " the widened layer saw main's loop") true (n_o > 1000))
    [ ("recompile", `Recompile); ("set_speed", `Set_speed) ]

(* Soundness of every site declaration: wherever a layer's [edge_site]
   is false, calling its [on_edge] changes neither the cycles nor any
   table [fingerprint] covers.  Each profiler layer is audited on its
   own; the driver's own layers (baseline counter, PEP) are audited in
   the driver's composition, each at the edges outside its own site,
   against every layer's tables.  A composition whose acting layers
   leave a site undeclared, or that acts nowhere, fails the audit.  The
   audited layers keep their sites, so the composition acts where it
   did.  The runs go through the oracle, which calls [on_edge]
   everywhere. *)
let audit ~fingerprint ~checked ~broken (hooks : Interp.hooks) =
  let audited (l : Interp.layer) =
    match (l.Interp.on_edge, l.Interp.edge_site) with
    | None, _ -> l
    | Some _, None -> Alcotest.fail "layer declares no edge sites"
    | Some f, Some site ->
        {
          l with
          on_edge =
            Some
              (fun st (frame : Interp.frame) ~src ~idx ~dst ->
                if site frame.Interp.fmeth ~src ~idx then
                  f st frame ~src ~idx ~dst
                else begin
                  let c = st.Machine.cycles and fp = fingerprint () in
                  f st frame ~src ~idx ~dst;
                  incr checked;
                  if st.Machine.cycles <> c || fingerprint () <> fp then
                    incr broken
                end);
        }
  in
  if not (List.exists (fun (l : Interp.layer) -> Option.is_some l.Interp.on_edge) hooks)
  then Alcotest.fail "no layer acts on an edge";
  List.map audited hooks

let prop_sites_sound =
  let producers =
    [|
      "perfect-path"; "perfect-edge"; "classic-blpp"; "back-edge"; "hardware";
    |]
  in
  QCheck.Test.make ~count:12 ~name:"edge_site false => on_edge inert"
    QCheck.(
      quad (int_bound (List.length Suite.names - 1))
        (int_bound (Array.length producers - 1))
        bool (int_bound 1000))
    (fun (wi, pi, transform, seed) ->
      let w = Suite.find (List.nth Suite.names wi) in
      let size = max 4 (min 12 w.Workload.default_size) in
      let env = Exp_harness.make_env ~size ~seed w in
      let st = Machine.create ~seed env.program in
      let number = Exp_harness.advice_number env in
      let path_layer (p : Profiler.path_profiler) =
        Exp_harness.mask_plans env p.Profiler.plans;
        (p.Profiler.hooks, fun () -> Path_profile.table_total p.Profiler.table)
      in
      let layer, table_total =
        match producers.(pi) with
        | "perfect-path" -> path_layer (Profiler.perfect_path ~number st)
        | "classic-blpp" -> path_layer (Profiler.classic_blpp ~number st)
        | "perfect-edge" ->
            let p = Profiler.perfect_edge st in
            (p.Profiler.ehooks, fun () -> Edge_profile.table_total p.Profiler.etable)
        | "back-edge" ->
            let plans = Profile_hooks.make_plans ~mode:Dag.Back_edge ~number st in
            let ends = ref 0 in
            ( Profile_hooks.path_hooks ~plans ~count_cost:`Array
                ~on_path_end:(fun _ _ ~path_id:_ -> incr ends)
                (),
              fun () -> !ends )
        | _ ->
            let hw = Hw_profiler.create ~table_sizes:[ 4; 16 ] ~number st in
            let seen () =
              List.fold_left
                (fun acc t -> acc + Path_profile.table_total t)
                0 (Hw_profiler.to_path_profiles hw)
            in
            (Hw_profiler.hooks hw, seen)
      in
      let checked = ref 0 and broken = ref 0 in
      let layer = audit ~fingerprint:table_total ~checked ~broken layer in
      let driver =
        Driver.create ~extra_hooks:layer
          {
            Driver.default_options with
            Driver.mode = Driver.Replay env.advice;
            pep =
              Some
                {
                  Driver.sampling = Sampling.pep ~samples:64 ~stride:17;
                  zero = `Hottest;
                  numbering = `Smart;
                };
            inline = transform;
            unroll = transform;
            engine = `Oracle;
          }
          st
      in
      let own () =
        let pep = Option.get (Driver.pep driver) in
        Edge_profile.table_total (Driver.baseline_profile driver)
        + Path_profile.table_total pep.Pep.paths
        + Edge_profile.table_total pep.Pep.edges
        + table_total ()
      in
      let hooks = audit ~fingerprint:own ~checked ~broken (Driver.hooks driver) in
      for _ = 1 to 2 do
        ignore (Interp.run hooks st)
      done;
      !checked > 0 && !broken = 0)

(* ------------------------ call-site refills ------------------------ *)

(* Every [set_speed] bumps the callee's generation stamp, so the next
   call through the site misses its cache and refills it.  Eight
   generations flow through one site: after each bump the run must
   agree with the oracle bit-for-bit, and of its 40 calls exactly one
   misses while every other call hits. *)
let refill_program () =
  Compile.program ~name:"refill" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 40) [ set "s" (add (v "s") (call "f" [ v "k" ])) ];
          ret (v "s");
        ];
      mdef "f" ~params:[ "a" ] [ ret (add (mul (v "a") (i 3)) (i 1)) ];
    ]

let test_call_site_refill () =
  let p = refill_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let tel = Telemetry.create () in
  let eng = Codegen.create ~telemetry:tel st_t in
  let fidx = Machine.index st_t "f" in
  let cval name = Metrics.value (Metrics.counter (Telemetry.metrics tel) name) in
  let agree label ~misses =
    let h0 = cval "engine.ic.hits" and m0 = cval "engine.ic.misses" in
    let r_o = Interp.run Interp.no_hooks st_o in
    let r_t = Codegen.run eng in
    check ci (label ^ " result") r_o r_t;
    check ci (label ^ " cycles") st_o.Machine.cycles st_t.Machine.cycles;
    check ci (label ^ " misses") misses (cval "engine.ic.misses" - m0);
    check ci (label ^ " hits") (40 - misses) (cval "engine.ic.hits" - h0)
  in
  agree "gen 1" ~misses:1;
  for g = 2 to 8 do
    Machine.set_speed st_o fidx ~percent:(100 + (10 * g));
    Machine.set_speed st_t fidx ~percent:(100 + (10 * g));
    agree (Fmt.str "gen %d" g) ~misses:1
  done;
  agree "no bump" ~misses:0

(* ---------------------- superinstruction fusion ---------------------- *)

(* A program whose bytecode exercises the block-transfer patterns of the
   fusion catalog: the switch header ends [Load; Jmp] (ljmp), its
   compare chain is [Const; Cmp; Br] (kcmpbr), if-arm stores end
   [Store; Jmp] to the join (stjmp), and the for-latch is [Inc; Jmp]
   (incjmp).  Fused, the engine must stay bit-identical to the oracle,
   and the compiled tables must validate. *)
let fusion_program () =
  Compile.program ~name:"fuse" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 1);
          set "x" (i 3);
          for_ "k" (i 0) (i 60)
            [
              switch (v "x")
                [
                  (0, [ set "s" (add (v "s") (v "k")) ]);
                  (1, [ set "s" (bxor (v "s") (i 21)) ]);
                  (2, [ set "s" (add (v "s") (i 3)) ]);
                  (3, [ set "s" (sub (v "s") (i 1)) ]);
                ]
                [ set "s" (add (v "s") (i 7)) ];
              if_ (eq (band (v "k") (i 3)) (i 0))
                [ set "x" (add (v "x") (i 1)) ]
                [ set "x" (sub (v "x") (v "k")) ];
              set "x" (band (v "x") (i 7));
            ];
          set "s" (add (v "s") (v "x"));
          ret (v "s");
        ];
    ]

let test_fusion_patterns_differential () =
  let p = fusion_program () in
  let st_o = Machine.create ~seed:3 p
  and st_f = Machine.create ~seed:3 p
  and st_n = Machine.create ~seed:3 p in
  let fused = Codegen.create st_f in
  let nofuse = Codegen.create ~fuse:false st_n in
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_f = Codegen.run fused in
  let r_n = Codegen.run nofuse in
  check ci "fused result" r_o r_f;
  check ci "nofuse result" r_o r_n;
  check ci "fused cycles" st_o.Machine.cycles st_f.Machine.cycles;
  check ci "nofuse cycles" st_o.Machine.cycles st_n.Machine.cycles;
  (* the compiled tables really contain the block-transfer patterns *)
  let entries eng midx = (Codegen.fusion_witness eng midx).Fusion.fentries in
  let names =
    List.concat_map
      (fun midx ->
        List.map
          (fun (e : Fusion.entry) -> Fusion.pattern_name e.Fusion.fpattern)
          (entries fused midx))
      (List.init (Program.n_methods p) Fun.id)
  in
  List.iter
    (fun pat ->
      check cb (pat ^ " compiled") true (List.mem pat names))
    [ "kcmpbr-eq"; "ljmp"; "stjmp"; "incjmp" ];
  check cb "nothing fused with fusion off" true
    (List.for_all
       (fun midx -> entries nofuse midx = [])
       (List.init (Program.n_methods p) Fun.id));
  (* every planned table passes the independent validator *)
  Program.iter_methods
    (fun midx m ->
      let witness = Codegen.fusion_witness fused midx in
      match Pep_check.errors (Pep_check.validate_fusion ~witness m) with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s: fusion table rejected: %a" m.Method.name
            Pep_check.pp_diagnostic d)
    p

(* Superinstructions are not reserved for optimized code: a replay
   whose advice leaves every method at baseline still compiles them into
   each translation, and agrees with the oracle. *)
let test_baseline_fused () =
  let w = Suite.find "compress" in
  let env = Exp_harness.make_env ~size:20 ~seed:3 w in
  let advice =
    { env.advice with Advice.levels = Array.map (fun _ -> -1) env.advice.Advice.levels }
  in
  let env = { env with Exp_harness.advice } in
  let tel = Telemetry.create () in
  let oracle = Exp_harness.replay env (with_engine `Oracle (cfg Exp_harness.Base)) in
  let threaded =
    Exp_harness.replay env
      { (cfg Exp_harness.Base) with Exp_harness.telemetry = Some tel }
  in
  check meas "measurement" oracle.Exp_harness.meas threaded.Exp_harness.meas;
  let eng = Driver.engine threaded.Exp_harness.driver in
  let main = Machine.index (Driver.machine threaded.Exp_harness.driver) "main" in
  check cb "main's table fuses" true
    ((Codegen.fusion_witness eng main).Fusion.fentries <> []);
  check cb "baseline translations fused" true
    (Metrics.value (Metrics.counter (Telemetry.metrics tel) "engine.fuse.sites") > 0)

(* ------------------------- allocation tests ------------------------- *)

let calls_program ~argc =
  let params = List.init argc (fun j -> Fmt.str "p%d" j) in
  let args k = List.init argc (fun j -> add k (i j)) in
  Compile.program ~name:"alloc" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 1000) [ set "s" (call "leaf" (args (v "k"))) ];
          ret (v "s");
        ];
      mdef "leaf" ~params
        [ ret (List.fold_left (fun acc q -> add acc (v q)) (i 0) params) ];
    ]

(* The oracle allocates a locals array per invocation (inherent to the
   reference semantics) but must not also copy the arguments: growing a
   callee from 2 to 10 parameters adds 8 words of locals per call, and
   with an [Array.sub] per call it would add ~16.  Bound the growth
   strictly under the with-copy slope. *)
let oracle_words_per_call argc =
  let st = Machine.create ~seed:1 (calls_program ~argc) in
  ignore (Interp.run Interp.no_hooks st);
  let st = Machine.create ~seed:1 (calls_program ~argc) in
  let w0 = Gc.minor_words () in
  ignore (Interp.run Interp.no_hooks st);
  (Gc.minor_words () -. w0) /. 1000.

let test_oracle_no_arg_copy () =
  let slope = oracle_words_per_call 10 -. oracle_words_per_call 2 in
  check cb
    (Fmt.str "oracle per-call allocation slope %.1f words < 12" slope)
    true
    (slope < 12.0)

let test_threaded_steady_state_alloc_free () =
  let st = Machine.create ~seed:1 (calls_program ~argc:6) in
  let eng = Codegen.create st in
  ignore (Codegen.run eng) (* warm-up: translation + pool growth *);
  let w0 = Gc.minor_words () in
  ignore (Codegen.run eng);
  let words = Gc.minor_words () -. w0 in
  check cb
    (Fmt.str "threaded steady-state allocation %.0f words < 256" words)
    true (words < 256.0)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case ("differential: " ^ name) `Quick (diff_workload name))
    Suite.names
  @ [
      Alcotest.test_case "differential: adaptive promotion" `Quick
        test_adaptive_differential;
      Alcotest.test_case "differential: inline+unroll" `Quick
        test_transform_differential;
      Alcotest.test_case "differential: faulted inline+unroll" `Quick
        test_faulted_transform_differential;
      Alcotest.test_case "differential: drift truth via add_hooks" `Quick
        test_drift_truth_differential;
      Alcotest.test_case "differential: fleet collector configuration" `Quick
        test_fleet_collector_differential;
      Alcotest.test_case "differential: two path layers in one run" `Quick
        test_two_path_layers_differential;
      Alcotest.test_case "path register shared across a stale frame" `Quick
        test_stale_mid_path;
      QCheck_alcotest.to_alcotest prop_gen_path_layers;
      Alcotest.test_case "sites widen under a running frame" `Quick
        test_sites_widen_under_running_frame;
      QCheck_alcotest.to_alcotest prop_sites_sound;
      Alcotest.test_case "engine matches oracle (tiny)" `Quick
        test_engine_matches_oracle;
      Alcotest.test_case "set_speed invalidates inline caches" `Quick
        test_set_speed_invalidates;
      Alcotest.test_case "recompile invalidates inline caches" `Quick
        test_recompile_invalidates;
      Alcotest.test_case "hook event parity" `Quick test_hook_parity;
      Alcotest.test_case "hook respecialization" `Quick test_hook_switch;
      Alcotest.test_case "call-site cache refills per generation" `Quick
        test_call_site_refill;
      Alcotest.test_case "fusion patterns differential" `Quick
        test_fusion_patterns_differential;
      Alcotest.test_case "baseline methods run superinstructions" `Quick
        test_baseline_fused;
      Alcotest.test_case "oracle: no per-call argument copy" `Quick
        test_oracle_no_arg_copy;
      Alcotest.test_case "threaded: steady state allocation-free" `Quick
        test_threaded_steady_state_alloc_free;
    ]
