(* Differential testing of the closure-threaded engine (Codegen) against
   the interpreter oracle (Interp), plus the engine-specific contracts:
   inline-cache invalidation on recompile/set_speed, hook specialization,
   and steady-state allocation behaviour. *)

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

let configs =
  [
    ("Base", cfg Exp_harness.Base);
    ("Pep_profiled", cfg pep_profiling);
    ("Perfect_path", cfg Exp_harness.Perfect_path);
    ("Classic_blpp", cfg Exp_harness.Classic_blpp);
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
   in the same order, as the oracle. *)
let test_hook_parity () =
  let p = tiny_program () in
  let trace_hooks trace =
    {
      Interp.on_entry =
        Some
          (fun _ (f : Interp.frame) ->
            trace := (`E, f.Interp.fmeth, 0, 0) :: !trace);
      on_exit =
        Some
          (fun _ (f : Interp.frame) ->
            trace := (`X, f.Interp.fmeth, 0, 0) :: !trace);
      on_edge =
        Some
          (fun _ (f : Interp.frame) ~src ~idx ~dst:_ ->
            trace := (`D, f.Interp.fmeth, src, idx) :: !trace);
      on_yieldpoint =
        Some
          (fun _ (f : Interp.frame) blk ->
            trace := (`Y, f.Interp.fmeth, blk, 0) :: !trace);
    }
  in
  let st_o = Machine.create ~tick_offset:50 ~seed:3 p
  and st_t = Machine.create ~tick_offset:50 ~seed:3 p in
  let tr_o = ref [] and tr_t = ref [] in
  let r_o = Interp.run (trace_hooks tr_o) st_o in
  let r_t = Codegen.run (Codegen.create ~hooks:(trace_hooks tr_t) st_t) in
  check ci "result" r_o r_t;
  check ci "cycles" st_o.Machine.cycles st_t.Machine.cycles;
  check cb "hook event sequences identical" true (!tr_o = !tr_t);
  check cb "events seen" true (List.length !tr_o > 50)

(* Switching hooks on an existing engine re-specializes: bare runs must
   not fire hooks, hooked runs must. *)
let test_hook_switch () =
  let p = tiny_program () in
  let st = Machine.create ~seed:3 p in
  let eng = Codegen.create st in
  let r1 = Codegen.run eng in
  let edges = ref 0 in
  Codegen.set_hooks eng
    {
      Interp.no_hooks with
      on_edge = Some (fun _ _ ~src:_ ~idx:_ ~dst:_ -> incr edges);
    };
  let r2 = Codegen.run eng in
  check ci "same result under hooks" r1 r2;
  check cb "hooks fired" true (!edges > 0);
  let fired = !edges in
  Codegen.set_hooks eng Interp.no_hooks;
  let r3 = Codegen.run eng in
  check ci "same result bare again" r1 r3;
  check ci "bare run fires no hooks" fired !edges

(* ------------------------- PIC tier ladder ------------------------- *)

(* A call site climbs mono -> poly -> megamorphic as the callee is
   recompiled under it: every [set_speed] bumps the callee's generation
   stamp, so the next dispatch through the site misses its cache.  Eight
   distinct generations flow through one site, the site's tier is
   observed at each rung, and a long stable megamorphic run earns the
   demotion back to monomorphic.  The oracle must agree bit-for-bit at
   every step. *)
let pic_program () =
  Compile.program ~name:"pic" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 40) [ set "s" (add (v "s") (call "f" [ v "k" ])) ];
          ret (v "s");
        ];
      mdef "f" ~params:[ "a" ] [ ret (add (mul (v "a") (i 3)) (i 1)) ];
    ]

let test_pic_tier_ladder () =
  let p = pic_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let tel = Telemetry.create () in
  let eng = Codegen.create ~telemetry:tel st_t in
  let fidx = Machine.index st_t "f" in
  let agree label =
    let r_o = Interp.run Interp.no_hooks st_o in
    let r_t = Codegen.run eng in
    check ci (label ^ " result") r_o r_t;
    check ci (label ^ " cycles") st_o.Machine.cycles st_t.Machine.cycles
  in
  let bump pct =
    Machine.set_speed st_o fidx ~percent:pct;
    Machine.set_speed st_t fidx ~percent:pct
  in
  let tiers () = Codegen.ic_tiers eng "main" in
  agree "gen 1";
  check csl "fresh site is monomorphic" [ "mono" ] (tiers ());
  (* three more generations: the 4th mono miss promotes to poly *)
  for g = 2 to 4 do
    bump (100 + (10 * g));
    agree (Fmt.str "gen %d" g)
  done;
  check csl "4 mono misses promote to poly" [ "poly" ] (tiers ());
  (* four generations beyond the 4-way cache: promote to megamorphic *)
  for g = 5 to 8 do
    bump (100 + (10 * g));
    agree (Fmt.str "gen %d" g)
  done;
  check csl "4 poly misses promote to mega" [ "mega" ] (tiers ());
  (* no further recompiles: stable same-generation hits accumulate
     across runs until the demotion threshold *)
  agree "stable 1";
  agree "stable 2";
  check csl "stable megamorphic run demotes to mono" [ "mono" ] (tiers ());
  let m = Telemetry.metrics tel in
  let cval name = Metrics.value (Metrics.counter m name) in
  check cb "promote_poly counted" true (cval "engine.pic.promote_poly" >= 1);
  check cb "promote_mega counted" true (cval "engine.pic.promote_mega" >= 1);
  check cb "demote counted" true (cval "engine.pic.demote" >= 1)

(* ---------------------- superinstruction fusion ---------------------- *)

(* A program whose bytecode exercises the block-transfer patterns of the
   fusion catalog: the switch header ends [Load; Jmp] (ljmp), its
   compare chain is [Const; Cmp; Br] (kcmpbr), if-arm stores end
   [Store; Jmp] to the join (stjmp), and the for-latch is [Inc; Jmp]
   (incjmp).  Fused all-hot, the engine must stay bit-identical to the
   oracle, and the compiled tables must validate. *)
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

let all_hot_engine ?tiers st =
  let eng = Codegen.create ?tiers st in
  for midx = 0 to Program.n_methods st.Machine.program - 1 do
    let m = Program.method_of_index st.Machine.program midx in
    Codegen.set_hot_blocks eng midx
      (Array.make (Array.length m.Method.blocks) true)
  done;
  eng

let test_fusion_patterns_differential () =
  let p = fusion_program () in
  let st_o = Machine.create ~seed:3 p
  and st_f = Machine.create ~seed:3 p
  and st_n = Machine.create ~seed:3 p in
  let fused = all_hot_engine st_f in
  let nofuse = all_hot_engine ~tiers:{ Codegen.fuse = false } st_n in
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_f = Codegen.run fused in
  let r_n = Codegen.run nofuse in
  check ci "fused result" r_o r_f;
  check ci "nofuse result" r_o r_n;
  check ci "fused cycles" st_o.Machine.cycles st_f.Machine.cycles;
  check ci "nofuse cycles" st_o.Machine.cycles st_n.Machine.cycles;
  (* the compiled tables really contain the block-transfer patterns *)
  let names =
    List.concat_map
      (fun midx ->
        List.map
          (fun (e : Fusion.entry) -> Fusion.pattern_name e.Fusion.fpattern)
          (Codegen.fused_entries fused midx))
      (List.init (Program.n_methods p) Fun.id)
  in
  List.iter
    (fun pat ->
      check cb (pat ^ " compiled") true (List.mem pat names))
    [ "kcmpbr-eq"; "ljmp"; "stjmp"; "incjmp" ];
  check cb "nothing fused with the tier off" true
    (List.for_all
       (fun midx -> Codegen.fused_entries nofuse midx = [])
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
      Alcotest.test_case "engine matches oracle (tiny)" `Quick
        test_engine_matches_oracle;
      Alcotest.test_case "set_speed invalidates inline caches" `Quick
        test_set_speed_invalidates;
      Alcotest.test_case "recompile invalidates inline caches" `Quick
        test_recompile_invalidates;
      Alcotest.test_case "hook event parity" `Quick test_hook_parity;
      Alcotest.test_case "hook respecialization" `Quick test_hook_switch;
      Alcotest.test_case "PIC tier ladder (mono/poly/mega/demote)" `Quick
        test_pic_tier_ladder;
      Alcotest.test_case "fusion patterns differential" `Quick
        test_fusion_patterns_differential;
      Alcotest.test_case "oracle: no per-call argument copy" `Quick
        test_oracle_no_arg_copy;
      Alcotest.test_case "threaded: steady state allocation-free" `Quick
        test_threaded_steady_state_alloc_free;
    ]
