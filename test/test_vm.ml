(* The VM layer: frequency estimation, layout, advice, and the
   adaptive/replay driver. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let loop_cfg () =
  Cfg.create ~name:"loop" ~entry:0 ~exit_:3
    [|
      Cfg.Jump 1;
      Cfg.Branch { branch = 0; taken = 2; not_taken = 3 };
      Cfg.Jump 1;
      Cfg.Return;
    |]

let test_freq_estimate () =
  let cfg = loop_cfg () in
  let prof = Edge_profile.create () in
  (* taken (stay in loop) 90% of the time *)
  Edge_profile.add prof 0 ~taken:true 90;
  Edge_profile.add prof 0 ~taken:false 10;
  let freqs = Freq_estimate.block_freqs cfg prof in
  check cb "loop body hotter than entry" true (freqs.(2) > freqs.(0));
  check cb "header hot" true (freqs.(1) > 2.0);
  Array.iter (fun f -> check cb "finite" true (Float.is_finite f && f >= 0.)) freqs

let test_layout_hot_fallthrough () =
  let cfg = loop_cfg () in
  let prof = Edge_profile.create () in
  Edge_profile.add prof 0 ~taken:true 90;
  Edge_profile.add prof 0 ~taken:false 10;
  let l = Layout.compute cfg prof in
  let pos = Layout.positions l in
  (* the hot arm (block 2) should directly follow the header *)
  check ci "hot arm adjacent" (pos.(1) + 1) pos.(2)

let test_layout_penalties_affect_cycles () =
  let w = Suite.find "compress" in
  let program = Workload.program ~size:3 w in
  let run table =
    let env_st = Machine.create ~seed:9 program in
    (* compile everything to opt level 0 guided by [table] *)
    Program.iter_methods
      (fun m _ ->
        let cm = Machine.cmeth env_st m in
        Layout.apply env_st m (Layout.compute cm.Machine.cfg table.(m)))
      program;
    let r = Interp.run Interp.no_hooks env_st in
    (r, env_st.Machine.cycles)
  in
  (* collect a real profile first *)
  let st = Machine.create ~seed:9 program in
  let pe = Profiler.perfect_edge st in
  ignore (Interp.run pe.Profiler.ehooks st);
  let good = pe.Profiler.etable in
  let r1, good_cycles = run good in
  let r2, bad_cycles = run (Edge_profile.flip_table good) in
  check ci "same result" r1 r2;
  check cb "flipped profile is slower" true (bad_cycles > good_cycles)

let test_advice_roundtrip () =
  let levels = [| -1; 2; 0 |] in
  let profile = Edge_profile.create_table ~n_methods:3 in
  Edge_profile.add profile.(1) 4 ~taken:true 7;
  Edge_profile.add profile.(2) 0 ~taken:false 2;
  let dcg = Dcg.create () in
  Dcg.record dcg ~caller:0 ~callee:1;
  Dcg.record dcg ~caller:0 ~callee:1;
  Dcg.record dcg ~caller:(-1) ~callee:0;
  let a = { Advice.levels; profile; dcg } in
  let a' =
    match Advice.of_lines ~n_methods:3 (Advice.to_lines a) with
    | Ok a' -> a'
    | Error e -> Alcotest.failf "roundtrip: %a" Dcg.pp_parse_error e
  in
  check Alcotest.(array int) "levels" a.Advice.levels a'.Advice.levels;
  check ci "profile total"
    (Edge_profile.table_total a.Advice.profile)
    (Edge_profile.table_total a'.Advice.profile);
  check ci "n_opt" 2 (Advice.n_opt a);
  check ci "dcg preserved" 2 (Dcg.weight a'.Advice.dcg ~caller:0 ~callee:1)

let test_adaptive_promotes () =
  let w = Suite.find "compress" in
  let program = Workload.program ~size:60 w in
  let st = Machine.create ~seed:4 program in
  let d = Driver.create Driver.default_options st in
  ignore (Driver.run d);
  let advice = Driver.advice d in
  let step_idx = Program.index program "step" in
  check cb "hot method promoted" true (advice.Advice.levels.(step_idx) >= 0);
  check cb "baseline profile collected" true
    (Edge_profile.table_total (Driver.baseline_profile d) > 0);
  check cb "some method samples" true
    (Array.exists (fun s -> s > 0) (Driver.method_samples d))

let test_replay_deterministic () =
  let w = Suite.find "jess" in
  let program = Workload.program ~size:10 w in
  let env_run () =
    let st = Machine.create ~seed:11 program in
    let warm = Driver.create Driver.default_options st in
    ignore (Driver.run warm);
    ignore (Driver.run warm);
    let advice = Driver.advice warm in
    let st2 = Machine.create ~seed:11 program in
    let d =
      Driver.create
        { Driver.default_options with mode = Driver.Replay advice }
        st2
    in
    let c1, r1 = Driver.run d in
    let c2, r2 = Driver.run d in
    (c1, r1, c2, r2)
  in
  let a = env_run () and b = env_run () in
  check cb "replay runs are bit-identical" true (a = b)

let test_replay_compiles_at_first_invocation () =
  let w = Suite.find "db" in
  let program = Workload.program ~size:10 w in
  let st = Machine.create ~seed:11 program in
  let warm = Driver.create Driver.default_options st in
  ignore (Driver.run warm);
  ignore (Driver.run warm);
  let advice = Driver.advice warm in
  let st2 = Machine.create ~seed:11 program in
  let d =
    Driver.create { Driver.default_options with mode = Driver.Replay advice } st2
  in
  let iter1, _ = Driver.run d in
  let compile1 = Driver.compile_cycles d in
  let iter2, _ = Driver.run d in
  let compile2 = Driver.compile_cycles d in
  check cb "all compilation in iteration 1" true (compile1 > 0 && compile2 = compile1);
  check cb "iteration 1 dearer than iteration 2" true (iter1 > iter2)

let test_driver_with_pep () =
  let w = Suite.find "pseudojbb" in
  let program = Workload.program ~size:15 w in
  let st = Machine.create ~seed:8 program in
  let opts =
    {
      Driver.mode = Adaptive { thresholds = Driver.default_thresholds };
      opt_profile = Driver.From_pep;
      pep =
        Some
          {
            Driver.sampling = Sampling.pep ~samples:64 ~stride:17;
            zero = `Hottest;
            numbering = `Smart;
          };
      inline = false;
      unroll = false;
      verify = true;
      deep_verify = false;
      engine = `Threaded;
      telemetry = None;
      faults = None;
    }
  in
  let d = Driver.create opts st in
  ignore (Driver.run d);
  ignore (Driver.run d);
  let pep = Option.get (Driver.pep d) in
  let planned, _total = Pep.n_instrumented pep in
  check cb "pep installed on opt methods" true (planned > 0);
  check cb "pep sampled" true (Pep.n_samples pep > 0)

let test_uninterruptible_never_promoted () =
  let hash =
    mdef ~uninterruptible:true "hash" ~params:[ "x" ]
      [
        set "a" (v "x");
        for_ "k" (i 0) (i 8) [ set "a" (bxor (v "a") (shl (v "a") (i 3))) ];
        ret (v "a");
      ]
  in
  let main =
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 5000)
          [ set "s" (add (v "s") (call "hash" [ v "k" ])) ];
        ret (v "s");
      ]
  in
  let program = Compile.program ~name:"t" ~main:"main" [ main; hash ] in
  let st = Machine.create ~seed:2 program in
  let d = Driver.create Driver.default_options st in
  ignore (Driver.run d);
  let advice = Driver.advice d in
  check ci "uninterruptible stays baseline" (-1)
    advice.Advice.levels.(Program.index program "hash")

let suite =
  [
    Alcotest.test_case "freq estimate" `Quick test_freq_estimate;
    Alcotest.test_case "layout: hot fallthrough" `Quick test_layout_hot_fallthrough;
    Alcotest.test_case "layout: flipped slower" `Quick test_layout_penalties_affect_cycles;
    Alcotest.test_case "advice roundtrip" `Quick test_advice_roundtrip;
    Alcotest.test_case "adaptive promotes" `Quick test_adaptive_promotes;
    Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
    Alcotest.test_case "replay compiles once" `Quick test_replay_compiles_at_first_invocation;
    Alcotest.test_case "driver with PEP" `Quick test_driver_with_pep;
    Alcotest.test_case "uninterruptible never promoted" `Quick
      test_uninterruptible_never_promoted;
  ]
