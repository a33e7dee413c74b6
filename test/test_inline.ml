(* Inlining, the dynamic call graph, method replacement, and profiling
   over inlined code. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let small_program () =
  Compile.program ~name:"t" ~main:"main"
    [
      mdef "add3" ~params:[ "x" ] [ ret (add (v "x") (i 3)) ];
      mdef "twice" ~params:[ "x" ]
        [
          if_ (gt (v "x") (i 100))
            [ ret (v "x") ]
            [ ret (mul (call "add3" [ v "x" ]) (i 2)) ];
        ];
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 50)
            [
              set "s" (add (v "s") (call "add3" [ v "k" ]));
              set "s" (add (v "s") (call "add3" [ neg (v "k") ]));
              set "s" (add (v "s") (call "twice" [ v "k" ]));
            ];
          ret (v "s");
        ];
    ]

let run_program program =
  let st = Machine.create ~seed:3 program in
  Interp.run Interp.no_hooks st

(* Run with every method's body replaced by its fully-inlined expansion. *)
let run_inlined program ~should_inline =
  let st = Machine.create ~seed:3 program in
  let total_sites = ref 0 in
  Program.iter_methods
    (fun midx m ->
      let r = Inline.expand program m ~should_inline in
      if r.Inline.inlined <> [] then begin
        total_sites :=
          !total_sites + List.fold_left (fun a (_, n) -> a + n) 0 r.inlined;
        Machine.recompile st midx ~no_yieldpoint:r.no_yieldpoint r.meth
      end)
    program;
  (Interp.run Interp.no_hooks st, !total_sites)

let test_inline_preserves_semantics () =
  let program = small_program () in
  let expected = run_program program in
  let got, sites = run_inlined program ~should_inline:(fun _ -> true) in
  check ci "same result" expected got;
  (* main has 3 call sites; twice has 1 *)
  check ci "sites expanded" 4 sites

let test_inline_shares_branch_ids () =
  let program = small_program () in
  let main = Program.find program "main" in
  let r = Inline.expand program main ~should_inline:(fun _ -> true) in
  (* main has 1 original branch (the for header); `twice` contributes one
     branch.  add3 contributes none, and its two copies must not add ids. *)
  check ci "branch count after inlining" 2 (Method.n_branches r.Inline.meth);
  check cb "body grew" true (Method.size r.Inline.meth > Method.size main);
  check cb "locals grew" true (r.Inline.meth.Method.nlocals > main.Method.nlocals)

let test_inline_verifies () =
  let program = small_program () in
  Program.iter_methods
    (fun _ m ->
      let r = Inline.expand program m ~should_inline:(fun _ -> true) in
      ignore (Verify.block_depths program r.Inline.meth);
      ignore (To_cfg.cfg r.Inline.meth))
    program

let test_inline_skips_recursion () =
  let fact =
    mdef "fact" ~params:[ "n" ]
      [
        if_ (le (v "n") (i 1)) [ ret (i 1) ] [];
        ret (mul (v "n") (call "fact" [ sub (v "n") (i 1) ]));
      ]
  in
  let main = mdef "main" ~params:[] [ ret (call "fact" [ i 10 ]) ] in
  let program = Compile.program ~name:"t" ~main:"main" [ main; fact ] in
  let fact_m = Program.find program "fact" in
  let r = Inline.expand program fact_m ~should_inline:(fun _ -> true) in
  check cb "self-call not inlined" true (r.Inline.inlined = []);
  (* inlining fact into main is fine (one level) *)
  let got, _ = run_inlined program ~should_inline:(fun _ -> true) in
  check ci "factorial preserved" 3628800 got

let test_inline_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"inlining preserves semantics"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let program = Compile.pdef (Synthetic.program ~seed ~n_methods:4 ()) in
         let expected =
           let st = Machine.create ~seed program in
           Interp.run Interp.no_hooks st
         in
         let st = Machine.create ~seed program in
         Program.iter_methods
           (fun midx m ->
             let r =
               Inline.expand program m
                 ~should_inline:(Inline.small_enough ~limit:80)
             in
             if r.Inline.inlined <> [] then begin
               ignore (Verify.block_depths program r.Inline.meth);
               Machine.recompile st midx ~no_yieldpoint:r.no_yieldpoint
                 r.Inline.meth
             end)
           program;
         Interp.run Interp.no_hooks st = expected))

let test_uninterruptible_inline_suppresses_yieldpoints () =
  let hash =
    mdef ~uninterruptible:true "hash" ~params:[ "x" ]
      [
        set "a" (v "x");
        for_ "k" (i 0) (i 4) [ set "a" (bxor (v "a") (shl (v "a") (i 5))) ];
        ret (v "a");
      ]
  in
  let main =
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 100) [ set "s" (add (v "s") (call "hash" [ v "k" ])) ];
        ret (v "s");
      ]
  in
  let program = Compile.program ~name:"t" ~main:"main" [ main; hash ] in
  let expected = run_program program in
  let st = Machine.create ~seed:3 program in
  let main_idx = Program.index program "main" in
  let r =
    Inline.expand program (Program.find program "main")
      ~should_inline:(fun _ -> true)
  in
  check cb "some blocks lost their yieldpoint eligibility" true
    (Array.exists Fun.id r.Inline.no_yieldpoint);
  Machine.recompile st main_idx ~no_yieldpoint:r.no_yieldpoint r.Inline.meth;
  let cm = Machine.cmeth st main_idx in
  (* main now has two loops, but only its own header keeps a yieldpoint *)
  let headers = Loops.headers cm.Machine.loops in
  check ci "two loops after inlining" 2 (List.length headers);
  let with_yp = List.filter (fun h -> cm.Machine.yieldpoint.(h)) headers in
  check ci "one sampleable header" 1 (List.length with_yp);
  (* the plan cuts the unsampleable header's back edge silently *)
  let plan =
    Option.get
      (Profile_hooks.plan_for ~mode:Dag.Loop_header
         ~number:(fun _ dag -> Numbering.ball_larus dag)
         st main_idx)
  in
  let silent_cuts =
    List.length
      (List.filter
         (function Dag.Cut_edge _ -> true | Dag.Split_header _ -> false)
         (Dag.truncations
            (Numbering.dag plan.Instrument.numbering)))
  in
  check ci "one silent cut" 1 silent_cuts;
  check ci "semantics preserved" expected (Interp.run Interp.no_hooks st)

let test_two_layers_coexist () =
  (* PEP and a perfect profiler in the same run: private registers keep
     them independent, and their dense-sampling profiles agree *)
  let program = Workload.program ~size:3 (Suite.find "jess") in
  let st = Machine.create ~tick_offset:1 ~seed:5 program in
  let perfect = Profiler.perfect_path st in
  let pep = Pep.create ~sampling:(Sampling.pep ~samples:max_int ~stride:1) st in
  let hooks =
    Tick.hooks () @ perfect.Profiler.hooks @ pep.Pep.hooks
  in
  ignore (Interp.run hooks st);
  (* every PEP-sampled path must exist in the perfect table *)
  Array.iteri
    (fun m prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          match Path_profile.find perfect.Profiler.table.(m) e.path_id with
          | Some pe ->
              check cb "count bounded" true (e.count <= pe.Path_profile.count)
          | None -> Alcotest.fail "phantom path under double instrumentation")
        prof)
    pep.Pep.paths

let test_dcg () =
  let d = Dcg.create () in
  Dcg.record d ~caller:0 ~callee:1;
  Dcg.record d ~caller:0 ~callee:1;
  Dcg.record d ~caller:2 ~callee:1;
  Dcg.record d ~caller:(-1) ~callee:0;
  check ci "weight" 2 (Dcg.weight d ~caller:0 ~callee:1);
  check ci "callee weight" 3 (Dcg.callee_weight d ~callee:1);
  check ci "total" 4 (Dcg.total d);
  (match Dcg.edges d with
  | (0, 1, 2) :: _ -> ()
  | _ -> Alcotest.fail "heaviest edge first");
  let d' = Dcg.create () in
  List.iter
    (fun (caller, callee, w) ->
      match Dcg.set_row d' ~caller ~callee w with
      | Ok () -> ()
      | Error e -> Alcotest.failf "edge %d -> %d rejected: %s" caller callee e)
    (Dcg.edges d);
  check ci "roundtrip total" (Dcg.total d) (Dcg.total d');
  check ci "roundtrip weight" 2 (Dcg.weight d' ~caller:0 ~callee:1);
  check Alcotest.(list string) "roundtrip lines" (Dcg.to_lines d) (Dcg.to_lines d');
  (match Dcg.set_row d' ~caller:0 ~callee:1 0 with
  | Ok () -> Alcotest.fail "a weight of 0 accepted"
  | Error _ -> check ci "rejected edge left alone" 2 (Dcg.weight d' ~caller:0 ~callee:1));
  (* the text an advice carries goes through [set_row] *)
  match Advice.of_lines ~file:"t.advice" ~n_methods:2 [ "dcg 0 1 2"; "dcg 0 1 0" ] with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      check Alcotest.string "error rendering"
        "t.advice:2: expected three integers with a positive weight (in \"dcg 0 1 0\")"
        (Fmt.str "%a" Dcg.pp_parse_error e)

let test_driver_samples_dcg () =
  let program = small_program () in
  let st = Machine.create ~tick_offset:100 ~seed:3 program in
  let d = Driver.create Driver.default_options st in
  ignore (Driver.run d);
  check cb "dcg sampled" true (Dcg.total (Driver.dcg d) > 0)

let test_recompile_swaps_body () =
  let program =
    Compile.program ~name:"t" ~main:"main"
      [
        mdef "f" ~params:[ "x" ] [ ret (i 1) ];
        mdef "main" ~params:[] [ ret (call "f" [ i 0 ]) ];
      ]
  in
  let st = Machine.create ~seed:1 program in
  check ci "original" 1 (Interp.run Interp.no_hooks st);
  let replacement =
    Compile.method_ (mdef "f" ~params:[ "x" ] [ ret (i 42) ])
  in
  Machine.recompile st (Program.index program "f") replacement;
  check ci "replaced" 42 (Interp.run Interp.no_hooks st)

let test_inline_driver_end_to_end () =
  (* the same workload, replayed with and without inlining, must agree on
     the checksum and the inlined run must not be slower *)
  let env = Exp_harness.make_env ~seed:9 ~size:40 (Suite.find "jack") in
  let plain = Exp_harness.replay env Exp_harness.default in
  let inlined =
    Exp_harness.replay env { Exp_harness.default with Exp_harness.inline = true }
  in
  check ci "checksums agree" plain.Exp_harness.meas.checksum
    inlined.Exp_harness.meas.checksum;
  check cb "inlining does not slow down" true
    (inlined.Exp_harness.meas.iter2 <= plain.Exp_harness.meas.iter2);
  check cb "sites inlined" true
    (Driver.inlined_sites inlined.Exp_harness.driver > 0)

let suite =
  [
    Alcotest.test_case "preserves semantics" `Quick test_inline_preserves_semantics;
    Alcotest.test_case "shares branch ids" `Quick test_inline_shares_branch_ids;
    Alcotest.test_case "verifies" `Quick test_inline_verifies;
    Alcotest.test_case "skips recursion" `Quick test_inline_skips_recursion;
    test_inline_qcheck;
    Alcotest.test_case "uninterruptible loses yieldpoints" `Quick
      test_uninterruptible_inline_suppresses_yieldpoints;
    Alcotest.test_case "two profiling layers coexist" `Quick test_two_layers_coexist;
    Alcotest.test_case "dcg" `Quick test_dcg;
    Alcotest.test_case "driver samples dcg" `Quick test_driver_samples_dcg;
    Alcotest.test_case "recompile swaps body" `Quick test_recompile_swaps_body;
    Alcotest.test_case "inline driver end-to-end" `Quick test_inline_driver_end_to_end;
  ]
