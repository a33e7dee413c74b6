(* Runtime-layer details: the tick driver, machine state transitions,
   cost-model accounting, and report statistics. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cf = Alcotest.float 1e-9

let looped_program n =
  Compile.program ~name:"t" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i n) [ set "s" (add (v "s") (i 1)) ];
          ret (v "s");
        ];
    ]

let test_tick_driver_rearms () =
  let program = looped_program 20_000 in
  let st = Machine.create ~tick_offset:1000 ~seed:1 program in
  let ticks = ref 0 in
  let hooks = Tick.hooks ~on_tick:(fun _ _ -> incr ticks) () in
  ignore (Interp.run hooks st);
  let expected = st.Machine.cycles / st.Machine.cost.Cost_model.tick_period in
  check cb "several ticks fired" true (!ticks >= 1);
  (* rearming is period-spaced: tick count within one of cycles/period *)
  check cb "tick count consistent with period" true (abs (!ticks - expected) <= 1);
  check cb "flag cleared after handling" true (not st.Machine.yield_flag)

let test_tick_pending_token () =
  let program = looped_program 20_000 in
  let st = Machine.create ~tick_offset:1000 ~seed:1 program in
  ignore (Interp.run (Tick.hooks ()) st);
  (* nothing consumed the token: it must still be raised *)
  check cb "token raised" true st.Machine.tick_pending

let test_sampling_hooks_count_methods () =
  let program = looped_program 50_000 in
  let st = Machine.create ~tick_offset:1000 ~seed:1 program in
  let hooks, samples = Tick.sampling_hooks st in
  ignore (Interp.run hooks st);
  check cb "main sampled" true (samples.(Program.index program "main") > 0)

let test_set_speed_scales_cycles () =
  let program = looped_program 10_000 in
  let run percent =
    let st = Machine.create ~seed:1 program in
    Machine.set_speed st 0 ~percent;
    ignore (Interp.run Interp.no_hooks st);
    st.Machine.cycles
  in
  let fast = run 100 and slow = run 500 in
  check cb "5x speed percent ~ 5x cycles" true
    (slow > 4 * fast && slow < 6 * fast)

let test_edge_extra_charged () =
  let program = looped_program 1000 in
  let run extra =
    let st = Machine.create ~seed:1 program in
    let cm = Machine.cmeth st 0 in
    Cfg.iter_blocks
      (fun b ->
        cm.Machine.edge_extra.(b).(0) <- extra;
        cm.Machine.edge_extra.(b).(1) <- extra)
      cm.Machine.cfg;
    ignore (Interp.run Interp.no_hooks st);
    st.Machine.cycles
  in
  let base = run 0 and penalized = run 10 in
  check cb "penalties add cycles" true (penalized > base);
  Machine.clear_edge_extra (Machine.create ~seed:1 program) 0

let test_clear_edge_extra () =
  let program = looped_program 10 in
  let st = Machine.create ~seed:1 program in
  let cm = Machine.cmeth st 0 in
  cm.Machine.edge_extra.(0).(0) <- 99;
  Machine.clear_edge_extra st 0;
  check ci "cleared" 0 cm.Machine.edge_extra.(0).(0)

let test_cost_model_instr_costs () =
  let c = Cost_model.default in
  check ci "arith" c.Cost_model.arith (Cost_model.instr_cost c (Instr.Const 1));
  check ci "memory" c.Cost_model.memory (Cost_model.instr_cost c Instr.AGet);
  check ci "call" c.Cost_model.call (Cost_model.instr_cost c (Instr.Call ("f", 1)));
  check ci "rand" c.Cost_model.rand (Cost_model.instr_cost c (Instr.Rand 5));
  check cb "count dearer than edge count" true
    (c.Cost_model.count_update > c.Cost_model.edge_count);
  check cb "r update cheapest" true (c.Cost_model.r_update < c.Cost_model.edge_count)

let test_prng_distribution () =
  let prng = Prng.create ~seed:99 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.below prng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun b n ->
      if n < 700 || n > 1300 then
        Alcotest.failf "bucket %d badly skewed: %d/10000" b n)
    buckets;
  (* copy forks the stream *)
  let a = Prng.create ~seed:5 in
  let b = Prng.copy a in
  check ci "copies agree" (Prng.next a) (Prng.next b)

let test_report_stats () =
  check cf "mean" 2.0 (Exp_report.mean [ 1.; 2.; 3. ]);
  check cf "mean empty" 0.0 (Exp_report.mean []);
  check cf "median odd" 2.0 (Exp_report.median [ 3.; 1.; 2. ]);
  check cf "median even" 2.5 (Exp_report.median [ 4.; 1.; 2.; 3. ]);
  check cf "geomean" 2.0 (Exp_report.geomean [ 1.; 4. ]);
  check cf "overhead" 50.0 (Exp_report.overhead ~base:100 150);
  check cf "overhead negative" (-25.0) (Exp_report.overhead ~base:100 75)

let test_uninterruptible_no_yieldpoints () =
  let program =
    Compile.program ~name:"t" ~main:"main"
      [
        mdef ~uninterruptible:true "main" ~params:[]
          [
            set "s" (i 0);
            for_ "k" (i 0) (i 100) [ set "s" (add (v "s") (i 1)) ];
            ret (v "s");
          ];
      ]
  in
  let st = Machine.create ~tick_offset:1 ~seed:1 program in
  let polled = ref 0 in
  let hooks =
    [ { Interp.layer with on_yieldpoint = Some (fun _ _ _ -> incr polled) } ]
  in
  ignore (Interp.run hooks st);
  check ci "no yieldpoints executed" 0 !polled

let test_machine_index () =
  let program = looped_program 1 in
  let st = Machine.create ~seed:1 program in
  check ci "main index" 0 (Machine.index st "main");
  match Machine.index st "nope" with
  | (_ : int) -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

let suite =
  [
    Alcotest.test_case "tick driver rearms" `Quick test_tick_driver_rearms;
    Alcotest.test_case "tick pending token" `Quick test_tick_pending_token;
    Alcotest.test_case "method sampling" `Quick test_sampling_hooks_count_methods;
    Alcotest.test_case "set_speed scales" `Quick test_set_speed_scales_cycles;
    Alcotest.test_case "edge extras charged" `Quick test_edge_extra_charged;
    Alcotest.test_case "clear edge extras" `Quick test_clear_edge_extra;
    Alcotest.test_case "instr costs" `Quick test_cost_model_instr_costs;
    Alcotest.test_case "prng distribution" `Quick test_prng_distribution;
    Alcotest.test_case "report statistics" `Quick test_report_stats;
    Alcotest.test_case "uninterruptible: no yieldpoints" `Quick
      test_uninterruptible_no_yieldpoints;
    Alcotest.test_case "machine index" `Quick test_machine_index;
  ]
