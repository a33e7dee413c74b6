(* Interpreter semantics and cost accounting. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int

let run_main ?(seed = 1) ?(n_globals = 8) ?(heap_size = 16) defs =
  let p = Compile.program ~name:"t" ~n_globals ~heap_size ~main:"main" defs in
  Verify.program p;
  let st = Machine.create ~seed p in
  (Interp.run Interp.no_hooks st, st)

let test_arith () =
  let r, _ =
    run_main
      [
        mdef "main" ~params:[]
          [
            set "a" (add (mul (i 6) (i 7)) (sub (i 10) (i 3)));
            set "a" (bxor (v "a") (i 5));
            set "a" (shl (v "a") (i 2));
            set "a" (shr (v "a") (i 1));
            set "a" (rem (v "a") (i 100));
            ret (v "a");
          ];
      ]
  in
  (* ((42+7) xor 5) = 52; 52<<2 = 208; >>1 = 104; mod 100 = 4 *)
  check ci "arith" 4 r

let test_div_by_zero () =
  let r, _ =
    run_main
      [ mdef "main" ~params:[] [ ret (add (div (i 7) (i 0)) (rem (i 7) (i 0))) ] ]
  in
  check ci "div/rem by zero yield 0" 0 r

let test_factorial () =
  let fact =
    mdef "fact" ~params:[ "n" ]
      [
        if_ (le (v "n") (i 1)) [ ret (i 1) ] [];
        ret (mul (v "n") (call "fact" [ sub (v "n") (i 1) ]));
      ]
  in
  let main = mdef "main" ~params:[] [ ret (call "fact" [ i 10 ]) ] in
  let r, _ = run_main [ main; fact ] in
  check ci "10!" 3628800 r

let test_fib_loop () =
  let main =
    mdef "main" ~params:[]
      [
        set "a" (i 0);
        set "b" (i 1);
        for_ "k" (i 0) (i 20)
          [ set "t" (add (v "a") (v "b")); set "a" (v "b"); set "b" (v "t") ];
        ret (v "a");
      ]
  in
  let r, _ = run_main [ main ] in
  check ci "fib 20" 6765 r

let test_heap_wraparound () =
  let main =
    mdef "main" ~params:[]
      [
        hset (i 20) (i 7);
        (* heap_size 16: index 20 wraps to 4; negative index -12 wraps to 4 *)
        ret (h (neg (i 12)));
      ]
  in
  let r, _ = run_main ~heap_size:16 [ main ] in
  check ci "wrap" 7 r

let test_globals_shared_across_calls () =
  let inc = mdef "bump" ~params:[ "x" ] [ gset 0 (add (g 0) (v "x")); ret (g 0) ] in
  let main =
    mdef "main" ~params:[]
      [ expr (call "bump" [ i 5 ]); expr (call "bump" [ i 6 ]); ret (g 0) ]
  in
  let r, _ = run_main [ main; inc ] in
  check ci "globals" 11 r

let test_call_arg_order () =
  let f = mdef "f" ~params:[ "a"; "b" ] [ ret (sub (v "a") (v "b")) ] in
  let main = mdef "main" ~params:[] [ ret (call "f" [ i 10; i 3 ]) ] in
  let r, _ = run_main [ main; f ] in
  check ci "args in order" 7 r

let test_rand_deterministic () =
  let main =
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 100) [ set "s" (add (v "s") (rnd 1000)) ];
        ret (v "s");
      ]
  in
  let r1, _ = run_main ~seed:7 [ main ] in
  let r2, _ = run_main ~seed:7 [ main ] in
  let r3, _ = run_main ~seed:8 [ main ] in
  check ci "same seed same stream" r1 r2;
  check Alcotest.bool "different seed different stream" true (r1 <> r3)

let test_cycles_accumulate () =
  let body n =
    [
      set "s" (i 0);
      for_ "k" (i 0) (i n) [ set "s" (add (v "s") (v "k")) ];
      ret (v "s");
    ]
  in
  let _, st1 = run_main [ mdef "main" ~params:[] (body 10) ] in
  let _, st2 = run_main [ mdef "main" ~params:[] (body 1000) ] in
  check Alcotest.bool "more work, more cycles" true
    (st2.Machine.cycles > st1.Machine.cycles * 10)

let test_stack_overflow () =
  let f = mdef "f" ~params:[ "x" ] [ ret (call "f" [ add (v "x") (i 1) ]) ] in
  let main = mdef "main" ~params:[] [ ret (call "f" [ i 0 ]) ] in
  let p = Compile.program ~name:"t" ~main:"main" [ main; f ] in
  let st = Machine.create ~seed:1 p in
  match Interp.run Interp.no_hooks st with
  | (_ : int) -> Alcotest.fail "expected Runtime_error"
  | exception Interp.Runtime_error _ -> ()

let test_timer_flag_sets () =
  (* with a tiny first tick, the flag must be raised at some yieldpoint *)
  let main =
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 50) [ set "s" (add (v "s") (i 1)) ];
        ret (v "s");
      ]
  in
  let p = Compile.program ~name:"t" ~main:"main" [ main ] in
  let st = Machine.create ~tick_offset:10 ~seed:1 p in
  let seen = ref false in
  let hooks =
    [
      {
        Interp.layer with
        on_yieldpoint =
          Some (fun (st : Machine.t) _ _ -> if st.yield_flag then seen := true);
      };
    ]
  in
  ignore (Interp.run hooks st);
  check Alcotest.bool "flag observed" true !seen

let test_edge_hook_sees_all_branches () =
  let main =
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 10)
          [ if_ (eq (band (v "k") (i 1)) (i 0)) [ set "s" (add (v "s") (i 1)) ] [] ];
        ret (v "s");
      ]
  in
  let p = Compile.program ~name:"t" ~main:"main" [ main ] in
  let st = Machine.create ~seed:1 p in
  let taken = ref 0 and not_taken = ref 0 in
  let cm = Machine.cmeth st 0 in
  let hooks =
    [
      {
        Interp.layer with
        on_edge =
          Some
            (fun _ _ ~src ~idx ~dst:_ ->
              match Cfg.terminator cm.Machine.cfg src with
              | Cfg.Branch _ -> if idx = 0 then incr taken else incr not_taken
              | Cfg.Return | Cfg.Jump _ -> ());
      };
    ]
  in
  let r = Interp.run hooks st in
  check ci "result" 5 r;
  (* for-loop header: 10 taken + 1 exit; inner if: 5/5 *)
  check ci "taken" 15 !taken;
  check ci "not taken" 6 !not_taken

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "recursion: factorial" `Quick test_factorial;
    Alcotest.test_case "loop: fibonacci" `Quick test_fib_loop;
    Alcotest.test_case "heap wraparound" `Quick test_heap_wraparound;
    Alcotest.test_case "globals shared" `Quick test_globals_shared_across_calls;
    Alcotest.test_case "call argument order" `Quick test_call_arg_order;
    Alcotest.test_case "rand determinism" `Quick test_rand_deterministic;
    Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "timer flag" `Quick test_timer_flag_sets;
    Alcotest.test_case "edge hook coverage" `Quick test_edge_hook_sees_all_branches;
  ]
