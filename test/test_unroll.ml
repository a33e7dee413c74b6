(* Loop unrolling: semantics preservation, branch-id sharing, and the
   interaction with suppressed yieldpoints. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let run_with_unroll program =
  let st = Machine.create ~seed:7 program in
  Program.iter_methods
    (fun midx m ->
      let r = Unroll.expand m in
      if r.Unroll.unrolled > 0 then begin
        ignore (Verify.block_depths program r.Unroll.meth);
        Machine.recompile st midx ~no_yieldpoint:r.Unroll.no_yieldpoint
          r.Unroll.meth
      end)
    program;
  Interp.run Interp.no_hooks st

let run_plain program =
  let st = Machine.create ~seed:7 program in
  Interp.run Interp.no_hooks st

let test_unroll_preserves_semantics () =
  let program =
    Compile.program ~name:"t" ~main:"main"
      [
        mdef "main" ~params:[]
          [
            set "s" (i 0);
            for_ "k" (i 0) (i 101)
              [
                if_ (eq (band (v "k") (i 3)) (i 0))
                  [ set "s" (add (v "s") (v "k")) ]
                  [ set "s" (add (v "s") (i 1)) ];
              ];
            ret (v "s");
          ];
      ]
  in
  check ci "same result" (run_plain program) (run_with_unroll program)

let test_unroll_duplicates_blocks_not_branches () =
  let m =
    Compile.method_
      (mdef "m" ~params:[]
         [
           set "s" (i 0);
           for_ "k" (i 0) (i 10)
             [ if_ (gt (v "k") (i 5)) [ set "s" (add (v "s") (i 1)) ] [] ];
           ret (v "s");
         ])
  in
  let r = Unroll.expand m in
  check ci "one loop unrolled" 1 r.Unroll.unrolled;
  check cb "blocks grew" true
    (Array.length r.Unroll.meth.Method.blocks > Array.length m.Method.blocks);
  (* the duplicated branches reuse the original bytecode branch ids *)
  check Alcotest.(list int) "branch ids unchanged"
    (Method.branch_ids m)
    (Method.branch_ids r.Unroll.meth)

let test_unroll_skips_multi_backedge () =
  (* a loop with continue has two back edges and must be left alone *)
  let m =
    Compile.method_
      (mdef "m" ~params:[]
         [
           set "s" (i 0);
           set "k" (i 0);
           while_
             (lt (v "k") (i 10))
             [
               set "k" (add (v "k") (i 1));
               if_ (eq (band (v "k") (i 1)) (i 0)) [ continue_ ] [];
               set "s" (add (v "s") (v "k"));
             ];
           ret (v "s");
         ])
  in
  let r = Unroll.expand m in
  check ci "not unrolled" 0 r.Unroll.unrolled

let test_unroll_respects_no_yieldpoint () =
  let m =
    Compile.method_
      (mdef "m" ~params:[]
         [
           set "s" (i 0);
           for_ "k" (i 0) (i 10) [ set "s" (add (v "s") (v "k")) ];
           ret (v "s");
         ])
  in
  (* flag every block: the loop must be skipped *)
  let all = Array.make (Array.length m.Method.blocks) true in
  let r = Unroll.expand ~no_yieldpoint:all m in
  check ci "suppressed loop not unrolled" 0 r.Unroll.unrolled

let test_unroll_halves_header_yieldpoints () =
  let program =
    Compile.program ~name:"t" ~main:"main"
      [
        mdef "main" ~params:[]
          [
            set "s" (i 0);
            for_ "k" (i 0) (i 100) [ set "s" (add (v "s") (i 1)) ];
            ret (v "s");
          ];
      ]
  in
  let count_yps program recompiled =
    let st = Machine.create ~seed:1 program in
    if recompiled then begin
      let m = Program.find program "main" in
      let r = Unroll.expand m in
      Machine.recompile st 0 ~no_yieldpoint:r.Unroll.no_yieldpoint r.Unroll.meth
    end;
    let n = ref 0 in
    let hooks =
      [ { Interp.layer with on_yieldpoint = Some (fun _ _ _ -> incr n) } ]
    in
    ignore (Interp.run hooks st);
    !n
  in
  let before = count_yps program false in
  let after = count_yps program true in
  (* the loop header executes half as often per completed pair *)
  check cb "fewer yieldpoint executions" true (after < before);
  check cb "roughly halved" true (after > before / 3)

let test_unroll_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"unrolling preserves semantics"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let program = Compile.pdef (Synthetic.program ~seed ~n_methods:3 ()) in
         run_plain program = run_with_unroll program))

let test_unroll_workloads () =
  List.iter
    (fun name ->
      let program = Workload.program ~size:2 (Suite.find name) in
      check ci name (run_plain program) (run_with_unroll program))
    [ "compress"; "db"; "fop"; "mpegaudio"; "pseudojbb"; "antlr" ]

let test_unroll_driver_end_to_end () =
  let env = Exp_harness.make_env ~seed:13 ~size:40 (Suite.find "fop") in
  let plain = Exp_harness.replay env Exp_harness.default in
  let unrolled =
    Exp_harness.replay env { Exp_harness.default with Exp_harness.unroll = true }
  in
  check ci "checksums agree" plain.Exp_harness.meas.checksum
    unrolled.Exp_harness.meas.checksum;
  check cb "loops unrolled" true
    (Driver.unrolled_loops unrolled.Exp_harness.driver > 0)

let suite =
  [
    Alcotest.test_case "preserves semantics" `Quick test_unroll_preserves_semantics;
    Alcotest.test_case "shares branch ids" `Quick test_unroll_duplicates_blocks_not_branches;
    Alcotest.test_case "skips multi-back-edge loops" `Quick test_unroll_skips_multi_backedge;
    Alcotest.test_case "respects no-yieldpoint" `Quick test_unroll_respects_no_yieldpoint;
    Alcotest.test_case "halves header yieldpoints" `Quick test_unroll_halves_header_yieldpoints;
    test_unroll_qcheck;
    Alcotest.test_case "workloads preserved" `Quick test_unroll_workloads;
    Alcotest.test_case "driver end-to-end" `Quick test_unroll_driver_end_to_end;
  ]
