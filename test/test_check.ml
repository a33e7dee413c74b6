(* The Pep_check static-analysis passes: every workload and random
   synthetic program must come through clean, each seeded mutation must
   be rejected by the pass that owns the broken invariant with a located
   diagnostic, the numbering audit must witness the path-id bijection
   exhaustively, and Instr.stack_effect — which the bytecode verifier
   consumes — must agree with what the interpreter actually does on
   every opcode. *)

let check = Alcotest.check
let ci = Alcotest.int

let no_errors what diags =
  match Pep_check.errors diags with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: unexpected %a" what Pep_check.pp_diagnostic d

let has_error_at what pred diags =
  if
    not
      (List.exists
         (fun (d : Pep_check.diagnostic) ->
           d.severity = Pep_check.Error && pred d)
         diags)
  then Alcotest.failf "%s: expected a located error; got:@.%a" what
      Pep_check.pp_report diags

let first_method_with pred =
  let found = ref None in
  List.iter
    (fun (w : Workload.t) ->
      if !found = None then begin
        let p = Workload.program ~size:2 w in
        Program.iter_methods
          (fun _ m -> if !found = None && pred m then found := Some (p, m))
          p
      end)
    Suite.all;
  match !found with
  | Some x -> x
  | None -> Alcotest.fail "no suite method matches the predicate"

let copy_blocks (m : Method.t) = Array.map Fun.id m.Method.blocks

(* --- acceptance ---------------------------------------------------- *)

let test_suite_accepted () =
  List.iter
    (fun (w : Workload.t) ->
      no_errors w.Workload.name
        (Pep_check.check_program_static (Workload.program ~size:2 w)))
    Suite.all

let test_synthetic_accepted () =
  for seed = 300 to 320 do
    let p = Compile.pdef (Synthetic.program ~seed ()) in
    no_errors
      ("synthetic seed " ^ string_of_int seed)
      (Pep_check.check_program_static p)
  done

(* --- pass 1 rejections --------------------------------------------- *)

(* Each seeded pass-1 mutation gives the program, the mutated method and
   where its error must be located. *)
let corrupt_jump () =
  let p, m =
    first_method_with (fun m ->
        Array.exists
          (fun (b : Method.block) ->
            match b.Method.term with Method.Jmp _ -> true | _ -> false)
          m.Method.blocks)
  in
  let blocks = copy_blocks m in
  let bid = ref (-1) in
  Array.iteri
    (fun i (b : Method.block) ->
      match b.Method.term with
      | Method.Jmp _ when !bid < 0 -> bid := i
      | _ -> ())
    blocks;
  let bid = !bid in
  blocks.(bid) <- { (blocks.(bid)) with Method.term = Method.Jmp 9999 };
  ( p,
    { m with Method.blocks },
    fun (d : Pep_check.diagnostic) ->
      match d.loc with Pep_check.Block_loc (_, b) -> b = bid | _ -> false )

let stack_underflow () =
  let p, m = first_method_with (fun _ -> true) in
  let blocks = copy_blocks m in
  let eb = blocks.(m.Method.entry) in
  blocks.(m.Method.entry) <-
    { eb with Method.body = Array.append [| Instr.Pop |] eb.Method.body };
  ( p,
    { m with Method.blocks },
    fun (d : Pep_check.diagnostic) ->
      match d.loc with
      | Pep_check.Instr_loc (_, b, 0) -> b = m.Method.entry
      | _ -> false )

let unbalanced_push () =
  let p, m = first_method_with (fun _ -> true) in
  let blocks = copy_blocks m in
  let eb = blocks.(m.Method.entry) in
  blocks.(m.Method.entry) <-
    { eb with Method.body = Array.append [| Instr.Const 1 |] eb.Method.body };
  ( p,
    { m with Method.blocks },
    fun (d : Pep_check.diagnostic) -> d.pass = "bytecode" )

(* a method that calls another: retarget the first call with a wrong
   argc *)
let bad_call_arity () =
  let p, m =
    first_method_with (fun m ->
        Array.exists
          (fun (b : Method.block) ->
            Array.exists
              (function Instr.Call _ -> true | _ -> false)
              b.Method.body)
          m.Method.blocks)
  in
  let blocks = copy_blocks m in
  let loc = ref None in
  Array.iteri
    (fun bi (b : Method.block) ->
      Array.iteri
        (fun ii ins ->
          match ins with
          | Instr.Call (callee, argc) when !loc = None ->
              let body = Array.map Fun.id b.Method.body in
              body.(ii) <- Instr.Call (callee, argc + 1);
              blocks.(bi) <- { b with Method.body = body };
              loc := Some (bi, ii)
          | _ -> ())
        b.Method.body)
    blocks;
  let bi, ii = Option.get !loc in
  ( p,
    { m with Method.blocks },
    fun (d : Pep_check.diagnostic) ->
      match d.loc with
      | Pep_check.Instr_loc (_, b, i) -> b = bi && i = ii
      | _ -> false )

let pass1_mutations =
  [
    ("corrupt jump target", corrupt_jump);
    ("extra pop at entry", stack_underflow);
    ("extra push at entry", unbalanced_push);
    ("wrong call arity", bad_call_arity);
  ]

let rejected what mutation () =
  let p, m, at = mutation () in
  has_error_at what at (Pep_check.verify_method p m)

let test_reject_corrupt_jump = rejected "corrupt jump target" corrupt_jump
let test_reject_stack_underflow = rejected "extra pop at entry" stack_underflow
let test_reject_unbalanced_push = rejected "extra push at entry" unbalanced_push
let test_reject_bad_call_arity = rejected "wrong call arity" bad_call_arity

(* The loaders' raise-first interface and pass 1 are one verifier: what
   {!Verify.block_depths} raises names the location and the text of the
   first error pass 1 reports. *)
let test_one_wording () =
  List.iter
    (fun (what, mutation) ->
      let p, m, _ = mutation () in
      let first =
        match Pep_check.errors (Pep_check.verify_method p m) with
        | d :: _ -> d
        | [] -> Alcotest.failf "%s: pass 1 accepts it" what
      in
      match Verify.block_depths p m with
      | _ -> Alcotest.failf "%s: Verify.block_depths accepts it" what
      | exception Verify.Error msg ->
          check Alcotest.string what
            (Fmt.str "%a: %s" Pep_check.pp_location first.loc first.message)
            msg)
    pass1_mutations

(* --- pass 3: numbering --------------------------------------------- *)

let each_profilable_dag f =
  List.iter
    (fun (w : Workload.t) ->
      let p = Workload.program ~size:2 w in
      Program.iter_methods
        (fun _ (m : Method.t) ->
          let cfg = To_cfg.cfg m in
          List.iter
            (fun mode ->
              match Dag.build mode cfg with
              | dag -> f (w.Workload.name ^ "/" ^ m.Method.name) dag
              | exception Dag.Unsupported _ -> ())
            [ Dag.Back_edge; Dag.Loop_header ])
        p)
    Suite.all

let test_bijection_exhaustive () =
  (* every path id of every suite method, both truncation modes,
     reconstructs and sums back to itself *)
  let audited = ref 0 in
  each_profilable_dag (fun what dag ->
      match Numbering.ball_larus dag with
      | n ->
          incr audited;
          no_errors what
            (Pep_check.audit_numbering ~enumerate_limit:100_000 n)
      | exception Numbering.Too_many_paths _ -> ());
  check ci "every suite method audited in both modes" 0
    (if !audited >= 2 * List.length Suite.all then 0 else !audited)

let test_smart_numbering_audited () =
  each_profilable_dag (fun what dag ->
      let freq (e : Dag.edge) = 1 + (e.Dag.idx * 7919 mod 101) in
      List.iter
        (fun zero ->
          match Numbering.smart ~zero ~freq dag with
          | n ->
              no_errors what (Pep_check.audit_numbering n);
              no_errors what (Pep_check.audit_zero_arms ~zero ~freq n)
          | exception Numbering.Too_many_paths _ -> ())
        [ `Hottest; `Coldest ])

let test_reject_zeroed_value () =
  let _, m =
    first_method_with (fun m ->
        (not m.Method.uninterruptible) && Method.n_branches m > 0)
  in
  let dag = Dag.build Dag.Back_edge (To_cfg.cfg m) in
  let n = Numbering.ball_larus dag in
  let victim = ref None in
  Dag.iter_edges
    (fun e -> if !victim = None && Numbering.value n e > 0 then victim := Some e)
    dag;
  let victim = Option.get !victim in
  let value e =
    if e.Dag.idx = victim.Dag.idx then 0 else Numbering.value n e
  in
  has_error_at "zeroed edge value"
    (fun d ->
      match d.loc with
      | Pep_check.Node_loc (_, v) -> v = victim.Dag.esrc
      | _ -> false)
    (Pep_check.audit_values dag ~value)

(* --- pass 4: profile lint ------------------------------------------ *)

(* Two sequential if-diamonds: the join couples the two branch counters,
   so corrupting either one breaks Kirchhoff flow detectably. *)
let diamond_program () =
  let blk body term = { Method.body = Array.of_list body; term } in
  let m =
    {
      Method.name = "main";
      nparams = 0;
      nlocals = 1;
      blocks =
        [|
          blk [ Instr.Rand 2 ]
            (Method.Br { branch = 0; on_true = 1; on_false = 2 });
          blk [ Instr.Const 1; Instr.Store 0 ] (Method.Jmp 3);
          blk [ Instr.Const 2; Instr.Store 0 ] (Method.Jmp 3);
          blk [ Instr.Rand 2 ]
            (Method.Br { branch = 1; on_true = 4; on_false = 5 });
          blk [] (Method.Jmp 6);
          blk [] (Method.Jmp 6);
          blk [ Instr.Load 0 ] Method.Ret;
        |];
      entry = 0;
      exit_ = 6;
      uninterruptible = false;
    }
  in
  Program.create ~name:"diamond" ~n_globals:0 ~heap_size:1 ~main:"main" [ m ]

let test_reject_corrupt_flow () =
  let p = diamond_program () in
  no_errors "diamond static" (Pep_check.check_program_static p);
  let st = Machine.create ~seed:11 p in
  let truth = Profiler.perfect_edge st in
  ignore (Interp.run truth.Profiler.ehooks st);
  let cfg = (Machine.cmeth st 0).Machine.cfg in
  let profile = truth.Profiler.etable.(0) in
  no_errors "pristine flow" (Pep_check.lint_edge_profile ~exact:true cfg profile);
  let c = Option.get (Edge_profile.counter profile 0) in
  c.Edge_profile.taken <- c.Edge_profile.taken + 1;
  has_error_at "bumped counter breaks flow"
    (fun (d : Pep_check.diagnostic) -> d.pass = "profile")
    (Pep_check.lint_edge_profile ~exact:true cfg profile);
  c.Edge_profile.taken <- c.Edge_profile.taken - 1;
  c.Edge_profile.not_taken <- -1;
  has_error_at "negative counter"
    (fun d ->
      match d.loc with Pep_check.Branch_loc (_, 0) -> true | _ -> false)
    (Pep_check.lint_edge_profile ~exact:false cfg profile)

let test_reject_foreign_branch () =
  let p = diamond_program () in
  let st = Machine.create ~seed:11 p in
  let cfg = (Machine.cmeth st 0).Machine.cfg in
  let profile = Edge_profile.create () in
  Edge_profile.incr profile 42 ~taken:true;
  has_error_at "unknown branch id"
    (fun d ->
      match d.loc with Pep_check.Branch_loc (_, 42) -> true | _ -> false)
    (Pep_check.lint_edge_profile ~exact:false cfg profile)

let test_reject_bad_path_profile () =
  let p = diamond_program () in
  let dag = Dag.build Dag.Loop_header (To_cfg.cfg (Program.find p "main")) in
  let n = Numbering.ball_larus dag in
  check ci "diamond has 4 paths" 4 (Numbering.n_paths n);
  let profile = Path_profile.create () in
  Path_profile.incr profile 2;
  no_errors "valid path id" (Pep_check.lint_path_profile n profile);
  Path_profile.incr profile 7;
  has_error_at "path id out of range"
    (fun d ->
      match d.loc with Pep_check.Path_loc (_, 7) -> true | _ -> false)
    (Pep_check.lint_path_profile n profile);
  (* totals above the sample budget are flagged *)
  let profile = Path_profile.create () in
  Path_profile.add profile 1 10;
  has_error_at "more path executions than samples"
    (fun (d : Pep_check.diagnostic) -> d.pass = "profile")
    (Pep_check.lint_path_profile ~expected_total:3 n profile);
  (* a memoized expansion or branch count is checked against the
     path's reconstruction: path 1's memo set to path 2's edges, and
     path 3's branch count off by one *)
  let profile = Path_profile.create () in
  Path_profile.incr profile 1;
  Path_profile.incr profile 3;
  no_errors "no memo, nothing to compare" (Pep_check.lint_path_profile n profile);
  let e1 = Path_profile.entry profile 1 and e3 = Path_profile.entry profile 3 in
  e1.Path_profile.edges <- Some (Reconstruct.cfg_edges n 2);
  e3.Path_profile.n_branches <- Reconstruct.n_branches n 3 + 1;
  let ds = Pep_check.lint_path_profile n profile in
  has_error_at "memo disagrees with the P-DAG"
    (fun d ->
      d.message = "memoized expansion disagrees with P-DAG reconstruction"
      && match d.loc with Pep_check.Path_loc (_, 1) -> true | _ -> false)
    ds;
  has_error_at "wrong branch count"
    (fun d ->
      String.starts_with ~prefix:"memoized branch length" d.message
      && match d.loc with Pep_check.Path_loc (_, 3) -> true | _ -> false)
    ds

(* --- stack_effect vs the interpreter ------------------------------- *)

let all_opcodes =
  [
    Instr.Const 7;
    Instr.Load 0;
    Instr.Store 0;
    Instr.Inc (0, 3);
    Instr.Neg;
    Instr.Not;
    Instr.Dup;
    Instr.Pop;
    Instr.GLoad 0;
    Instr.GStore 0;
    Instr.AGet;
    Instr.ASet;
    Instr.Call ("callee", 2);
    Instr.Rand 5;
  ]
  @ List.map
      (fun op -> Instr.Binop op)
      [
        Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
        Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr;
      ]
  @ List.map
      (fun c -> Instr.Cmp c)
      [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Le; Instr.Gt; Instr.Ge ]

let test_stack_effect_matches_interp () =
  (* Sentinel harness: push 999, push the declared number of operands,
     run the opcode, pop the declared number of results, return.  The
     method only returns 999 if the opcode's true net effect equals its
     declared stack_effect — fewer pushes underflow, more leave a
     non-sentinel on top. *)
  let callee =
    {
      Method.name = "callee";
      nparams = 2;
      nlocals = 2;
      blocks = [| { Method.body = [| Instr.Const 7 |]; term = Method.Ret } |];
      entry = 0;
      exit_ = 0;
      uninterruptible = false;
    }
  in
  List.iter
    (fun ins ->
      let pops, pushes = Instr.stack_effect ins in
      let body =
        Array.of_list
          ((Instr.Const 999 :: List.init pops (fun _ -> Instr.Const 3))
          @ (ins :: List.init pushes (fun _ -> Instr.Pop)))
      in
      let main =
        {
          Method.name = "main";
          nparams = 0;
          nlocals = 1;
          blocks = [| { Method.body = body; term = Method.Ret } |];
          entry = 0;
          exit_ = 0;
          uninterruptible = false;
        }
      in
      let p =
        Program.create ~name:"effect" ~n_globals:1 ~heap_size:4 ~main:"main"
          [ main; callee ]
      in
      no_errors
        (Fmt.str "verifier accepts %a harness" Instr.pp ins)
        (Pep_check.verify_program p);
      let st = Machine.create ~seed:1 p in
      let result = Interp.run Interp.no_hooks st in
      check ci (Fmt.str "sentinel after %a" Instr.pp ins) 999 result)
    all_opcodes

(* --- integration: driver + harness checks stay clean ---------------- *)

let test_replay_checks_clean () =
  let env = Exp_harness.make_env ~size:2 ~seed:5 (Suite.find "jess") in
  let run =
    Exp_harness.replay env
      {
        Exp_harness.default with
        Exp_harness.profiling =
          Exp_harness.Pep_profiled
            {
              sampling = Sampling.pep ~samples:64 ~stride:17;
              zero = `Hottest;
              numbering = `Smart;
            };
        inline = true;
        unroll = true;
      }
  in
  no_errors "replay checks (driver verify + profile lint)"
    run.Exp_harness.checks;
  no_errors "driver checks" (Driver.checks run.Exp_harness.driver)

(* --- pass 7 rejections: fusion tables ------------------------------- *)

(* The fusion validator re-derives every invariant the engine's compiler
   relies on; each seeded corruption of a genuine planned table must be
   rejected with a located ["fusion"] error mentioning the broken
   invariant. *)

let fusion_method () =
  let p =
    Compile.program ~name:"fw" ~main:"main"
      Ast.
        [
          mdef "main" ~params:[]
            [
              set "s" (i 0);
              for_ "k" (i 0) (i 9)
                [
                  if_ (eq (band (v "k") (i 3)) (i 0))
                    [ set "s" (add (v "s") (v "k")) ]
                    [ set "s" (sub (v "s") (i 1)) ];
                ];
              ret (v "s");
            ];
        ]
  in
  let m = Program.find p "main" in
  (m, Fusion.plan ~gen:0 m)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let fusion_error what ~expect mutate =
  let m, w = fusion_method () in
  has_error_at what
    (fun d -> d.pass = "fusion" && contains d.message expect)
    (Pep_check.validate_fusion ~witness:(mutate w) m)

let first_entry w = List.hd w.Fusion.fentries

let test_fusion_plan_accepted () =
  let m, w = fusion_method () in
  if w.Fusion.fentries = [] then Alcotest.fail "planner found nothing to fuse";
  no_errors "planned table" (Pep_check.validate_fusion ~witness:w m)

let test_reject_fusion_wrong_pattern () =
  fusion_error "claimed pattern differs from bytecode" ~expect:"mismatch"
    (fun w ->
      let e = first_entry w in
      let other =
        if e.Fusion.fpattern = Fusion.KStore then Fusion.LStore
        else Fusion.KStore
      in
      {
        w with
        Fusion.fentries =
          { e with Fusion.fpattern = other } :: List.tl w.Fusion.fentries;
      })

let test_reject_fusion_overlap () =
  fusion_error "duplicated entry" ~expect:"out of order or overlapping"
    (fun w -> { w with Fusion.fentries = first_entry w :: w.Fusion.fentries })

let test_reject_fusion_out_of_range () =
  fusion_error "entry outside the body" ~expect:"outside body" (fun w ->
      let e = first_entry w in
      {
        w with
        Fusion.fentries =
          { e with Fusion.fstart = e.Fusion.fstart + 1000 }
          :: List.tl w.Fusion.fentries;
      })

let test_reject_fusion_dropped_entry () =
  fusion_error "table is not the deterministic plan" ~expect:"deterministic"
    (fun w -> { w with Fusion.fentries = List.tl w.Fusion.fentries })

(* An entry whose shape is genuine but whose block contains a call must
   be rejected via the independent effect summary, not trusted because
   the pattern matches. *)
let test_reject_fusion_call_block () =
  let p =
    Compile.program ~name:"fwc" ~main:"main"
      Ast.
        [
          mdef "main" ~params:[]
            [ set "s" (add (call "g" [ i 1 ]) (i 1)); ret (v "s") ];
          mdef "g" ~params:[ "a" ] [ ret (v "a") ];
        ]
  in
  let m = Program.find p "main" in
  let b, blk =
    let found = ref None in
    Array.iteri
      (fun i (blk : Method.block) ->
        if
          !found = None
          && Array.exists
               (function Instr.Call _ -> true | _ -> false)
               blk.Method.body
        then found := Some (i, blk))
      m.Method.blocks;
    Option.get !found
  in
  let start, (pat, len, term) =
    let rec scan i =
      if i >= Array.length blk.Method.body then
        Alcotest.fail "no catalog pattern in the call block"
      else
        match Fusion.match_at blk i with Some r -> (i, r) | None -> scan (i + 1)
    in
    scan 0
  in
  let witness =
    {
      Fusion.fgen = 0;
      fentries =
        [
          {
            Fusion.fblock = b;
            fstart = start;
            flen = len;
            fterm = term;
            fpattern = pat;
          };
        ];
    }
  in
  has_error_at "call block forbids fusion"
    (fun d -> d.pass = "fusion" && contains d.message "forbids fusion")
    (Pep_check.validate_fusion ~witness m)

let suite =
  [
    Alcotest.test_case "suite accepted" `Quick test_suite_accepted;
    Alcotest.test_case "synthetic accepted" `Quick test_synthetic_accepted;
    Alcotest.test_case "reject corrupt jump" `Quick test_reject_corrupt_jump;
    Alcotest.test_case "reject stack underflow" `Quick
      test_reject_stack_underflow;
    Alcotest.test_case "reject unbalanced push" `Quick
      test_reject_unbalanced_push;
    Alcotest.test_case "reject bad call arity" `Quick
      test_reject_bad_call_arity;
    Alcotest.test_case "verify and pass 1 agree" `Quick
      test_one_wording;
    Alcotest.test_case "bijection exhaustive" `Quick test_bijection_exhaustive;
    Alcotest.test_case "smart numbering audited" `Quick
      test_smart_numbering_audited;
    Alcotest.test_case "reject zeroed value" `Quick test_reject_zeroed_value;
    Alcotest.test_case "reject corrupt flow" `Quick test_reject_corrupt_flow;
    Alcotest.test_case "reject foreign branch" `Quick
      test_reject_foreign_branch;
    Alcotest.test_case "reject bad path profile" `Quick
      test_reject_bad_path_profile;
    Alcotest.test_case "stack_effect matches interp" `Quick
      test_stack_effect_matches_interp;
    Alcotest.test_case "replay checks clean" `Quick test_replay_checks_clean;
    Alcotest.test_case "fusion: planned table accepted" `Quick
      test_fusion_plan_accepted;
    Alcotest.test_case "fusion: reject wrong pattern" `Quick
      test_reject_fusion_wrong_pattern;
    Alcotest.test_case "fusion: reject overlap" `Quick
      test_reject_fusion_overlap;
    Alcotest.test_case "fusion: reject out-of-range entry" `Quick
      test_reject_fusion_out_of_range;
    Alcotest.test_case "fusion: reject dropped entry" `Quick
      test_reject_fusion_dropped_entry;
    Alcotest.test_case "fusion: reject call block" `Quick
      test_reject_fusion_call_block;
  ]
