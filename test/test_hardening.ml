(* Hardening: irreducible control flow end-to-end, layout/frequency
   properties, parser fuzzing, serialization round trips. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* An irreducible CFG: two loop entries, neither dominating the other.
   0 -> {1, 2}; 1 -> {2, 4}; 2 -> {1, 3}; 3 exits; 4 exits via 3. *)
let irreducible_method () =
  {
    Method.name = "irr";
    nparams = 0;
    nlocals = 2;
    blocks =
      [|
        (* B0: r = rand(2); if r then B1 else B2 *)
        {
          Method.body = [| Instr.Rand 2 |];
          term = Method.Br { branch = 0; on_true = 1; on_false = 2 };
        };
        (* B1: l0++; if l0 < 5 then B2 else B4 *)
        {
          Method.body =
            [| Instr.Inc (0, 1); Instr.Load 0; Instr.Const 5; Instr.Cmp Instr.Lt |];
          term = Method.Br { branch = 1; on_true = 2; on_false = 4 };
        };
        (* B2: l1++; if l1 < 7 then B1 else B3 *)
        {
          Method.body =
            [| Instr.Inc (1, 1); Instr.Load 1; Instr.Const 7; Instr.Cmp Instr.Lt |];
          term = Method.Br { branch = 2; on_true = 1; on_false = 3 };
        };
        (* B3: exit *)
        { Method.body = [| Instr.Load 0 |]; term = Method.Ret };
        (* B4 -> B3 *)
        { Method.body = [||]; term = Method.Jmp 3 };
      |];
    entry = 0;
    exit_ = 3;
    uninterruptible = false;
  }

let irreducible_program () =
  Program.create ~name:"t" ~n_globals:1 ~heap_size:8 ~main:"irr"
    [ irreducible_method () ]

let test_irreducible_detected () =
  let cfg = To_cfg.cfg (irreducible_method ()) in
  let loops = Loops.compute cfg in
  check cb "irreducible" false (Loops.is_reducible loops);
  check cb "has irreducible edges" true (Loops.irreducible_edges loops <> [])

let test_irreducible_runs_and_numbers () =
  let program = irreducible_program () in
  Verify.program program;
  List.iter
    (fun mode ->
      let cfg = To_cfg.cfg (irreducible_method ()) in
      let numbering = Numbering.ball_larus (Dag.build mode cfg) in
      check cb "has paths" true (Numbering.n_paths numbering > 0);
      (* every id reconstructs *)
      for id = 0 to Numbering.n_paths numbering - 1 do
        ignore (Reconstruct.cfg_edges numbering id)
      done)
    [ Dag.Back_edge; Dag.Loop_header ]

let test_irreducible_profiled () =
  (* the perfect profiler must run without error; paths crossing the
     silent cuts are simply lost, never miscounted *)
  let program = irreducible_program () in
  let st = Machine.create ~seed:9 program in
  let p = Profiler.perfect_path st in
  let r = Interp.run (Tick.hooks () @ p.Profiler.hooks) st in
  check cb "ran" true (r >= 0);
  (* recorded ids are all in range *)
  Array.iteri
    (fun m prof ->
      match p.Profiler.plans.(m) with
      | None -> check ci "no stray counts" 0 (Path_profile.total prof)
      | Some plan ->
          let n = Numbering.n_paths plan.Instrument.numbering in
          Path_profile.iter
            (fun e -> check cb "id in range" true (e.path_id >= 0 && e.path_id < n))
            prof)
    p.Profiler.table

let test_layout_positions_permutation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"layout positions form a permutation"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let p = Compile.pdef (Synthetic.program ~seed ~n_methods:2 ()) in
         Program.iter_methods
           (fun _ m ->
             let cfg = To_cfg.cfg m in
             let profile = Edge_profile.create () in
             (* arbitrary biases *)
             List.iter
               (fun br ->
                 Edge_profile.add profile br ~taken:true ((br * 7) mod 13);
                 Edge_profile.add profile br ~taken:false ((br * 3) mod 11))
               (Cfg.branch_ids cfg);
             let pos = Layout.positions (Layout.compute cfg profile) in
             let n = Array.length pos in
             let seen = Array.make n false in
             Array.iter
               (fun p ->
                 if p < 0 || p >= n || seen.(p) then
                   Alcotest.fail "not a permutation";
                 seen.(p) <- true)
               pos;
             (* entry first *)
             if pos.(Cfg.entry cfg) <> 0 then Alcotest.fail "entry not first")
           p;
         true))

let test_freq_estimate_sane =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"block frequencies finite and positive"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let p = Compile.pdef (Synthetic.program ~seed ~n_methods:2 ()) in
         Program.iter_methods
           (fun _ m ->
             let cfg = To_cfg.cfg m in
             let freqs = Freq_estimate.block_freqs cfg (Edge_profile.create ()) in
             Array.iter
               (fun f ->
                 if not (Float.is_finite f) || f < 0. then
                   Alcotest.fail "bad frequency")
               freqs;
             if freqs.(Cfg.entry cfg) < 1.0 -. 1e-9 then
               Alcotest.fail "entry frequency lost")
           p;
         true))

(* Parser fuzz: random mutations of a valid program either parse or raise
   Parse.Error — never crash or loop. *)
let test_parse_fuzz () =
  let base = Pretty.to_string (Synthetic.program ~seed:77 ()) in
  let prng = Prng.create ~seed:123 in
  for _ = 1 to 300 do
    let b = Bytes.of_string base in
    let n_mutations = 1 + Prng.below prng 4 in
    for _ = 1 to n_mutations do
      let pos = Prng.below prng (Bytes.length b) in
      let c = Char.chr (32 + Prng.below prng 95) in
      Bytes.set b pos c
    done;
    match Parse.program (Bytes.to_string b) with
    | (_ : Ast.pdef) -> ()
    | exception Parse.Error _ -> ()
  done

let test_parse_truncation_fuzz () =
  let base = Pretty.to_string (Synthetic.program ~seed:78 ()) in
  for len = 0 to min 400 (String.length base) do
    match Parse.program (String.sub base 0 len) with
    | (_ : Ast.pdef) -> ()
    | exception Parse.Error _ -> ()
  done

let test_path_profile_serialization () =
  let t = Path_profile.create_table ~n_methods:3 in
  Path_profile.add t.(0) 5 100;
  Path_profile.add t.(2) 0 1;
  Path_profile.add t.(2) 7 33;
  let rows = Path_profile.rows t in
  let t' = Path_profile.create_table ~n_methods:3 in
  for k = 0 to (Array.length rows / 3) - 1 do
    match
      Path_profile.add_row t' rows.(3 * k) rows.((3 * k) + 1)
        ~count:rows.((3 * k) + 2)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "row %d rejected: %s" k e
  done;
  check ci "total" (Path_profile.table_total t) (Path_profile.table_total t');
  check ci "entry count" 33
    (Option.get (Path_profile.find t'.(2) 7)).Path_profile.count;
  check cb "a row naming no method is an Error, not an exception" true
    (Result.is_error (Path_profile.add_row t' 3 0 ~count:1))

let test_advice_bad_lines () =
  List.iter
    (fun (line_no, lines) ->
      match Advice.of_lines ~file:"a.advice" ~n_methods:2 lines with
      | Ok _ -> Alcotest.failf "expected a parse error"
      | Error e ->
          check ci "error line" line_no e.Dcg.line;
          check Alcotest.(option string) "error file" (Some "a.advice")
            e.Dcg.file;
          check cb "error has reason" true (String.length e.Dcg.reason > 0))
    [
      (1, [ "level x y" ]);
      (1, [ "edge 0" ]);
      (1, [ "dcg a b c" ]);
      (1, [ "wat" ]);
      (3, [ "level 0 2"; ""; "level 9 1" ]);
      (* a keyword without its numbers, or with too few, is no row *)
      (2, [ "level 0 1"; "edge" ]);
      (2, [ "level 0 1"; "dcg" ]);
      (2, [ "level 0 1"; "edge 0 0" ]);
    ]

let suite =
  [
    Alcotest.test_case "irreducible detected" `Quick test_irreducible_detected;
    Alcotest.test_case "irreducible numbers" `Quick test_irreducible_runs_and_numbers;
    Alcotest.test_case "irreducible profiled" `Quick test_irreducible_profiled;
    test_layout_positions_permutation;
    test_freq_estimate_sane;
    Alcotest.test_case "parse fuzz" `Quick test_parse_fuzz;
    Alcotest.test_case "parse truncation fuzz" `Quick test_parse_truncation_fuzz;
    Alcotest.test_case "path profile serialization" `Quick test_path_profile_serialization;
    Alcotest.test_case "advice bad lines" `Quick test_advice_bad_lines;
  ]
