(* PEP end-to-end: instrumentation-only neutrality, sampling correctness,
   the memoized path-to-edges expansion, and the derived edge profile. *)

let check = Alcotest.check
let ci = Alcotest.int

let program_of ?(size = 3) name = Workload.program ~size (Suite.find name)

let run_pep ?(seed = 5) ?tick_offset ~sampling program =
  let st = Machine.create ?tick_offset ~seed program in
  let pep = Pep.create ~sampling st in
  let hooks = Tick.hooks () @ pep.Pep.hooks in
  let result = Interp.run hooks st in
  (result, st, pep)

let test_instr_only_neutral () =
  (* with sampling `never`, PEP maintains r but records nothing and must
     not change the application's result *)
  let program = program_of "jess" in
  let base_st = Machine.create ~seed:5 program in
  let base = Interp.run (Tick.hooks ()) base_st in
  let result, st, pep = run_pep ~sampling:Sampling.never program in
  check ci "checksum unchanged" base result;
  check ci "no samples" 0 (Pep.n_samples pep);
  check ci "no paths" 0 (Path_profile.table_total pep.Pep.paths);
  check Alcotest.bool "instrumentation costs cycles" true
    (st.Machine.cycles > base_st.Machine.cycles)

let test_sampling_collects () =
  let program = program_of "compress" in
  let _, _, pep =
    run_pep ~tick_offset:1000 ~sampling:(Sampling.pep ~samples:64 ~stride:17)
      program
  in
  check Alcotest.bool "samples taken" true (Pep.n_samples pep > 0);
  check ci "paths recorded = samples (minus dropped)"
    (Pep.n_samples pep)
    (Path_profile.table_total pep.Pep.paths)

let test_edges_match_paths () =
  (* PEP's edge profile must equal the edge profile implied by its own
     path profile *)
  let program = program_of "jython" in
  let _, _, pep =
    run_pep ~tick_offset:500 ~sampling:(Sampling.pep ~samples:256 ~stride:5)
      program
  in
  let derived =
    Profiler.edges_of_paths ~n_methods:(Program.n_methods program)
      pep.Pep.plans pep.Pep.paths
  in
  check ci "same totals"
    (Edge_profile.table_total derived)
    (Edge_profile.table_total pep.Pep.edges);
  Array.iteri
    (fun m d ->
      List.iter
        (fun br ->
          match (Edge_profile.counter d br, Edge_profile.counter pep.Pep.edges.(m) br) with
          | Some a, Some b ->
              check ci "taken" a.Edge_profile.taken b.Edge_profile.taken;
              check ci "not-taken" a.not_taken b.not_taken
          | None, None -> ()
          | _ -> Alcotest.fail "branch sets differ")
        (Edge_profile.branch_ids d))
    derived

let test_memoization () =
  let program = program_of "compress" in
  let _, _, pep =
    run_pep ~tick_offset:100 ~sampling:(Sampling.pep ~samples:512 ~stride:1)
      program
  in
  Array.iter
    (fun prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          check Alcotest.bool "sampled entry memoized" true (e.edges <> None);
          check Alcotest.bool "n_branches filled" true (e.n_branches >= 0))
        prof)
    pep.Pep.paths

let test_pep_subset_of_perfect () =
  (* every path PEP samples must exist in the perfect profile, with a
     count no larger *)
  let program = program_of "db" in
  let st = Machine.create ~seed:5 program in
  let perfect = Profiler.perfect_path st in
  ignore (Interp.run (Tick.hooks () @ perfect.Profiler.hooks) st);
  let _, _, pep =
    run_pep ~tick_offset:100 ~sampling:(Sampling.pep ~samples:64 ~stride:17)
      program
  in
  Array.iteri
    (fun m prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          match Path_profile.find perfect.Profiler.table.(m) e.path_id with
          | Some pe ->
              check Alcotest.bool "sampled count <= true count" true
                (e.count <= pe.Path_profile.count)
          | None -> Alcotest.failf "PEP sampled a path never executed (%d)" e.path_id)
        prof)
    pep.Pep.paths

let test_dense_sampling_accuracy () =
  (* saturated sampling must converge on the perfect hot-path set *)
  let program = program_of "pseudojbb" in
  let st = Machine.create ~seed:5 program in
  let perfect = Profiler.perfect_path st in
  ignore (Interp.run (Tick.hooks () @ perfect.Profiler.hooks) st);
  let _, _, pep =
    run_pep ~tick_offset:1 ~sampling:(Sampling.pep ~samples:max_int ~stride:1)
      program
  in
  let n_branches =
    Profiler.n_branches_resolver perfect.Profiler.plans perfect.Profiler.table
  in
  let acc =
    Accuracy.wall_path_accuracy ~n_branches ~actual:perfect.Profiler.table
      ~estimated:pep.Pep.paths ()
  in
  check Alcotest.bool "saturated sampling is near-perfect" true (acc > 0.99)

let test_uninterruptible_not_profiled () =
  (* pmd's hash helper is uninterruptible: no plan, no samples from it *)
  let program = program_of "pmd" in
  let st = Machine.create ~seed:5 program in
  let pep = Pep.create ~sampling:(Sampling.pep ~samples:64 ~stride:1) st in
  let hash_idx = Program.index program "hash" in
  check Alcotest.bool "no plan for uninterruptible" true
    (pep.Pep.plans.(hash_idx) = None);
  ignore (Interp.run (Tick.hooks () @ pep.Pep.hooks) st);
  check ci "no paths recorded for it" 0
    (Path_profile.total pep.Pep.paths.(hash_idx))

let suite =
  [
    Alcotest.test_case "instr-only is neutral" `Quick test_instr_only_neutral;
    Alcotest.test_case "sampling collects" `Quick test_sampling_collects;
    Alcotest.test_case "edge profile matches paths" `Quick test_edges_match_paths;
    Alcotest.test_case "memoized expansion" `Quick test_memoization;
    Alcotest.test_case "PEP subset of perfect" `Quick test_pep_subset_of_perfect;
    Alcotest.test_case "dense sampling accuracy" `Slow test_dense_sampling_accuracy;
    Alcotest.test_case "uninterruptible skipped" `Quick
      test_uninterruptible_not_profiled;
  ]
