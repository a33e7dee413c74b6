(* Hot-path identification on a realistic workload: collect a PEP profile
   and a perfect instrumentation-based profile of the jython-analogue
   interpreter benchmark, then compare the hot-path sets the way the
   paper's accuracy metric does (Wall weight matching, §6.3).

   Run with: dune exec examples/hot_paths.exe *)

let () =
  let workload = Suite.find "jython" in
  let program = Workload.program ~size:300 workload in
  let seed = 7 in

  (* perfect profile: full Ball-Larus instrumentation, counts every path *)
  let st_perfect = Machine.create ~seed program in
  let perfect = Profiler.perfect_path st_perfect in
  ignore
    (Interp.run
       (Tick.hooks () @ perfect.Profiler.hooks)
       st_perfect);

  (* PEP profile: same numbering, sampled *)
  let st_pep = Machine.create ~seed program in
  let pep =
    Pep.create ~sampling:(Sampling.pep ~samples:64 ~stride:17) st_pep
  in
  ignore (Interp.run (Tick.hooks () @ pep.Pep.hooks) st_pep);

  let exec_idx = Program.index program "exec" in
  let top_of table =
    List.filteri
      (fun rank _ -> rank < 10)
      (List.sort
         (fun (a : Path_profile.entry) b -> compare b.count a.count)
         (Path_profile.entries table.(exec_idx)))
  in
  Printf.printf "top paths of jython's dispatch loop (method `exec`):\n\n";
  Printf.printf "%-28s %-28s\n" "perfect (count)" "PEP(64,17) (samples)";
  let rows =
    List.map2
      (fun (a : Path_profile.entry) (b : Path_profile.entry) ->
        ( Printf.sprintf "path %-6d %10d" a.path_id a.count,
          Printf.sprintf "path %-6d %10d" b.path_id b.count ))
      (top_of perfect.Profiler.table)
      (top_of pep.Pep.paths)
  in
  List.iter (fun (a, b) -> Printf.printf "%-28s %-28s\n" a b) rows;

  let n_branches =
    Profiler.n_branches_resolver perfect.Profiler.plans perfect.Profiler.table
  in
  let accuracy =
    Accuracy.wall_path_accuracy ~n_branches ~actual:perfect.Profiler.table
      ~estimated:pep.Pep.paths ()
  in
  Printf.printf
    "\nWall weight-matching accuracy: %.1f%%  (%d samples vs %d true path \
     executions)\n"
    (100. *. accuracy) (Pep.n_samples pep)
    (Path_profile.table_total perfect.Profiler.table);

  (* overhead comparison: the reason PEP exists *)
  let base = Machine.create ~seed program in
  ignore (Interp.run (Tick.hooks ()) base);
  let pct st =
    100.
    *. (float_of_int st.Machine.cycles /. float_of_int base.Machine.cycles
       -. 1.)
  in
  Printf.printf "overhead: perfect instrumentation %+.1f%%, PEP %+.1f%%\n"
    (pct st_perfect) (pct st_pep)
