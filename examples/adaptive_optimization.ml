(* The full adaptive VM with PEP driving optimization (paper §6.5):
   run the phased pseudojbb analogue three ways —

   - base: the adaptive system optimizes with its one-time baseline
     profile only;
   - flipped: the optimizer is fed a deliberately wrong profile
     (every bias inverted), showing the layout model is really
     profile-sensitive;
   - PEP: PEP(64,17) collects a continuous edge profile and later
     recompilations consume it.

   Run with: dune exec examples/adaptive_optimization.exe *)

let run name opts program =
  let st = Machine.create ~seed:99 program in
  let driver = Driver.create opts st in
  let iter1, _ = Driver.run driver in
  let iter2, checksum = Driver.run driver in
  Printf.printf
    "%-10s iter1 %8.2f Mcycles   iter2 %8.2f Mcycles   compile %6.2f \
     Mcycles   recompilations %d\n"
    name
    (float_of_int iter1 /. 1e6)
    (float_of_int iter2 /. 1e6)
    (float_of_int (Driver.compile_cycles driver) /. 1e6)
    (Driver.recompilations driver);
  (driver, iter2, checksum)

let () =
  let program = Workload.program ~size:500 (Suite.find "pseudojbb") in
  let _, base_iter2, base_sum = run "base" Driver.default_options program in

  (* flipped: collect the base run's profile, flip it, feed it back *)
  let st = Machine.create ~seed:99 program in
  let pe = Profiler.perfect_edge st in
  ignore (Interp.run (Tick.hooks () @ pe.Profiler.ehooks) st);
  let flipped = Edge_profile.flip_table pe.Profiler.etable in
  let _, flip_iter2, flip_sum =
    run "flipped"
      { Driver.default_options with opt_profile = Driver.Fixed flipped }
      program
  in

  let pep_opts =
    {
      Driver.mode = Driver.Adaptive { thresholds = Driver.default_thresholds };
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
  let pep_driver, pep_iter2, pep_sum = run "PEP(64,17)" pep_opts program in

  assert (base_sum = flip_sum && base_sum = pep_sum);
  let pep = Option.get (Driver.pep pep_driver) in
  let planned, total = Pep.n_instrumented pep in
  Printf.printf
    "\nPEP instrumented %d/%d methods, took %d samples, saw %d distinct \
     paths\n"
    planned total (Pep.n_samples pep)
    (Array.fold_left
       (fun acc p -> acc + Path_profile.n_distinct p)
       0 pep.Pep.paths);
  let pct x = 100. *. ((float_of_int x /. float_of_int base_iter2) -. 1.) in
  Printf.printf
    "steady-state vs base: flipped profile %+.2f%%, PEP-driven %+.2f%%\n"
    (pct flip_iter2) (pct pep_iter2)
