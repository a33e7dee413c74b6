(* Profiling without path-end sample points (paper §3.2's sketch): in a
   system with no thread-switching yieldpoints, a timer sample can land
   anywhere mid-path.  The yieldpoint handler still receives the path
   register, and the same greedy algorithm that reconstructs full paths
   recovers the *partially taken* path from the partial sum.

   This example samples the register at every yieldpoint (including
   method entries, where the path has just begun) and builds an edge
   profile purely from partial paths, then checks it against ground
   truth.

   Run with: dune exec examples/partial_paths.exe *)

let () =
  let program = Workload.program ~size:250 (Suite.find "jess") in
  let seed = 31 in

  (* ground truth *)
  let st0 = Machine.create ~seed program in
  let perfect = Profiler.perfect_edge st0 in
  ignore (Interp.run (Tick.hooks () @ perfect.Profiler.ehooks) st0);

  (* partial-path sampler: plans provide the always-on register updates,
     kept in the frame's path register; every yieldpoint reads the live
     value before any path-end processing, the "pass r to the yieldpoint
     handler" of §4.3 *)
  let st = Machine.create ~seed program in
  let plans =
    Profile_hooks.make_plans ~mode:Dag.Loop_header
      ~number:(fun _ dag -> Numbering.ball_larus dag)
      st
  in
  let edges = Edge_profile.create_table ~n_methods:(Program.n_methods program) in
  let samples = ref 0 and unusable = ref 0 in
  (* burst sampling, PEP-style, but at arbitrary yieldpoints *)
  let sampler = Sampling.create (Sampling.pep ~samples:64 ~stride:17) in
  let on_register (st : Machine.t) (frame : Interp.frame) blk ~r =
    if st.yield_flag then begin
      Sampling.activate sampler;
      Machine.rearm_timer st
    end;
    if Sampling.active sampler && Sampling.step sampler = `Take then begin
      incr samples;
      match plans.(frame.fmeth) with
      | None -> incr unusable
      | Some (plan : Instrument.t) -> (
          let numbering = plan.Instrument.numbering in
          let stop_node = Dag.in_node (Numbering.dag numbering) blk in
          match Reconstruct.partial_cfg_edges numbering ~stop_node r with
          | partial ->
              List.iter
                (fun (e : Cfg.edge) ->
                  match e.attr with
                  | Cfg.Taken br ->
                      Edge_profile.incr edges.(frame.fmeth) br ~taken:true
                  | Cfg.Not_taken br ->
                      Edge_profile.incr edges.(frame.fmeth) br ~taken:false
                  | Cfg.Seq -> ())
                partial
          | exception Invalid_argument _ -> incr unusable)
    end
  in
  (* the plan's register updates, each charged like PEP's *)
  let update (st : Machine.t) (frame : Interp.frame) ~add ~reset =
    let r_update = st.cost.Cost_model.r_update in
    if add <> 0 then begin
      frame.r <- frame.r + add;
      Machine.add_cycles st r_update
    end;
    if reset >= 0 then begin
      frame.r <- reset;
      Machine.add_cycles st r_update
    end
  in
  let layer =
    {
      Interp.layer with
      on_entry =
        Some
          (fun st (frame : Interp.frame) ->
            if Option.is_some plans.(frame.fmeth) then
              update st frame ~add:0 ~reset:0);
      on_edge =
        Some
          (fun st (frame : Interp.frame) ~src ~idx ~dst:_ ->
            match plans.(frame.fmeth) with
            | Some plan -> (
                match plan.Instrument.edge_steps.(src).(idx) with
                | Some { add; reset; _ } -> update st frame ~add ~reset
                | None -> ())
            | None -> ());
      on_yieldpoint =
        Some
          (fun st (frame : Interp.frame) blk ->
            match plans.(frame.fmeth) with
            | Some plan -> (
                on_register st frame blk ~r:frame.r;
                match plan.Instrument.path_end.(blk) with
                | Some { badd; breset } -> update st frame ~add:badd ~reset:breset
                | None -> ())
            | None -> ());
    }
  in
  ignore (Interp.run [ layer ] st);

  Printf.printf
    "partial-path sampling: %d samples at arbitrary yieldpoints (%d \
     unusable)\n"
    !samples !unusable;
  Printf.printf
    "edge profile accuracy from partial paths alone: %.1f%% relative \
     overlap\n"
    (100.
    *. Accuracy.relative_overlap ~actual:perfect.Profiler.etable
         ~estimated:edges);
  Printf.printf
    "\nNo count[r]++ ever executed and no sample point was a path end —\n\
     the register plus greedy partial reconstruction carried all the \
     information.\n"
