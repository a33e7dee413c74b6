(* Instrumentation plans and end-to-end correctness of instrumented
   profiling: the profile recorded through path numbers must match a
   reference tracker that follows raw block/edge events. *)

let check = Alcotest.check
let ci = Alcotest.int

(* --- plan unit tests on the figure-3 loop ------------------------- *)

let loop_cfg () =
  Cfg.create ~name:"fig3" ~entry:0 ~exit_:5
    [|
      Cfg.Jump 1;
      Cfg.Branch { branch = 0; taken = 2; not_taken = 5 };
      Cfg.Branch { branch = 1; taken = 3; not_taken = 4 };
      Cfg.Jump 1;
      Cfg.Jump 1;
      Cfg.Return;
    |]

let test_plan_header_mode () =
  let plan =
    Instrument.of_numbering
      (Numbering.ball_larus (Dag.build Dag.Loop_header (loop_cfg ())))
  in
  (* the header block carries a path-end event with a reset *)
  (match plan.Instrument.path_end.(1) with
  | Some { badd = _; breset } ->
      check Alcotest.bool "header resets r" true (breset >= 0)
  | None -> Alcotest.fail "header must be a path end");
  (* the exit block is a path end without a reset *)
  (match plan.Instrument.path_end.(5) with
  | Some { badd; breset } ->
      check ci "exit badd" 0 badd;
      check ci "exit no reset" (-1) breset
  | None -> Alcotest.fail "exit must be a path end");
  (* no count points on edges in header mode *)
  Array.iteri
    (fun src steps ->
      Array.iter
        (function
          | Some (s : Instrument.edge_step) ->
              if s.count then Alcotest.failf "unexpected count on edge from %d" src
          | None -> ())
        steps)
    plan.Instrument.edge_steps

let test_plan_back_edge_mode () =
  let plan =
    Instrument.of_numbering
      (Numbering.ball_larus (Dag.build Dag.Back_edge (loop_cfg ())))
  in
  (* back edges 3->1 and 4->1 carry count+reset *)
  List.iter
    (fun src ->
      match plan.Instrument.edge_steps.(src).(0) with
      | Some { count; reset; _ } ->
          check Alcotest.bool "count on back edge" true count;
          check Alcotest.bool "reset on back edge" true (reset >= 0)
      | None -> Alcotest.failf "expected step on back edge from %d" src)
    [ 3; 4 ];
  (* only the exit has a block-level path end *)
  Array.iteri
    (fun b ev ->
      match ev with
      | Some (_ : Instrument.block_event) ->
          check ci "only exit" 5 b
      | None -> ())
    plan.Instrument.path_end;
  check Alcotest.bool "static ops positive" true (Instrument.static_ops plan > 3)

(* --- reference tracker --------------------------------------------- *)

type ref_state = {
  mutable stack : (Interp.frame * Cfg.edge list ref) list;
  table : (int * Cfg.edge list, int ref) Hashtbl.t;
}

let edge_of st (frame : Interp.frame) ~src ~idx ~dst =
  let cm = Machine.cmeth st frame.Interp.fmeth in
  let attr =
    match Cfg.terminator cm.Machine.cfg src with
    | Cfg.Branch { branch; _ } -> if idx = 0 then Cfg.Taken branch else Cfg.Not_taken branch
    | Cfg.Jump _ -> Cfg.Seq
    | Cfg.Return -> assert false
  in
  { Cfg.src; dst; attr }

(* Reference profiler: records paths as raw CFG edge lists, splitting at
   the mode's path ends, with no knowledge of path numbering. *)
let reference_hooks mode st (plans : Profile_hooks.plans) =
  let rs = { stack = []; table = Hashtbl.create 64 } in
  let record meth edges_rev =
    let key = (meth, List.rev edges_rev) in
    match Hashtbl.find_opt rs.table key with
    | Some r -> incr r
    | None -> Hashtbl.replace rs.table key (ref 1)
  in
  let is_header (frame : Interp.frame) b =
    let cm = Machine.cmeth st frame.Interp.fmeth in
    Loops.is_header cm.Machine.loops b
  in
  let is_back_edge (frame : Interp.frame) ~src ~dst =
    let cm = Machine.cmeth st frame.Interp.fmeth in
    List.exists
      (fun (e : Cfg.edge) -> e.src = src && e.dst = dst)
      (Loops.back_edges cm.Machine.loops)
  in
  let on_entry _st (frame : Interp.frame) =
    rs.stack <- (frame, ref []) :: rs.stack
  in
  let on_exit _st (frame : Interp.frame) =
    match rs.stack with
    | (f, _) :: rest when f == frame -> rs.stack <- rest
    | _ -> Alcotest.fail "reference stack mismatch"
  in
  let on_edge st (frame : Interp.frame) ~src ~idx ~dst =
    if plans.(frame.Interp.fmeth) <> None then begin
      match rs.stack with
      | (f, edges) :: _ when f == frame -> (
          let meth = frame.Interp.fmeth in
          let exit_b = Cfg.exit_ (Machine.cmeth st meth).Machine.cfg in
          match mode with
          | Dag.Loop_header ->
              let e = edge_of st frame ~src ~idx ~dst in
              edges := e :: !edges;
              if dst = exit_b || is_header frame dst then begin
                record meth !edges;
                edges := []
              end
          | Dag.Back_edge ->
              if is_back_edge frame ~src ~dst then begin
                (* the cut edge belongs to neither path *)
                record meth !edges;
                edges := []
              end
              else begin
                let e = edge_of st frame ~src ~idx ~dst in
                edges := e :: !edges;
                if dst = exit_b then begin
                  record meth !edges;
                  edges := []
                end
              end)
      | _ -> Alcotest.fail "reference stack mismatch"
    end
  in
  ( [
      {
        Interp.layer with
        on_entry = Some on_entry;
        on_exit = Some on_exit;
        on_edge = Some on_edge;
      };
    ],
    rs.table )

let profiled_table (p : Profiler.path_profiler) =
  let out = Hashtbl.create 64 in
  Array.iteri
    (fun meth prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          match p.Profiler.plans.(meth) with
          | Some plan ->
              (* distinct path ids can reconstruct to the same real-edge
                 list (dummy-only differences); aggregate like the
                 reference does *)
              let edges =
                Reconstruct.cfg_edges plan.Instrument.numbering e.path_id
              in
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt out (meth, edges))
              in
              Hashtbl.replace out (meth, edges) (prev + e.count)
          | None -> Alcotest.fail "profiled method without plan")
        prof)
    p.Profiler.table;
  out

let all_reducible st =
  Array.for_all
    (fun (cm : Machine.cmeth) -> Loops.is_reducible cm.Machine.loops)
    st.Machine.methods

let compare_profiles name reference profiled =
  Hashtbl.iter
    (fun key count ->
      match Hashtbl.find_opt profiled key with
      | Some c when c = !count -> ()
      | Some c ->
          Alcotest.failf "%s: count mismatch (%d reference vs %d profiled)" name
            !count c
      | None -> Alcotest.failf "%s: path missing from profiler" name)
    reference;
  check ci (name ^ ": same distinct paths") (Hashtbl.length reference)
    (Hashtbl.length profiled)

let run_comparison name mode program seed =
  let st = Machine.create ~seed program in
  if all_reducible st then begin
    let profiler =
      match mode with
      | Dag.Loop_header -> Profiler.perfect_path st
      | Dag.Back_edge -> Profiler.classic_blpp st
    in
    (* skip if some interruptible method was unprofilable (path blowup) *)
    let all_planned =
      Array.for_all2
        (fun plan (cm : Machine.cmeth) ->
          plan <> None || cm.Machine.meth.Method.uninterruptible)
        profiler.Profiler.plans st.Machine.methods
    in
    if all_planned then begin
      let ref_hooks, reference = reference_hooks mode st profiler.Profiler.plans in
      let hooks = profiler.Profiler.hooks @ ref_hooks in
      ignore (Interp.run hooks st);
      compare_profiles name reference (profiled_table profiler)
    end
  end

let test_profile_matches_reference_workloads () =
  List.iter
    (fun wname ->
      let w = Suite.find wname in
      let program = Workload.program ~size:2 w in
      run_comparison (wname ^ "/header") Dag.Loop_header program 11;
      run_comparison (wname ^ "/back") Dag.Back_edge program 11)
    [ "compress"; "db"; "javac"; "jython"; "pseudojbb"; "mtrt" ]

let test_profile_matches_reference_synthetic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"instrumented profile = reference"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let p = Compile.pdef (Synthetic.program ~seed ~n_methods:3 ()) in
         run_comparison "synthetic/header" Dag.Loop_header p seed;
         run_comparison "synthetic/back" Dag.Back_edge p seed;
         true))

let test_edges_of_paths_consistent () =
  (* the edge profile derived from a full path profile must equal the
     directly instrumented edge profile, restricted to planned methods *)
  let program = Workload.program ~size:2 (Suite.find "compress") in
  let st1 = Machine.create ~seed:3 program in
  let pp = Profiler.perfect_path st1 in
  ignore (Interp.run pp.Profiler.hooks st1);
  let derived =
    Profiler.edges_of_paths ~n_methods:(Program.n_methods program)
      pp.Profiler.plans pp.Profiler.table
  in
  let st2 = Machine.create ~seed:3 program in
  let pe = Profiler.perfect_edge st2 in
  ignore (Interp.run pe.Profiler.ehooks st2);
  (* compare per planned method *)
  Array.iteri
    (fun m plan ->
      match plan with
      | None -> ()
      | Some _ ->
          List.iter
            (fun br ->
              let c1 = Edge_profile.counter derived.(m) br in
              let c2 = Edge_profile.counter pe.Profiler.etable.(m) br in
              match (c1, c2) with
              | Some a, Some b ->
                  check ci "taken" b.Edge_profile.taken a.Edge_profile.taken;
                  check ci "not-taken" b.not_taken a.not_taken
              | None, None -> ()
              | _ -> Alcotest.fail "branch coverage mismatch")
            (Edge_profile.branch_ids pe.Profiler.etable.(m)))
    pp.Profiler.plans

let suite =
  [
    Alcotest.test_case "plan: header mode" `Quick test_plan_header_mode;
    Alcotest.test_case "plan: back-edge mode" `Quick test_plan_back_edge_mode;
    Alcotest.test_case "profile = reference (workloads)" `Slow
      test_profile_matches_reference_workloads;
    test_profile_matches_reference_synthetic;
    Alcotest.test_case "edges-of-paths = direct edges" `Quick
      test_edges_of_paths_consistent;
  ]
