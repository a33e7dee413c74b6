(* Structural invariants of truncated DAGs and instrumentation plans,
   checked over the workload suite and random programs.  These are the
   properties the truncation correctness argument relies on:
   every node lies on some entry-to-exit path, dummy edges are shared
   (one per distinct endpoint), and plan actions appear exactly where the
   mode dictates. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let check_dag_invariants name dag =
  let n = Dag.n_nodes dag in
  (* reachable from entry *)
  let fwd = Array.make n false in
  let rec down v =
    if not fwd.(v) then begin
      fwd.(v) <- true;
      List.iter (fun (e : Dag.edge) -> down e.edst) (Dag.out_edges dag v)
    end
  in
  down (Dag.entry_node dag);
  (* reaches exit *)
  let bwd = Array.make n false in
  let rec up v =
    if not bwd.(v) then begin
      bwd.(v) <- true;
      List.iter (fun (e : Dag.edge) -> up e.esrc) (Dag.in_edges dag v)
    end
  in
  up (Dag.exit_node dag);
  for v = 0 to n - 1 do
    if not (fwd.(v) && bwd.(v)) then
      Alcotest.failf "%s: node %d off every entry-exit path" name v
  done;
  (* dummy sharing: at most one From_entry per target node, one To_exit
     per source node *)
  let from_entry = Hashtbl.create 8 and to_exit = Hashtbl.create 8 in
  Dag.iter_edges
    (fun (e : Dag.edge) ->
      match e.origin with
      | Dag.From_entry _ ->
          if Hashtbl.mem from_entry e.edst then
            Alcotest.failf "%s: duplicate From_entry to node %d" name e.edst;
          Hashtbl.replace from_entry e.edst ()
      | Dag.To_exit _ ->
          if Hashtbl.mem to_exit e.esrc then
            Alcotest.failf "%s: duplicate To_exit from node %d" name e.esrc;
          Hashtbl.replace to_exit e.esrc ()
      | Dag.Real _ -> ())
    dag;
  (* out-edges' value intervals partition [0, num_paths_from v) under any
     numbering *)
  let numbering = Numbering.ball_larus dag in
  Array.iter
    (fun v ->
      if v <> Dag.exit_node dag then begin
        let intervals =
          List.map
            (fun (e : Dag.edge) ->
              ( Numbering.value numbering e,
                Numbering.value numbering e
                + Numbering.num_paths_from numbering e.edst ))
            (Dag.out_edges dag v)
        in
        let sorted = List.sort compare intervals in
        let total = Numbering.num_paths_from numbering v in
        let rec covers at = function
          | [] -> at = total
          | (lo, hi) :: rest -> lo = at && covers hi rest
        in
        if not (covers 0 sorted) then
          Alcotest.failf "%s: node %d intervals do not partition" name v
      end)
    (Dag.topo dag)

let check_plan_invariants name mode cfg =
  let dag = Dag.build mode cfg in
  let plan = Instrument.of_numbering (Numbering.ball_larus dag) in
  (* path-end points: exit always; split headers only in header mode *)
  (match plan.Instrument.path_end.(Cfg.exit_ cfg) with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: exit is not a path end" name);
  Array.iteri
    (fun b ev ->
      match (ev, mode) with
      | Some _, Dag.Back_edge ->
          if b <> Cfg.exit_ cfg then
            Alcotest.failf "%s: block event off exit in back-edge mode" name
      | _ -> ())
    plan.Instrument.path_end;
  (* counts on edges only in back-edge mode *)
  Array.iteri
    (fun src steps ->
      Array.iteri
        (fun idx step ->
          match step with
          | Some (s : Instrument.edge_step) ->
              if s.count && mode = Dag.Loop_header then
                Alcotest.failf "%s: count on edge %d in header mode" name src;
              (* ops_on_edge agrees with the step contents *)
              let expected =
                (if s.add <> 0 then 1 else 0)
                + (if s.count then 1 else 0)
                + if s.reset >= 0 then 1 else 0
              in
              check ci "ops_on_edge" expected
                (Instrument.ops_on_edge plan ~src ~idx)
          | None -> ())
        steps)
    plan.Instrument.edge_steps

let each_workload_method f =
  List.iter
    (fun (w : Workload.t) ->
      let p = Workload.program ~size:2 w in
      Program.iter_methods
        (fun _ m ->
          let cfg = To_cfg.cfg m in
          f (w.Workload.name ^ "/" ^ m.Method.name) cfg)
        p)
    Suite.all

let test_dag_invariants_workloads () =
  each_workload_method (fun name cfg ->
      check_dag_invariants name (Dag.build Dag.Back_edge cfg);
      check_dag_invariants name (Dag.build Dag.Loop_header cfg))

let test_plan_invariants_workloads () =
  each_workload_method (fun name cfg ->
      check_plan_invariants name Dag.Back_edge cfg;
      check_plan_invariants name Dag.Loop_header cfg)

let test_dag_invariants_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"dag invariants on random methods"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let p = Compile.pdef (Synthetic.program ~seed ~n_methods:2 ()) in
         Program.iter_methods
           (fun _ m ->
             let cfg = To_cfg.cfg m in
             check_dag_invariants "rand" (Dag.build Dag.Back_edge cfg);
             check_dag_invariants "rand" (Dag.build Dag.Loop_header cfg))
           p;
         true))

let test_smart_static_ops_ordering () =
  (* zero-on-hottest must never need more dynamic adds on the hot arms
     than zero-on-coldest does; verify via executed r-op counts *)
  let program = Workload.program ~size:3 (Suite.find "jess") in
  let executed zero =
    let st = Machine.create ~seed:21 program in
    let pe = Profiler.perfect_edge st in
    ignore (Interp.run pe.Profiler.ehooks st);
    let table = pe.Profiler.etable in
    let st2 = Machine.create ~seed:21 program in
    let before = st2.Machine.cycles in
    ignore before;
    let pep =
      Pep.create
        ~number:(fun m dag -> Pep.smart_number ~zero table m dag)
        ~sampling:Sampling.never st2
    in
    ignore (Interp.run (Tick.hooks () @ pep.Pep.hooks) st2);
    st2.Machine.cycles
  in
  check cb "hottest-zero cheaper than coldest-zero" true
    (executed `Hottest < executed `Coldest)

let suite =
  [
    Alcotest.test_case "dag invariants (workloads)" `Slow test_dag_invariants_workloads;
    Alcotest.test_case "plan invariants (workloads)" `Slow test_plan_invariants_workloads;
    test_dag_invariants_qcheck;
    Alcotest.test_case "smart numbering ordering" `Quick test_smart_static_ops_ordering;
  ]
