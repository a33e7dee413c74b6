(* Partial-path reconstruction, edge-based path estimation, and the
   hardware path-table comparator. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* --- partial reconstruction ---------------------------------------- *)

let test_partial_roundtrip () =
  (* every prefix of every path must be recoverable from its partial sum *)
  let cfg =
    Cfg.create ~name:"m" ~entry:0 ~exit_:5
      [|
        Cfg.Jump 1;
        Cfg.Branch { branch = 0; taken = 2; not_taken = 5 };
        Cfg.Branch { branch = 1; taken = 3; not_taken = 4 };
        Cfg.Jump 1;
        Cfg.Jump 1;
        Cfg.Return;
      |]
  in
  let numbering = Numbering.ball_larus (Dag.build Dag.Loop_header cfg) in
  for path_id = 0 to Numbering.n_paths numbering - 1 do
    let full = Reconstruct.dag_path numbering path_id in
    (* walk prefixes *)
    let rec prefixes acc_sum acc_rev = function
      | [] -> ()
      | (e : Dag.edge) :: rest ->
          let acc_sum = acc_sum + Numbering.value numbering e in
          let acc_rev = e :: acc_rev in
          let recovered =
            Reconstruct.partial_dag_path numbering ~stop_node:e.edst acc_sum
          in
          if
            List.map (fun (x : Dag.edge) -> x.idx) recovered
            <> List.rev_map (fun (x : Dag.edge) -> x.idx) acc_rev
          then Alcotest.failf "prefix mismatch on path %d" path_id;
          prefixes acc_sum acc_rev rest
    in
    prefixes 0 [] full
  done

let test_partial_rejects_garbage () =
  let cfg =
    Cfg.create ~name:"m" ~entry:0 ~exit_:3
      [|
        Cfg.Jump 1;
        Cfg.Branch { branch = 0; taken = 2; not_taken = 3 };
        Cfg.Jump 3;
        Cfg.Return;
      |]
  in
  let numbering = Numbering.ball_larus (Dag.build Dag.Back_edge cfg) in
  (* node 2 is reached only with remaining sum 0 *)
  match Reconstruct.partial_dag_path numbering ~stop_node:2 99 with
  | (_ : Dag.edge list) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_partial_on_workload =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"partial reconstruction on synthetic"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let p = Compile.pdef (Synthetic.program ~seed ~n_methods:2 ()) in
         Program.iter_methods
           (fun _ m ->
             let cfg = To_cfg.cfg m in
             let numbering = Numbering.ball_larus (Dag.build Dag.Loop_header cfg) in
             let n = Numbering.n_paths numbering in
             if n <= 200 then
               for path_id = 0 to n - 1 do
                 let full = Reconstruct.dag_path numbering path_id in
                 (* check the longest proper prefix *)
                 match List.rev full with
                 | [] -> ()
                 | last :: rev_prefix ->
                     let prefix = List.rev rev_prefix in
                     let sum = Reconstruct.id_of_dag_path numbering prefix in
                     let got =
                       Reconstruct.partial_dag_path numbering
                         ~stop_node:last.Dag.esrc sum
                     in
                     if
                       List.map (fun (x : Dag.edge) -> x.idx) got
                       <> List.map (fun (x : Dag.edge) -> x.idx) prefix
                     then Alcotest.fail "prefix mismatch"
               done)
           p;
         true))

(* --- path estimation from edge profiles ----------------------------- *)

let biased_loop_numbering () =
  (* loop whose body branch is 90/10: path through the hot arm must be
     ranked first *)
  let cfg =
    Cfg.create ~name:"m" ~entry:0 ~exit_:5
      [|
        Cfg.Jump 1;
        Cfg.Branch { branch = 0; taken = 2; not_taken = 5 };
        Cfg.Branch { branch = 1; taken = 3; not_taken = 4 };
        Cfg.Jump 1;
        Cfg.Jump 1;
        Cfg.Return;
      |]
  in
  let profile = Edge_profile.create () in
  Edge_profile.add profile 0 ~taken:true 100;
  Edge_profile.add profile 0 ~taken:false 1;
  Edge_profile.add profile 1 ~taken:true 90;
  Edge_profile.add profile 1 ~taken:false 10;
  (Numbering.ball_larus (Dag.build Dag.Loop_header cfg), profile)

let test_estimate_ranks_hot_arm () =
  let numbering, profile = biased_loop_numbering () in
  match Path_estimate.top_paths ~k:8 numbering profile with
  | (top_id, top_w) :: rest ->
      check cb "weights decreasing" true
        (List.for_all (fun (_, w) -> w <= top_w) rest);
      (* the top path must traverse the 90% arm (branch 1 taken) *)
      let edges = Reconstruct.cfg_edges numbering top_id in
      let takes_hot =
        List.exists
          (fun (e : Cfg.edge) -> e.attr = Cfg.Taken 1)
          edges
      in
      check cb "hot arm ranked first" true takes_hot
  | [] -> Alcotest.fail "no paths returned"

let test_estimate_bounded () =
  let numbering, profile = biased_loop_numbering () in
  let paths = Path_estimate.top_paths ~k:3 numbering profile in
  check cb "k respected" true (List.length paths <= 3);
  List.iter
    (fun (id, w) ->
      check cb "id in range" true (id >= 0 && id < Numbering.n_paths numbering);
      check cb "weight positive" true (w > 0.))
    paths

let test_estimate_finds_true_hot_paths () =
  (* on a benchmark with independent branches, estimation from a perfect
     edge profile should find most of the true hot flow *)
  let program = Workload.program ~size:6 (Suite.find "jess") in
  let st = Machine.create ~seed:4 program in
  let perfect = Profiler.perfect_path st in
  ignore (Interp.run (Interp.compose (Tick.hooks ()) perfect.Profiler.hooks) st);
  let edges =
    Profiler.edges_of_paths ~n_methods:(Program.n_methods program)
      perfect.Profiler.plans perfect.Profiler.table
  in
  let estimated =
    Path_estimate.table ~k:256 ~plans:perfect.Profiler.plans edges
  in
  let n_branches =
    Profiler.n_branches_resolver perfect.Profiler.plans perfect.Profiler.table
  in
  let acc =
    Accuracy.wall_path_accuracy ~n_branches ~actual:perfect.Profiler.table
      ~estimated ()
  in
  check cb "estimation finds hot flow" true (acc > 0.7)

(* --- hardware path table -------------------------------------------- *)

let test_hw_profiler_counts () =
  let program = Workload.program ~size:4 (Suite.find "compress") in
  (* ground truth *)
  let st0 = Machine.create ~seed:6 program in
  let perfect = Profiler.perfect_path st0 in
  ignore (Interp.run (Interp.compose (Tick.hooks ()) perfect.Profiler.hooks) st0);
  (* hardware table big enough to hold everything exactly *)
  let st = Machine.create ~seed:6 program in
  let hw =
    Hw_profiler.create ~table_sizes:[ 65536 ]
      ~number:(fun _ dag -> Numbering.ball_larus dag)
      st
  in
  ignore (Interp.run (Interp.compose (Tick.hooks ()) (Hw_profiler.hooks hw)) st);
  let seen, evictions = List.hd (Hw_profiler.stats hw) in
  check ci "sees every path end" (Path_profile.table_total perfect.Profiler.table) seen;
  check cb "few collisions at this size" true (evictions < seen / 100);
  (* with no aliasing pressure, hot-path counts match ground truth *)
  let snap = List.hd (Hw_profiler.to_path_profiles hw) in
  Array.iteri
    (fun m prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          match Path_profile.find prof e.path_id with
          | Some got ->
              check cb "count close" true
                (abs (got.Path_profile.count - e.count) <= e.count / 10 + 2)
          | None -> Alcotest.fail "hot path evicted from a huge table")
        perfect.Profiler.table.(m))
    snap

let test_hw_small_table_degrades () =
  let program = Workload.program ~size:20 (Suite.find "jython") in
  let accuracy table_size =
    let st0 = Machine.create ~seed:6 program in
    let perfect = Profiler.perfect_path st0 in
    ignore (Interp.run (Interp.compose (Tick.hooks ()) perfect.Profiler.hooks) st0);
    let st = Machine.create ~seed:6 program in
    let hw =
      Hw_profiler.create ~table_sizes:[ table_size ]
        ~number:(fun _ dag -> Numbering.ball_larus dag)
        st
    in
    ignore (Interp.run (Interp.compose (Tick.hooks ()) (Hw_profiler.hooks hw)) st);
    let n_branches =
      Profiler.n_branches_resolver perfect.Profiler.plans perfect.Profiler.table
    in
    Accuracy.wall_path_accuracy ~n_branches ~actual:perfect.Profiler.table
      ~estimated:(List.hd (Hw_profiler.to_path_profiles hw)) ()
  in
  let small = accuracy 64 and big = accuracy 16384 in
  check cb "bigger table at least as accurate" true (big +. 0.02 >= small);
  check cb "big table accurate" true (big > 0.9)

(* One hook layer feeding three tables is three single-table replays in
   one: the same tables, the same path ends and evictions per table,
   and the same machine cycles — the layer charges its path register,
   not its tables, so sharing it changes nothing the program sees. *)
let test_hw_shared_replay () =
  let sizes = [ 256; 2048; 16384 ] in
  let replay (name, size) table_sizes =
    let program = Workload.program ~size (Suite.find name) in
    let st = Machine.create ~seed:6 program in
    let hw =
      Hw_profiler.create ~table_sizes
        ~number:(fun _ dag -> Numbering.ball_larus dag)
        st
    in
    ignore (Interp.run (Interp.compose (Tick.hooks ()) (Hw_profiler.hooks hw)) st);
    ( List.map Path_profile.to_lines (Hw_profiler.to_path_profiles hw),
      Hw_profiler.stats hw,
      st.Machine.cycles )
  in
  List.iter
    (fun ((name, _) as w) ->
      let tables, stats, cycles = replay w sizes in
      List.iteri
        (fun i size ->
          let tables1, stats1, cycles1 = replay w [ size ] in
          let what = Printf.sprintf "%s, %d slots" name size in
          check (Alcotest.list Alcotest.string) (what ^ ": same table")
            (List.hd tables1) (List.nth tables i);
          check (Alcotest.pair ci ci) (what ^ ": same seen/evictions")
            (List.hd stats1) (List.nth stats i);
          check ci (what ^ ": same machine cycles") cycles1 cycles)
        sizes;
      if name = "jython" then
        check cb "jython evicts at 256 slots" true (snd (List.hd stats) > 0))
    [ ("compress", 4); ("jython", 20) ]

let suite =
  [
    Alcotest.test_case "partial roundtrip" `Quick test_partial_roundtrip;
    Alcotest.test_case "partial rejects garbage" `Quick test_partial_rejects_garbage;
    test_partial_on_workload;
    Alcotest.test_case "estimate ranks hot arm" `Quick test_estimate_ranks_hot_arm;
    Alcotest.test_case "estimate bounded" `Quick test_estimate_bounded;
    Alcotest.test_case "estimate finds hot paths" `Quick test_estimate_finds_true_hot_paths;
    Alcotest.test_case "hw table counts" `Quick test_hw_profiler_counts;
    Alcotest.test_case "hw small table degrades" `Quick test_hw_small_table_degrades;
    Alcotest.test_case "hw tables share one replay" `Quick test_hw_shared_replay;
  ]
