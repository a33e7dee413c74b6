(* Accuracy over time under drifting traffic.  See exp_drift.mli. *)

type point = {
  window : int;
  phase : int;
  samples : int;
  path_acc : float;
  edge_acc : float;
  stale_path_acc : float;
  stale_edge_acc : float;
}

type series = {
  workload : string;
  windows : int;
  threshold : float;
  schedule : int list;
  shifts : int list;
  points : point list;
  recovered : bool;
}

let default_threshold = 0.80

(* Per-window deltas over the cumulative tables, fleet-collector style:
   replay never re-instruments, so cumulative counts are monotone and
   the delta is exact. *)
type cursor = { tbl : (int * int, int) Hashtbl.t }

let delta cursor rows =
  List.filter_map
    (fun (a, b, c) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt cursor.tbl (a, b)) in
      Hashtbl.replace cursor.tbl (a, b) c;
      if c - prev > 0 then Some (a, b, c - prev) else None)
    rows

let path_table ~n_methods rows =
  let t = Path_profile.create_table ~n_methods in
  List.iter (fun (mi, pid, c) -> Path_profile.add t.(mi) pid c) rows;
  t

let shifts_of schedule =
  let sched = Array.of_list schedule in
  List.filter
    (fun w -> w > 0 && sched.(w) <> sched.(w - 1))
    (List.init (Array.length sched) (fun w -> w))

(* [recovered]: after every shift, some later window before the next
   shift clears the threshold on both stale scores. *)
let recovered_of ~threshold ~windows ~shifts points =
  let arr = Array.of_list points in
  List.for_all
    (fun s ->
      let next =
        match List.find_opt (fun s' -> s' > s) shifts with
        | Some s' -> s'
        | None -> windows
      in
      let rec probe w =
        w < next
        && ((arr.(w).stale_path_acc >= threshold
             && arr.(w).stale_edge_acc >= threshold)
           || probe (w + 1))
      in
      probe (s + 1))
    shifts

let run ?(samples = 64) ?(stride = 17) ?(tick_shrink = 8)
    ?(threshold = default_threshold) ?size ?(seed = 42) ~schedule
    (w : Workload.t) =
  let cost = Exp_harness.compressed_cost ~tick_shrink in
  (* phase-0 adaptive warmup: the advice every window replays against *)
  let env = Exp_harness.make_env ~cost ?size ~seed w in
  let program = env.Exp_harness.program and advice = Exp_harness.advice env in
  (* the collection instance: replay + PEP, with a masked perfect path
     profiler riding the same driver as concurrent ground truth *)
  let st = Machine.create ~cost ~seed:(seed + 1) program in
  let driver =
    Driver.create
      {
        Driver.default_options with
        Driver.mode = Driver.Replay advice;
        pep =
          Some
            {
              Driver.sampling = Sampling.pep ~samples ~stride;
              zero = `Hottest;
              numbering = `Smart;
            };
        verify = false;
      }
      st
  in
  let pep = Option.get (Driver.pep driver) in
  Driver.precompile driver;
  let truth = Profiler.perfect_path ~number:(Exp_harness.advice_number env) st in
  Exp_harness.mask_plans env truth.Profiler.plans;
  Driver.add_hooks driver truth.Profiler.hooks;
  let n_methods = Array.length st.Machine.methods in
  let edges_of paths = Profiler.edges_of_paths ~n_methods truth.Profiler.plans paths in
  let c_pep = { tbl = Hashtbl.create 256 }
  and c_truth = { tbl = Hashtbl.create 256 } in
  let c_samples = ref 0 in
  let prev_pep = ref None in
  let points =
    List.mapi
      (fun window phase ->
        if Array.length st.Machine.globals > Phased.phase_global then
          st.Machine.globals.(Phased.phase_global) <- phase;
        ignore (Driver.run driver);
        let pep_d =
          path_table ~n_methods (delta c_pep (Path_profile.rows pep.Pep.paths))
        in
        let truth_d =
          path_table ~n_methods
            (delta c_truth (Path_profile.rows truth.Profiler.table))
        in
        let total = Pep.n_samples pep in
        let samples = max 0 (total - !c_samples) in
        c_samples := total;
        let n_branches =
          Profiler.n_branches_resolver truth.Profiler.plans truth_d
        in
        let acc estimated =
          ( Accuracy.wall_path_accuracy ~n_branches ~actual:truth_d ~estimated (),
            Accuracy.relative_overlap ~actual:(edges_of truth_d)
              ~estimated:(edges_of estimated) )
        in
        let path_acc, edge_acc = acc pep_d in
        let stale_path_acc, stale_edge_acc =
          match !prev_pep with None -> (path_acc, edge_acc) | Some p -> acc p
        in
        prev_pep := Some pep_d;
        { window; phase; samples; path_acc; edge_acc; stale_path_acc; stale_edge_acc })
      schedule
  in
  let windows = List.length schedule in
  let shifts = shifts_of schedule in
  {
    workload = w.Workload.name;
    windows;
    threshold;
    schedule;
    shifts;
    points;
    recovered = recovered_of ~threshold ~windows ~shifts points;
  }

let run_spec ?windows ?samples ?stride ?tick_shrink ?threshold ?size ?seed spec
    =
  (* two windows per phase minimum, so every shift has a recovery
     window before the next one *)
  let windows =
    match windows with Some w -> w | None -> max 6 (2 * spec.Wgen.phases)
  in
  run ?samples ?stride ?tick_shrink ?threshold ?size ?seed
    ~schedule:(Wgen.schedule spec ~windows)
    (Wgen.workload spec)

(* ------------------------------- export ---------------------------- *)

let to_json s =
  let ints l = String.concat "," (List.map string_of_int l) in
  let point p =
    Fmt.str
      "{\"window\":%d,\"phase\":%d,\"samples\":%d,\"path_acc\":%.6f,\"edge_acc\":%.6f,\"stale_path_acc\":%.6f,\"stale_edge_acc\":%.6f}"
      p.window p.phase p.samples p.path_acc p.edge_acc p.stale_path_acc
      p.stale_edge_acc
  in
  Fmt.str
    "{\"workload\":%s,\"windows\":%d,\"threshold\":%.2f,\"schedule\":[%s],\"shifts\":[%s],\"recovered\":%b,\"points\":[%s]}"
    (Tjson.str s.workload) s.windows s.threshold (ints s.schedule)
    (ints s.shifts) s.recovered
    (String.concat "," (List.map point s.points))

let figure s =
  {
    Exp_figures.id = "accuracy-over-time";
    title = Fmt.str "Windowed accuracy under drift: %s" s.workload;
    unit_ = "accuracy [0,1]; stale = previous window's profile vs this truth";
    header = [ "phase"; "samples"; "path"; "edge"; "stale-path"; "stale-edge" ];
    rows =
      List.map
        (fun p ->
          ( Fmt.str "w%d%s" p.window
              (if List.mem p.window s.shifts then "*" else ""),
            [
              float_of_int p.phase;
              float_of_int p.samples;
              p.path_acc;
              p.edge_acc;
              p.stale_path_acc;
              p.stale_edge_acc;
            ] ))
        s.points;
    summary =
      [
        ("shifts", float_of_int (List.length s.shifts));
        ("threshold", s.threshold);
        ("recovered", if s.recovered then 1.0 else 0.0);
      ];
    paper =
      "no counterpart: the paper measures accuracy only at end of run (§6)";
  }
