type figure = {
  id : string;
  title : string;
  unit_ : string;
  header : string list;
  rows : (string * float list) list;
  summary : (string * float) list;
  paper : string;
}

let print fig =
  Exp_report.section (Fmt.str "%s: %s [%s]" fig.id fig.title fig.unit_);
  Exp_report.table
    ~header:("benchmark" :: fig.header)
    (List.map
       (fun (name, values) ->
         name :: List.map (fun v -> Fmt.str "%.2f" v) values)
       fig.rows);
  List.iter (fun (label, v) -> Printf.printf "%-28s %8.2f\n" label v) fig.summary;
  Printf.printf "paper: %s\n" fig.paper

let bench_name c = (Exp_cache.env c).Exp_harness.workload.Workload.name

(* Derive a run configuration from the cache's base configuration (which
   may carry a telemetry sink) by overriding the profiling axis. *)
let cfg_with c profiling = { (Exp_cache.config c) with Exp_harness.profiling }

let col_summary label values =
  [
    (label ^ " mean", Exp_report.mean values);
    (label ^ " max", List.fold_left Float.max neg_infinity values);
  ]

let pep_configs = [ (1, 1); (64, 17); (256, 17); (1024, 17) ]

(* ------------------------------------------------------------------ *)

let fig6 caches =
  let rows =
    List.map
      (fun c ->
        let base = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let ov (r : Exp_harness.run) =
          Exp_report.overhead ~base r.meas.iter2
        in
        let runs =
          Exp_cache.instr_only c
          :: List.map (fun (s, t) -> Exp_cache.pep c ~samples:s ~stride:t) pep_configs
        in
        Exp_harness.check_consistent (Exp_cache.base c :: runs);
        (bench_name c, List.map ov runs))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "fig6";
    title = "PEP execution overhead (2nd replay iteration)";
    unit_ = "% overhead vs base";
    header =
      "instr-only"
      :: List.map (fun (s, t) -> Fmt.str "PEP(%d,%d)" s t) pep_configs;
    rows;
    summary =
      col_summary "instr-only" (nth_col 0)
      @ col_summary "PEP(64,17)" (nth_col 2)
      @ col_summary "PEP(1024,17)" (nth_col 4);
    paper =
      "instr alone 1.1% avg / 5.4% max; PEP(64,17) 1.2% avg / 4.3% max; \
       denser configs +0.8-2.3%";
  }

let fig7 caches =
  let rows =
    List.map
      (fun c ->
        let base = (Exp_cache.base c).Exp_harness.meas.iter1 in
        let pep = (Exp_cache.pep c ~samples:64 ~stride:17).Exp_harness.meas in
        (bench_name c, [ Exp_report.overhead ~base pep.iter1 ]))
      caches
  in
  let col = List.map (fun (_, vs) -> List.hd vs) rows in
  {
    id = "fig7";
    title = "PEP compilation+execution overhead (1st replay iteration)";
    unit_ = "% overhead vs base";
    header = [ "PEP(64,17)" ];
    rows;
    summary = col_summary "PEP(64,17)" col;
    paper = "1.6% avg, 4.6% max (higher than execution-only overhead)";
  }

(* Wall accuracy (%) of an estimated path table against a path
   profiler's table. *)
let wall_accuracy (actual : Profiler.path_profiler) estimated =
  let n_branches =
    Profiler.n_branches_resolver actual.Profiler.plans actual.Profiler.table
  in
  100.
  *. Accuracy.wall_path_accuracy ~n_branches ~actual:actual.Profiler.table
       ~estimated ()

(* The same, against the cached perfect path profile. *)
let accuracy_vs_perfect c estimated =
  wall_accuracy (Option.get (Exp_cache.perfect_path c).Exp_harness.ppaths)
    estimated

let path_accuracy c (pep_run : Exp_harness.run) =
  accuracy_vs_perfect c (Option.get pep_run.Exp_harness.pep).Pep.paths

let fig8 caches =
  let rows =
    List.map
      (fun c ->
        ( bench_name c,
          List.map
            (fun (s, t) -> path_accuracy c (Exp_cache.pep c ~samples:s ~stride:t))
            pep_configs ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "fig8";
    title = "Hot-path profile accuracy (Wall weight matching, branch flow)";
    unit_ = "% accuracy";
    header = List.map (fun (s, t) -> Fmt.str "PEP(%d,%d)" s t) pep_configs;
    rows;
    summary =
      [
        ("PEP(1,1) mean", Exp_report.mean (nth_col 0));
        ("PEP(64,17) mean", Exp_report.mean (nth_col 1));
        ("PEP(1024,17) mean", Exp_report.mean (nth_col 3));
      ];
    paper = "timer-based 53%; PEP(64,17) 94%; small gains beyond";
  }

let edge_accuracy metric c (pep_run : Exp_harness.run) =
  let actual = Exp_cache.perfect_edges_of_paths c in
  let pep = Option.get pep_run.Exp_harness.pep in
  100. *. metric ~actual ~estimated:pep.Pep.edges

let fig9 caches =
  let rows =
    List.map
      (fun c ->
        ( bench_name c,
          List.map
            (fun (s, t) ->
              edge_accuracy Accuracy.relative_overlap c
                (Exp_cache.pep c ~samples:s ~stride:t))
            pep_configs ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "fig9";
    title = "Edge profile accuracy (relative overlap vs path-derived truth)";
    unit_ = "% accuracy";
    header = List.map (fun (s, t) -> Fmt.str "PEP(%d,%d)" s t) pep_configs;
    rows;
    summary =
      [
        ("PEP(1,1) mean", Exp_report.mean (nth_col 0));
        ("PEP(64,17) mean", Exp_report.mean (nth_col 1));
        ("PEP(1024,17) mean", Exp_report.mean (nth_col 3));
      ];
    paper = "PEP(64,17) 96%; more samples slightly better";
  }

let tab_absolute caches =
  let configs = [ (64, 17); (256, 17); (1024, 17) ] in
  let rows =
    List.map
      (fun c ->
        ( bench_name c,
          List.map
            (fun (s, t) ->
              edge_accuracy Accuracy.absolute_overlap c
                (Exp_cache.pep c ~samples:s ~stride:t))
            configs ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-absolute";
    title = "Edge profile absolute overlap (§6.4)";
    unit_ = "% overlap";
    header = List.map (fun (s, t) -> Fmt.str "PEP(%d,%d)" s t) configs;
    rows;
    summary =
      [
        ("PEP(64,17) mean", Exp_report.mean (nth_col 0));
        ("PEP(256,17) mean", Exp_report.mean (nth_col 1));
        ("PEP(1024,17) mean", Exp_report.mean (nth_col 2));
      ];
    paper = "83% (64,17), 87% (256,17), 88% (1024,17)";
  }

let tab_perfect caches =
  let rows =
    List.map
      (fun c ->
        let base = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let path =
          (Exp_cache.run c (cfg_with c Exp_harness.Perfect_path))
            .Exp_harness.meas
            .iter2
        in
        let edge =
          (Exp_cache.run c (cfg_with c Exp_harness.Perfect_edge))
            .Exp_harness.meas
            .iter2
        in
        ( bench_name c,
          [ Exp_report.overhead ~base path; Exp_report.overhead ~base edge ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-perfect";
    title = "Perfect-profile collector overhead (§5.1)";
    unit_ = "% overhead vs base";
    header = [ "instr path"; "instr edge" ];
    rows;
    summary = col_summary "instr path" (nth_col 0) @ col_summary "instr edge" (nth_col 1);
    paper = "instr path 92% avg (8-407%); instr edge 10% avg (0-34%)";
  }

let tab_blpp caches =
  let rows =
    List.map
      (fun c ->
        let base = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let blpp =
          (Exp_cache.run c (cfg_with c Exp_harness.Classic_blpp))
            .Exp_harness.meas
            .iter2
        in
        let edge =
          (Exp_cache.run c (cfg_with c Exp_harness.Perfect_edge))
            .Exp_harness.meas
            .iter2
        in
        ( bench_name c,
          [ Exp_report.overhead ~base blpp; Exp_report.overhead ~base edge ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-blpp";
    title = "Classic Ball-Larus instrumentation overhead (§2.2 context)";
    unit_ = "% overhead vs base";
    header = [ "BLPP paths"; "BL edges" ];
    rows;
    summary =
      col_summary "BLPP paths" (nth_col 0) @ col_summary "BL edges" (nth_col 1);
    paper = "Ball-Larus path 31% avg, edge 16% avg (SPEC95)";
  }

let tab_smart caches =
  let cfg zero numbering =
    Exp_harness.Pep_profiled { sampling = Sampling.never; zero; numbering }
  in
  let rows =
    List.map
      (fun c ->
        let base = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let hot = (Exp_cache.instr_only c).Exp_harness.meas.iter2 in
        let cold =
          (Exp_cache.run c (cfg_with c (cfg `Coldest `Smart)))
            .Exp_harness.meas
            .iter2
        in
        let bl =
          (Exp_cache.run c (cfg_with c (cfg `Hottest `Ball_larus)))
            .Exp_harness.meas
            .iter2
        in
        ( bench_name c,
          [
            Exp_report.overhead ~base hot;
            Exp_report.overhead ~base cold;
            Exp_report.overhead ~base bl;
          ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-smart";
    title = "Smart path numbering ablation (§3.4): where the zero arm goes";
    unit_ = "% overhead vs base (instrumentation only)";
    header = [ "zero=hottest"; "zero=coldest"; "ball-larus" ];
    rows;
    summary =
      [
        ("zero=hottest mean", Exp_report.mean (nth_col 0));
        ("zero=coldest mean", Exp_report.mean (nth_col 1));
        ("ball-larus mean", Exp_report.mean (nth_col 2));
      ];
    paper = "hot-edge placement raises instr overhead 1.1% -> 2.5%";
  }

let tab_ag caches =
  let rows =
    List.map
      (fun c ->
        let base = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let pep = Exp_cache.pep c ~samples:64 ~stride:17 in
        let ag =
          Exp_cache.run c
            (cfg_with c
               (Exp_harness.Pep_profiled
                  {
                    sampling = Sampling.arnold_grove ~samples:64 ~stride:17;
                    zero = `Hottest;
                    numbering = `Smart;
                  }))
        in
        ( bench_name c,
          [
            Exp_report.overhead ~base pep.Exp_harness.meas.iter2;
            Exp_report.overhead ~base ag.Exp_harness.meas.iter2;
            path_accuracy c pep;
            path_accuracy c ag;
          ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-ag";
    title = "Simplified vs full Arnold-Grove striding (§4.4)";
    unit_ = "% overhead / % accuracy";
    header = [ "ov PEP(64,17)"; "ov AG(64,17)"; "acc PEP"; "acc AG" ];
    rows;
    summary =
      [
        ("overhead PEP mean", Exp_report.mean (nth_col 0));
        ("overhead AG mean", Exp_report.mean (nth_col 1));
        ("accuracy PEP mean", Exp_report.mean (nth_col 2));
        ("accuracy AG mean", Exp_report.mean (nth_col 3));
      ];
    paper =
      "striding after the first sample is not a good overhead-accuracy \
       trade-off for PEP";
  }

let tab_header caches =
  let rows =
    List.map
      (fun c ->
        let env = Exp_cache.env c in
        let base = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let header_mode = (Exp_cache.instr_only c).Exp_harness.meas.iter2 in
        let back_mode =
          (Exp_cache.run c (cfg_with c Exp_harness.Instr_back_edge))
            .Exp_harness.meas
            .iter2
        in
        (* static path-count comparison over the advised-opt methods *)
        let count mode =
          let st = Machine.create ~seed:env.seed env.program in
          let plans =
            Profile_hooks.make_plans ~mode
              ~number:(Exp_harness.advice_number env)
              st
          in
          Exp_harness.mask_plans env plans;
          Array.fold_left
            (fun acc plan ->
              match plan with
              | Some (p : Instrument.t) ->
                  acc + Numbering.n_paths p.numbering
              | None -> acc)
            0 plans
        in
        ( bench_name c,
          [
            Exp_report.overhead ~base header_mode;
            Exp_report.overhead ~base back_mode;
            float_of_int (count Dag.Loop_header);
            float_of_int (count Dag.Back_edge);
          ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-header";
    title = "Path-ending ablation (§3.2): loop headers vs back edges";
    unit_ = "% overhead (r-maintenance) / static path counts";
    header = [ "ov header"; "ov back-edge"; "paths hdr"; "paths back" ];
    rows;
    summary =
      [
        ("header-mode ov mean", Exp_report.mean (nth_col 0));
        ("back-edge ov mean", Exp_report.mean (nth_col 1));
      ];
    paper = "difference believed minor (affects first path through a loop)";
  }

let tab_onetime caches =
  let rows =
    List.map
      (fun c ->
        let env = Exp_cache.env c in
        let actual = Exp_cache.perfect_edges_of_paths c in
        let acc =
          100.
          *. Accuracy.relative_overlap ~actual
               ~estimated:(Exp_harness.advice env).Advice.profile
        in
        (bench_name c, [ acc ]))
      caches
  in
  let col = List.map (fun (_, vs) -> List.hd vs) rows in
  {
    id = "tab-onetime";
    title = "One-time (baseline) edge profile accuracy (§6.5)";
    unit_ = "% relative overlap vs perfect continuous";
    header = [ "one-time" ];
    rows;
    summary =
      [
        ("one-time mean", Exp_report.mean col);
        ("one-time min", List.fold_left Float.min infinity col);
      ];
    paper = "97% avg, 86% worst";
  }

let fig10 caches =
  let rows =
    List.map
      (fun c ->
        let table = Exp_cache.perfect_edges_of_paths c in
        let onetime = (Exp_cache.base c).Exp_harness.meas.iter2 in
        let with_table t =
          {
            (cfg_with c Exp_harness.Base) with
            Exp_harness.opt_profile = Driver.Fixed t;
          }
        in
        let continuous =
          (Exp_cache.run c (with_table table)).Exp_harness.meas.iter2
        in
        let flipped =
          (Exp_cache.run c (with_table (Edge_profile.flip_table table)))
            .Exp_harness.meas
            .iter2
        in
        ( bench_name c,
          [
            Exp_report.overhead ~base:onetime continuous;
            Exp_report.overhead ~base:onetime flipped;
          ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "fig10";
    title = "Driving optimization: continuous and flipped vs one-time profile";
    unit_ = "% vs one-time (negative = faster)";
    header = [ "continuous"; "flipped" ];
    rows;
    summary =
      [
        ("continuous mean", Exp_report.mean (nth_col 0));
        ("flipped mean", Exp_report.mean (nth_col 1));
      ];
    paper = "continuous ~0.9% faster on average; flipped significantly slower";
  }

let fig11 ?(trials = 15) caches =
  let rows =
    List.map
      (fun c ->
        let totals profiling =
          List.map float_of_int
            (Exp_cache.adaptive c (cfg_with c profiling) ~trials)
        in
        let base = Exp_report.median (totals Exp_harness.Base) in
        let pep = Exp_report.median (totals Exp_harness.pep_default) in
        (bench_name c, [ 100. *. ((pep /. base) -. 1.) ]))
      caches
  in
  let col = List.map (fun (_, vs) -> List.hd vs) rows in
  {
    id = "fig11";
    title =
      "Adaptive methodology: PEP(64,17) collecting profiles and driving \
       optimization";
    unit_ = "% overhead vs base adaptive (median of trials)";
    header = [ "PEP(64,17)" ];
    rows;
    summary = col_summary "PEP(64,17)" col;
    paper = "1.3% avg, 3.2% max: costs outweigh benefits on predictable programs";
  }

(* ------------------------- comparator values ------------------------ *)

let hw_sizes = [ 256; 2048; 16384 ]

(* What the four comparator figures take from replays of their own,
   which no cacheable run can stand in for. *)
type comparators = {
  hardware : float list;  (** tab-hardware: accuracy per [hw_sizes] *)
  onetime_paths : float;  (** tab-onetime-paths: one-time accuracy *)
  inline_acc : float;  (** tab-inline: PEP accuracy over inlined code *)
  inline_sites : float;  (** tab-inline: call sites inlined *)
  unroll_acc : float;  (** tab-unroll: PEP accuracy over unrolled code *)
  unroll_loops : float;  (** tab-unroll: loops unrolled *)
}

let comparators_tag = "|comparators"

let to_values r =
  r.hardware
  @ [ r.onetime_paths; r.inline_acc; r.inline_sites ]
  @ [ r.unroll_acc; r.unroll_loops ]

let of_values vs =
  let n = List.length hw_sizes in
  match List.filteri (fun i _ -> i >= n) vs with
  | [ onetime_paths; inline_acc; inline_sites; unroll_acc; unroll_loops ] ->
      {
        hardware = List.filteri (fun i _ -> i < n) vs;
        onetime_paths;
        inline_acc;
        inline_sites;
        unroll_acc;
        unroll_loops;
      }
  | _ -> invalid_arg "Exp_figures.of_values: wrong number of values"

(* The four comparator replays of one benchmark, with their drivers'
   verification diagnostics. *)
let compute_comparators c () =
  let env = Exp_cache.env c and config = Exp_cache.config c in
  (* the hardware and one-time replays run the one-time-profiled code
     untransformed, without the configuration's fault plan or deep
     verification *)
  let plain =
    {
      config with
      Exp_harness.profiling = Exp_harness.Base;
      opt_profile = Driver.From_baseline;
      inline = false;
      unroll = false;
      deep = false;
      faults = Fault_plan.empty;
    }
  in
  (* one hook layer feeds every table size, so all sizes see one
     replay's path ends *)
  let hw_driver, hw =
    Exp_harness.observe ~name:"hardware" env plain (fun st ->
        let hw =
          Hw_profiler.create ~table_sizes:hw_sizes
            ~number:(Exp_harness.advice_number env)
            st
        in
        Exp_harness.mask_plans env (Hw_profiler.plans hw);
        (Hw_profiler.hooks hw, hw))
  in
  let hardware =
    List.map (accuracy_vs_perfect c) (Hw_profiler.to_path_profiles hw)
  in
  (* structural-path-profiling style: instrument only the start of
     execution, then drop the instrumentation *)
  let cutoff = (Exp_cache.base c).Exp_harness.meas.iter2 * 15 / 100 in
  let table =
    Path_profile.create_table ~n_methods:(Program.n_methods env.program)
  in
  let onetime_driver, () =
    Exp_harness.observe ~name:"onetime-paths" env plain (fun st ->
        let plans =
          Profile_hooks.make_plans ~mode:Dag.Loop_header
            ~number:(Exp_harness.advice_number env)
            st
        in
        Exp_harness.mask_plans env plans;
        let on_path_end (st : Machine.t) (frame : Interp.frame) ~path_id =
          if st.cycles < cutoff then
            Path_profile.incr table.(frame.Interp.fmeth) path_id
        in
        (Profile_hooks.path_hooks ~plans ~count_cost:`Hash ~on_path_end (), ()))
  in
  (* PEP(64,17) and a perfect path profiler over the same transformed
     code, so the two profiles share numbering *)
  let truth transforms =
    let driver, truth =
      Exp_harness.observe ~precompile:true ~name:"truth" env
        { transforms with Exp_harness.profiling = Exp_harness.pep_default }
        (fun st ->
          let p =
            Profiler.perfect_path ~number:(Exp_harness.advice_number env) st
          in
          Exp_harness.mask_plans env p.Profiler.plans;
          (p.Profiler.hooks, p))
    in
    (driver, wall_accuracy truth (Option.get (Driver.pep driver)).Pep.paths)
  in
  let inline_driver, inline_acc =
    truth { config with Exp_harness.inline = true }
  in
  let unroll_driver, unroll_acc =
    truth { config with Exp_harness.inline = false; unroll = true }
  in
  let checks what d = List.map (fun diag -> (what, diag)) (Driver.checks d) in
  ( to_values
      {
        hardware;
        onetime_paths = accuracy_vs_perfect c table;
        inline_acc;
        inline_sites = float_of_int (Driver.inlined_sites inline_driver);
        unroll_acc;
        unroll_loops = float_of_int (Driver.unrolled_loops unroll_driver);
      },
    checks "tab-hardware" hw_driver
    @ checks "tab-onetime-paths" onetime_driver
    @ checks "tab-inline" inline_driver
    @ checks "tab-unroll" unroll_driver )

(* One run-cache entry per benchmark holds every comparator value, so
   a warm sweep runs none of their replays.  The price: whichever
   comparator figure is built first computes the values of all four. *)
let comparators c =
  of_values
    (Exp_cache.values c (Exp_cache.config c) ~tag:comparators_tag
       ~arity:(List.length hw_sizes + 5)
       (compute_comparators c))

let comparators_slot c =
  Exp_cache.values_slot c (Exp_cache.config c) ~tag:comparators_tag

let tab_inline caches =
  let rows =
    List.map
      (fun c ->
        let base = Exp_cache.base c in
        (* clean run measuring inlined execution, no profiling *)
        let inline_run =
          Exp_cache.run c
            { (cfg_with c Exp_harness.Base) with Exp_harness.inline = true }
        in
        let cmp = comparators c in
        ( bench_name c,
          [
            Exp_report.overhead ~base:base.Exp_harness.meas.iter2
              inline_run.Exp_harness.meas.iter2;
            Exp_report.overhead ~base:base.Exp_harness.meas.iter1
              inline_run.Exp_harness.meas.iter1;
            cmp.inline_acc;
            cmp.inline_sites;
          ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-inline";
    title = "Inlining extension (§4.3): profiling across inlined code";
    unit_ = "% exec delta / % iter1 delta / % PEP accuracy / call sites";
    header = [ "exec"; "iter1"; "acc PEP"; "sites" ];
    rows;
    summary =
      [
        ("exec delta mean", Exp_report.mean (nth_col 0));
        ("iter1 delta mean", Exp_report.mean (nth_col 1));
        ("accuracy mean", Exp_report.mean (nth_col 2));
      ];
    paper =
      "inlined branches share the callee's bytecode counters; inlined \
       uninterruptible loops lose their header sample points";
  }

let tab_edgetruth caches =
  let rows =
    List.map
      (fun c ->
        let pep_run = Exp_cache.pep c ~samples:64 ~stride:17 in
        let pep = Option.get pep_run.Exp_harness.pep in
        let vs_paths =
          100.
          *. Accuracy.relative_overlap
               ~actual:(Exp_cache.perfect_edges_of_paths c)
               ~estimated:pep.Pep.edges
        in
        let edge_run =
          Exp_cache.run c (cfg_with c Exp_harness.Perfect_edge)
        in
        let etable = (Option.get edge_run.Exp_harness.pedges).Profiler.etable in
        let vs_edges =
          100. *. Accuracy.relative_overlap ~actual:etable ~estimated:pep.Pep.edges
        in
        (bench_name c, [ vs_paths; vs_edges ]))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-edgetruth";
    title =
      "Edge-accuracy ground truth (§6.4): path-derived vs direct edge \
       instrumentation";
    unit_ = "% relative overlap, PEP(64,17)";
    header = [ "vs path-derived"; "vs instr-edge" ];
    rows;
    summary =
      [
        ("vs path-derived mean", Exp_report.mean (nth_col 0));
        ("vs instr-edge mean", Exp_report.mean (nth_col 1));
      ];
    paper =
      "comparing against instrumentation-based edge profiling costs ~2% \
       (96% -> 94%): code without yieldpoints is invisible to PEP";
  }

let tab_showdown caches =
  let rows =
    List.map
      (fun c ->
        let perfect = Option.get (Exp_cache.perfect_path c).Exp_harness.ppaths in
        let estimated =
          Path_estimate.table ~k:512 ~plans:perfect.Profiler.plans
            (Exp_cache.perfect_edges_of_paths c)
        in
        let from_edges = accuracy_vs_perfect c estimated in
        let pep_acc = path_accuracy c (Exp_cache.pep c ~samples:64 ~stride:17) in
        (bench_name c, [ from_edges; pep_acc ]))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-showdown";
    title =
      "Edge profiling vs path profiling (ref [7]): hot paths predicted \
       from a perfect edge profile vs sampled by PEP";
    unit_ = "% Wall accuracy vs perfect paths";
    header = [ "from edges"; "PEP(64,17)" ];
    rows;
    summary =
      [
        ("from edges mean", Exp_report.mean (nth_col 0));
        ("PEP(64,17) mean", Exp_report.mean (nth_col 1));
      ];
    paper =
      "edge profiles miss correlated branches; real path profiles are \
       what path-based optimization needs";
  }

let tab_hardware caches =
  let rows =
    List.map (fun c -> (bench_name c, (comparators c).hardware)) caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-hardware";
    title = "Hardware path profiler comparator (§2.4, ref [28])";
    unit_ = "% Wall accuracy vs perfect paths, by hot-path-table size";
    header = List.map (fun s -> Fmt.str "%d slots" s) hw_sizes;
    rows;
    summary =
      List.mapi
        (fun i s -> (Fmt.str "%d slots mean" s, Exp_report.mean (nth_col i)))
        hw_sizes;
    paper = "above 90% accuracy with a sufficiently large hardware table";
  }

let tab_onetime_paths caches =
  let rows =
    List.map
      (fun c ->
        let onetime = (comparators c).onetime_paths in
        let pep_run = Exp_cache.pep c ~samples:64 ~stride:17 in
        (bench_name c, [ onetime; path_accuracy c pep_run ]))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-onetime-paths";
    title =
      "One-time path profiling (§2.1, structural path profiling) vs \
       continuous PEP";
    unit_ = "% Wall accuracy vs perfect paths";
    header = [ "one-time"; "PEP(64,17)" ];
    rows;
    summary =
      [
        ("one-time mean", Exp_report.mean (nth_col 0));
        ("PEP(64,17) mean", Exp_report.mean (nth_col 1));
      ];
    paper =
      "a one-time profile may not capture whole-program behaviour; \
       phased programs punish it";
  }

let tab_unroll caches =
  let rows =
    List.map
      (fun c ->
        let base = Exp_cache.base c in
        let unrolled_run =
          Exp_cache.run c
            { (cfg_with c Exp_harness.Base) with Exp_harness.unroll = true }
        in
        let cmp = comparators c in
        ( bench_name c,
          [
            Exp_report.overhead ~base:base.Exp_harness.meas.iter2
              unrolled_run.Exp_harness.meas.iter2;
            cmp.unroll_acc;
            cmp.unroll_loops;
          ] ))
      caches
  in
  let nth_col i = List.map (fun (_, vs) -> List.nth vs i) rows in
  {
    id = "tab-unroll";
    title = "Loop unrolling extension (§4.3): duplicated branches, longer paths";
    unit_ = "% exec delta / % PEP accuracy / loops unrolled";
    header = [ "exec"; "acc PEP"; "loops" ];
    rows;
    summary =
      [
        ("exec delta mean", Exp_report.mean (nth_col 0));
        ("accuracy mean", Exp_report.mean (nth_col 1));
      ];
    paper =
      "unrolled branch copies share one bytecode counter pair; paths through an unrolled pair are twice as long";
  }

let registry : (string * (Exp_cache.t list -> figure)) list =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("tab-absolute", tab_absolute);
    ("fig10", fig10);
    ("fig11", fun caches -> fig11 caches);
    ("tab-perfect", tab_perfect);
    ("tab-blpp", tab_blpp);
    ("tab-smart", tab_smart);
    ("tab-ag", tab_ag);
    ("tab-header", tab_header);
    ("tab-onetime", tab_onetime);
    ("tab-edgetruth", tab_edgetruth);
    ("tab-inline", tab_inline);
    ("tab-unroll", tab_unroll);
    ("tab-showdown", tab_showdown);
    ("tab-hardware", tab_hardware);
    ("tab-onetime-paths", tab_onetime_paths);
  ]

let ids = List.map fst registry
let by_id id = List.assoc id registry

(* The cacheable runs a figure consults, enumerated so a job pool can
   compute them up front.  A comparator figure lists, besides its own
   columns' runs, the base and perfect-path runs its comparator entry
   is computed from.  Derived entries are not listed: fig11's adaptive
   series and the comparator entry are computed or recalled serially
   when their figure is built.  No figure runs anything else: a warm
   sweep simulates nothing (tab-header's static path counts number
   plans without executing). *)
let prefetch_configs c id =
  let cw p = cfg_with c p in
  let pep (s, t) =
    cw
      (Exp_harness.Pep_profiled
         {
           sampling = Sampling.pep ~samples:s ~stride:t;
           zero = `Hottest;
           numbering = `Smart;
         })
  in
  let never zero numbering =
    cw (Exp_harness.Pep_profiled { sampling = Sampling.never; zero; numbering })
  in
  let instr = never `Hottest `Smart in
  let base = cw Exp_harness.Base in
  let perfect_path = cw Exp_harness.Perfect_path in
  let perfect_edge = cw Exp_harness.Perfect_edge in
  match id with
  | "fig6" -> base :: instr :: List.map pep pep_configs
  | "fig7" -> [ base; pep (64, 17) ]
  | "fig8" | "fig9" -> perfect_path :: List.map pep pep_configs
  | "tab-absolute" ->
      perfect_path :: List.map pep [ (64, 17); (256, 17); (1024, 17) ]
  | "fig10" -> [ base; perfect_path ]
  | "fig11" -> []
  | "tab-perfect" -> [ base; perfect_path; perfect_edge ]
  | "tab-blpp" -> [ base; cw Exp_harness.Classic_blpp; perfect_edge ]
  | "tab-smart" ->
      [ base; instr; never `Coldest `Smart; never `Hottest `Ball_larus ]
  | "tab-ag" ->
      [
        base;
        pep (64, 17);
        cw
          (Exp_harness.Pep_profiled
             {
               sampling = Sampling.arnold_grove ~samples:64 ~stride:17;
               zero = `Hottest;
               numbering = `Smart;
             });
        perfect_path;
      ]
  | "tab-header" -> [ base; instr; cw Exp_harness.Instr_back_edge ]
  | "tab-onetime" -> [ perfect_path ]
  | "tab-edgetruth" -> [ pep (64, 17); perfect_path; perfect_edge ]
  | "tab-inline" ->
      [ base; { base with Exp_harness.inline = true }; perfect_path ]
  | "tab-unroll" ->
      [ base; { base with Exp_harness.unroll = true }; perfect_path ]
  | "tab-showdown" -> [ perfect_path; pep (64, 17) ]
  | "tab-hardware" -> [ base; perfect_path ]
  | "tab-onetime-paths" -> [ base; perfect_path; pep (64, 17) ]
  | _ -> []

(* Second-stage configurations derivable only from first-stage results:
   fig10 replays under Fixed opt-profile tables built from the perfect
   path profile.  Call after the prefetched runs are installed (the
   table is computed serially if they are not). *)
let derived_configs c id =
  match id with
  | "fig10" ->
      let table = Exp_cache.perfect_edges_of_paths c in
      let with_table t =
        {
          (cfg_with c Exp_harness.Base) with
          Exp_harness.opt_profile = Driver.Fixed t;
        }
      in
      [ with_table table; with_table (Edge_profile.flip_table table) ]
  | _ -> []
