(* The [sweep] workload: every figure of the paper's evaluation at a
   reduced scale, the way `bench/main.exe --cache-dir D` runs it, twice.

   - The write phase (cold) starts with no envs and no caches: it builds
     the suite's envs, runs every cacheable configuration, which writes
     the on-disk run cache, then builds and checks all 19 figures.
   - The read phase (warm) does the same with fresh envs and fresh
     in-memory caches against that run cache: every cacheable run is
     recalled from disk, the uncached figure work runs again.

   One OCaml domain throughout ([jobs = 1]). *)

open Pb_util

let scale = 0.05

(* ------------------------------ outputs ---------------------------- *)

(* A figure's identity for the output check: its rows and summary with
   every value as IEEE bits. *)
let figure_digest (f : Exp_figures.figure) =
  let b = Buffer.create 1024 in
  let num v = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float v)) in
  Buffer.add_string b f.Exp_figures.id;
  Buffer.add_char b '\n';
  List.iter
    (fun (name, vs) ->
      Buffer.add_string b name;
      Buffer.add_char b ':';
      List.iter num vs;
      Buffer.add_char b '\n')
    f.Exp_figures.rows;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      num v;
      Buffer.add_char b '\n')
    f.Exp_figures.summary;
  Digest.to_hex (Digest.string (Buffer.contents b))

let bench_name c = (Exp_cache.env c).Exp_harness.workload.Workload.name

(* What [Exp_harness] itself guarantees about a finished phase: runs of
   one benchmark agree on the application checksum, no profile lint
   reports an error, and the run cache raised no diagnostic. *)
let harness_problems caches =
  List.concat_map
    (fun c ->
      let name = bench_name c in
      let runs = Exp_cache.all_runs c in
      let consistent =
        match Exp_harness.check_consistent (List.map snd runs) with
        | () -> []
        | exception Failure m -> [ Fmt.str "%s: inconsistent runs: %s" name m ]
      in
      let lint =
        List.concat_map
          (fun (key, (r : Exp_harness.run)) ->
            List.filter_map
              (fun (d : Pep_check.diagnostic) ->
                if d.Pep_check.severity = Pep_check.Error then
                  Some (Fmt.str "%s %s: %a" name key Pep_check.pp_diagnostic d)
                else None)
              r.Exp_harness.checks)
          runs
      in
      let store =
        List.map
          (fun d -> Fmt.str "%s: run cache: %a" name Dcg.pp_parse_error d)
          (Exp_cache.diagnostics c)
      in
      consistent @ lint @ store)
    caches

(* ------------------------------- phases ---------------------------- *)

(* One cacheable run ensured by the prefetch: its cache, its
   configuration, the host seconds its [Exp_cache.compute] took (its
   [Exp_cache.run] when untraced) and whether it came from disk. *)
type computed = {
  cache : Exp_cache.t;
  config : Exp_harness.config;
  compute_s : float;
  recalled : bool;
}

type phase = {
  time : Pb_clock.result;  (** the phase and its cacheable runs' latencies *)
  figures : (string * string) list;  (** id, digest *)
  caches : Exp_cache.t list;
  computed : computed list;  (** the cacheable runs, in run order *)
  stats : Exp_cache.stats;  (** summed over the suite *)
  problems : string list;
  alloc_mw : float;
  majors : int;
}

(* [Exp_pool.prefetch] at [jobs = 1], one stage: dedupe, drop memoized
   runs, sort by (cache position, config key), then run each through
   the cache — timing every run, and when traced splitting it into
   [Exp_cache.compute] and [Exp_cache.install] with a span around each. *)
let stage tr clock caches select =
  let seen = Hashtbl.create 256 in
  let pending =
    List.concat
      (List.mapi
         (fun i cache ->
           List.concat_map
             (fun id -> List.map (fun config -> (i, cache, config)) (select cache id))
             Exp_figures.ids)
         caches)
    |> List.filter_map (fun (i, cache, config) ->
           let k = (i, Exp_harness.config_key config) in
           if Hashtbl.mem seen k || Option.is_some (Exp_cache.find_run cache config)
           then None
           else begin
             Hashtbl.replace seen k ();
             Some (k, (cache, config))
           end)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  List.map
    (fun (cache, config) ->
      let hits = (Exp_cache.stats cache).Exp_cache.disk_hits in
      let t0 = now () in
      let compute_s =
        if not (Pb_trace.enabled tr) then begin
          ignore (Exp_cache.run cache config);
          now () -. t0
        end
        else begin
          let req = bench_name cache ^ "/" ^ Exp_harness.config_key config in
          let on_disk =
            match Exp_cache.store_file cache config with
            | Some f -> Sys.file_exists f
            | None -> false
          in
          let o =
            Pb_trace.span tr
              ~layer:(if on_disk then "cache.recall" else "cache.replay")
              ~req
              (fun () -> Exp_cache.compute cache config)
          in
          let compute_s = now () -. t0 in
          ignore
            (Pb_trace.span tr ~layer:"cache.install" ~req (fun () ->
                 Exp_cache.install cache config o));
          compute_s
        end
      in
      let recalled = (Exp_cache.stats cache).Exp_cache.disk_hits > hits in
      Pb_clock.record clock (compute_s *. 1e3);
      { cache; config; compute_s; recalled })
    pending

let sum_stats caches =
  List.fold_left
    (fun (a : Exp_cache.stats) c ->
      let s = Exp_cache.stats c in
      {
        Exp_cache.memory_hits = a.memory_hits + s.Exp_cache.memory_hits;
        disk_hits = a.disk_hits + s.Exp_cache.disk_hits;
        executed = a.executed + s.Exp_cache.executed;
        store_errors = a.store_errors + s.Exp_cache.store_errors;
        migrated = a.migrated + s.Exp_cache.migrated;
      })
    { Exp_cache.memory_hits = 0; disk_hits = 0; executed = 0; store_errors = 0; migrated = 0 }
    caches

(* One phase; the clock laps after the warmup, after each prefetch
   stage and after each figure. *)
let run_phase tr ~name ~config ~seed ~dir =
  let a0 = alloc_words () and g0 = major_collections () in
  let caches, computed, figures, problems, time =
    Pb_trace.span tr ~layer:"phase" ~name ~req:name (fun () ->
        let clock = Pb_clock.start tr in
        let envs =
          Pb_trace.span tr ~layer:"harness.warmup" ~req:"suite" (fun () ->
              Exp_pool.suite_envs ~scale ~jobs:1 ~config ~seed ())
        in
        Pb_clock.lap clock;
        let caches =
          Pb_trace.span tr ~layer:"cache.open" ~req:"suite" (fun () ->
              List.map (fun env -> Exp_cache.create ~config ~cache_dir:dir env) envs)
        in
        let computed =
          let first = stage tr clock caches Exp_figures.prefetch_configs in
          Pb_clock.lap clock;
          let second = stage tr clock caches Exp_figures.derived_configs in
          Pb_clock.lap clock;
          first @ second
        in
        (* the pool's own prefetch must now find nothing left to run *)
        let ran = sum_stats caches in
        Exp_pool.prefetch ~jobs:1 caches Exp_figures.ids;
        let prefetch_problems =
          if sum_stats caches = ran then []
          else [ "Exp_pool.prefetch ran configurations the benchmark's prefetch missed" ]
        in
        let built =
          List.map
            (fun id ->
              let f =
                Pb_trace.span tr ~layer:"figures.build" ~name:id ~req:id (fun () ->
                    Exp_figures.by_id id caches)
              in
              Pb_clock.lap clock;
              f)
            Exp_figures.ids
        in
        let problems =
          Pb_trace.span tr ~layer:"harness.check" ~req:name (fun () ->
              prefetch_problems @ harness_problems caches)
        in
        let figures =
          Pb_trace.span tr ~layer:"bench.check" ~req:name (fun () ->
              List.map (fun (f : Exp_figures.figure) -> (f.Exp_figures.id, figure_digest f)) built)
        in
        (caches, computed, figures, problems, Pb_clock.stop clock))
  in
  {
    time;
    figures;
    caches;
    computed;
    stats = sum_stats caches;
    problems;
    alloc_mw = (alloc_words () -. a0) /. 1e6;
    majors = major_collections () - g0;
  }

(* ------------------------------ checks ----------------------------- *)

(* Failed operations of one cycle: figures whose digest differs from
   the reference (the committed one at the default seed, else the first
   cold phase of the run), warm figures that differ from cold, cacheable
   runs the warm phase had to re-execute, and every harness problem. *)
let check_cycle ~expected ~cold ~warm =
  let bad = ref [] in
  let fail fmt = Fmt.kstr (fun m -> bad := m :: !bad) fmt in
  List.iter2
    (fun (id, dc) (id', dw) ->
      if id <> id' then fail "figure order differs: %s vs %s" id id';
      (match List.assoc_opt id expected with
      | Some d when d <> dc -> fail "%s: cold digest %s, expected %s" id dc d
      | Some _ -> ()
      | None -> fail "%s: no reference digest" id);
      if dw <> dc then fail "%s: warm digest %s differs from cold %s" id dw dc)
    cold.figures warm.figures;
  if cold.stats.Exp_cache.disk_hits <> 0 then
    fail "cold phase recalled %d runs from a fresh cache" cold.stats.Exp_cache.disk_hits;
  if warm.stats.Exp_cache.executed <> 0 then
    fail "warm phase re-executed %d cacheable runs" warm.stats.Exp_cache.executed;
  if warm.stats.Exp_cache.disk_hits <> cold.stats.Exp_cache.executed then
    fail "warm phase recalled %d runs, cold phase wrote %d"
      warm.stats.Exp_cache.disk_hits cold.stats.Exp_cache.executed;
  List.iter (fun p -> fail "cold: %s" p) cold.problems;
  List.iter (fun p -> fail "warm: %s" p) warm.problems;
  List.rev !bad

let attempted ~cold ~warm =
  cold.stats.Exp_cache.executed + warm.stats.Exp_cache.disk_hits
  + List.length cold.figures + List.length warm.figures

(* Re-run a seeded sample of the cold phase's cacheable replays under
   the reference interpreter and compare measurements and profiles
   with the threaded runs. *)
let oracle_sample ~seed ~n caches =
  let st = Random.State.make [| seed; 0x0ac1e |] in
  let candidates =
    Array.of_list
      (List.concat_map
         (fun c ->
           List.filter_map
             (fun config ->
               Option.map (fun r -> (c, config, r)) (Exp_cache.find_run c config))
             (List.concat_map (Exp_figures.prefetch_configs c) Exp_figures.ids))
         caches)
  in
  let lines (r : Exp_harness.run) =
    let m = r.Exp_harness.meas in
    [ Fmt.str "%d %d %d %d" m.Exp_harness.iter1 m.Exp_harness.iter2 m.Exp_harness.compile
        m.Exp_harness.checksum ]
    @ (match r.Exp_harness.pep with
      | Some p ->
          string_of_int (Pep.n_samples p)
          :: Path_profile.to_lines p.Pep.paths
          @ Edge_profile.to_lines p.Pep.edges
      | None -> [])
    @ (match r.Exp_harness.ppaths with
      | Some p -> Path_profile.to_lines p.Profiler.table
      | None -> [])
  in
  List.init (min n (Array.length candidates)) (fun _ ->
      let c, config, threaded =
        candidates.(Random.State.int st (Array.length candidates))
      in
      let oracle =
        Exp_harness.replay (Exp_cache.env c)
          { config with Exp_harness.engine = `Oracle; telemetry = None }
      in
      if lines oracle = lines threaded then None
      else
        Some
          (Fmt.str "%s %s: oracle replay differs from threaded" (bench_name c)
             (Exp_harness.config_key config)))
  |> List.filter_map Fun.id

(* ------------------------------- set-up ---------------------------- *)

(* The sweep's inputs: the suite's programs compiled at the benchmark's
   scale.  The cold phase compiles them again, from nothing. *)
let setup () =
  List.iter
    (fun (w : Workload.t) ->
      let size = max 1 (int_of_float (float_of_int w.Workload.default_size *. scale)) in
      ignore (Workload.program ~size w))
    Suite.all

(* ------------------------------- cycles ---------------------------- *)

type cycle = {
  cold : Pb_clock.result;
  warm : Pb_clock.result;  (** with every recall's [Exp_cache.run] *)
  totals : float;  (** s, both phases as measured, probes left out *)
  digests : (string * string) list;  (** cold figures: id, digest *)
  attempted : int;
  failures : string list;
  disk_kb : float;
  layers : (string * float) list;  (** traced cycles: per-layer metrics *)
}

(* Program counters of the metrics-only sink the traced config carries. *)
let counters (config : Exp_harness.config) =
  match config.Exp_harness.telemetry with
  | None -> []
  | Some tel ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ name; v ] -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
          | _ -> None)
        (Metrics.to_lines (Telemetry.metrics tel))

let delta before after =
  List.map
    (fun (name, v) -> (name, v - Option.value ~default:0 (List.assoc_opt name before)))
    after

let modes c =
  let key profiling = Exp_harness.config_key { (Exp_cache.config c) with Exp_harness.profiling } in
  [
    ("base", key Exp_harness.Base);
    ( "instr",
      key
        (Exp_harness.Pep_profiled
           { sampling = Sampling.never; zero = `Hottest; numbering = `Smart }) );
    ("pep", key Exp_harness.pep_default);
    ("perfect", key Exp_harness.Perfect_path);
  ]

(* Exp_store and Pep_check run nested inside Exp_cache.compute; their
   cost is estimated by calling their public functions directly on the
   same inputs, outside the accounted phases: re-load every entry the
   cold phase wrote and re-save it to a scratch directory, and re-lint
   every run.  Returns each entry's sample count for the warm re-lint. *)
let estimate_store_and_lint tr ~scratch computed =
  fresh_dir scratch;
  List.filter_map
    (fun e ->
      (match Exp_cache.find_run e.cache e.config with
      | Some r -> ignore (Pb_trace.span tr ~layer:"lint.run" ~req:"cold" (fun () -> Exp_harness.lint_run r))
      | None -> ());
      match Exp_cache.store_slot e.cache e.config with
      | None -> None
      | Some (file, key) -> (
          match
            Pb_trace.span tr ~layer:"store.load" ~req:key (fun () -> Exp_store.load ~file ~key)
          with
          | Ok (Some p) ->
              let copy = Filename.concat scratch (Filename.basename file) in
              ignore
                (Pb_trace.span tr ~layer:"store.save" ~req:key (fun () ->
                     Exp_store.save ~file:copy ~key p));
              Some (file, p.Exp_store.n_samples)
          | Ok None | Error _ -> None))
    computed

let relint_warm tr ~samples computed =
  List.iter
    (fun e ->
      match
        ( Exp_cache.find_run e.cache e.config,
          Option.bind (Exp_cache.store_file e.cache e.config) (fun f -> List.assoc_opt f samples) )
      with
      | Some r, Some n ->
          ignore
            (Pb_trace.span tr ~layer:"lint.run" ~req:"warm" (fun () ->
                 Exp_harness.lint_run ~expected_samples:n r))
      | _ -> ())
    computed

let layer_metrics tr ~cold ~warm ~counts ~store_dir =
  let self = Pb_trace.self tr and outside = Pb_trace.outside tr in
  let fig11 =
    sum (List.filter_map (fun (s : Pb_trace.span) ->
        if s.Pb_trace.layer = "figures.build" && s.Pb_trace.name = "fig11" then Some (Pb_trace.dur s) else None)
        (Pb_trace.spans tr))
  in
  (* execution by profiling mode, from the cold phase's replay spans *)
  let by_mode = Hashtbl.create 4 in
  let mcycles = ref 0. and replay_s = ref 0. in
  List.iter
    (fun e ->
      if not e.recalled then begin
        (match Exp_cache.find_run e.cache e.config with
        | Some r ->
            let m = r.Exp_harness.meas in
            mcycles := !mcycles +. (float_of_int (m.Exp_harness.iter1 + m.Exp_harness.iter2) /. 1e6);
            replay_s := !replay_s +. e.compute_s
        | None -> ());
        let key = Exp_harness.config_key e.config in
        List.iter
          (fun (mode, k) ->
            if k = key then
              Hashtbl.replace by_mode mode
                (e.compute_s +. Option.value ~default:0. (Hashtbl.find_opt by_mode mode)))
          (modes e.cache)
      end)
    cold.computed;
  let mode m = Option.value ~default:nan (Hashtbl.find_opt by_mode m) in
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name counts)) in
  let count_prefixed ps =
    sum (List.filter_map (fun (n, v) ->
        if List.exists (fun p -> String.starts_with ~prefix:p n) ps then Some (float_of_int v) else None)
        counts)
  in
  let st f = float_of_int (f cold.stats + f warm.stats) in
  let mem = st (fun s -> s.Exp_cache.memory_hits)
  and disk = st (fun s -> s.Exp_cache.disk_hits)
  and exe = st (fun s -> s.Exp_cache.executed) in
  let lint_errors =
    List.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc (_, (r : Exp_harness.run)) ->
            acc
            + List.length
                (List.filter (fun (d : Pep_check.diagnostic) -> d.Pep_check.severity = Pep_check.Error)
                   r.Exp_harness.checks))
          acc (Exp_cache.all_runs c))
      0 (cold.caches @ warm.caches)
  in
  let hits = count "engine.ic.hits" and misses = count "engine.ic.misses" in
  [
    ("harness.warmup_s", self "harness.warmup");
    ("cache.replay_s", self "cache.replay");
    ("cache.replays", exe);
    ("cache.recall_s", self "cache.recall");
    ("cache.disk_hits", disk);
    ("cache.memory_hits", mem);
    ("cache.hit_ratio", (mem +. disk) /. (mem +. disk +. exe));
    ("cache.store_errors", st (fun s -> s.Exp_cache.store_errors));
    ("cache.install_s", self "cache.install" +. self "cache.open");
    ("store.save_s", outside "store.save");
    ("store.load_s", outside "store.load");
    ("store.entries", float_of_int (List.length (files ~suffix:".run" store_dir)));
    ("store.kb", float_of_int (dir_bytes store_dir) /. 1e3);
    ("figures.build_s", self "figures.build");
    ("figures.fig11_s", fig11);
    ("lint.run_s", outside "lint.run");
    ("lint.errors", float_of_int lint_errors);
    ("harness.check_s", self "harness.check");
    ("exec.base_ms", mode "base" *. 1e3);
    ("exec.mcycles_per_s", !mcycles /. !replay_s);
    ("hooks.host_overhead", (mode "instr" /. mode "base") -. 1.);
    ("sampling.host_overhead", (mode "pep" /. mode "instr") -. 1.);
    ("perfect.host_overhead", (mode "perfect" /. mode "base") -. 1.);
    ("sim.mcycles", !mcycles);
    ("vm.ticks", count "vm.ticks");
    ("vm.yieldpoint.polls", count "vm.yieldpoint.polls");
    ("vm.compile.units", count_prefixed [ "vm.compile.baseline"; "vm.compile.opt."; "vm.recompile." ]);
    ("engine.translations", count "engine.translations");
    ("engine.ic.hit_ratio", hits /. (hits +. misses));
    ("engine.fuse.blocks", count "engine.fuse.blocks");
    ("pep.samples.taken", count "pep.samples.taken");
    ("pep.path.promotions", count "pep.path.promotions");
    ("gc.write.alloc_mw", cold.alloc_mw);
    ("gc.write.major_collections", float_of_int cold.majors);
    ("gc.read.alloc_mw", warm.alloc_mw);
    ("gc.read.major_collections", float_of_int warm.majors);
  ]

(* One cold + warm cycle into a fresh run cache at [dir].  [expected]
   maps figure ids to the digests the cold phase must reproduce; with
   [oracle] > 0, that many of the cold phase's replays are re-run under
   the reference interpreter.  Untraced, the cold phase's caches are
   dropped before the warm phase, as a second process would start. *)
let cycle tr ~config ~seed ~dir ~scratch ~expected ~oracle =
  let traced = Pb_trace.enabled tr in
  fresh_dir dir;
  Gc.compact ();
  let c0 = counters config in
  let cold = run_phase tr ~name:"write" ~config ~seed ~dir in
  let samples = if traced then estimate_store_and_lint tr ~scratch cold.computed else [] in
  let oracle_failures = if oracle > 0 then oracle_sample ~seed ~n:oracle cold.caches else [] in
  let cold = if traced then cold else { cold with caches = []; computed = [] } in
  Gc.compact ();
  let warm = run_phase tr ~name:"read" ~config ~seed ~dir in
  if traced then relint_warm tr ~samples warm.computed;
  let counts = delta c0 (counters config) in
  {
    cold = cold.time;
    warm = warm.time;
    totals = cold.time.Pb_clock.raw_s +. warm.time.Pb_clock.raw_s;
    digests = cold.figures;
    attempted = attempted ~cold ~warm + oracle;
    failures =
      check_cycle ~expected:(Option.value ~default:cold.figures expected) ~cold ~warm
      @ oracle_failures;
    disk_kb = float_of_int (dir_bytes dir) /. 1e3;
    layers = (if traced then layer_metrics tr ~cold ~warm ~counts ~store_dir:dir else []);
  }
