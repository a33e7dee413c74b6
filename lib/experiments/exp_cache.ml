type stats = {
  memory_hits : int;
  disk_hits : int;
  executed : int;
  store_errors : int;
  migrated : int;
}

type t = {
  env : Exp_harness.env;
  base_config : Exp_harness.config;
  runs : (string, Exp_harness.run) Hashtbl.t;
  series : (string, int list) Hashtbl.t;  (* adaptive totals, by series key *)
  mutable perfect_edge_table : Edge_profile.table option;
  cache_dir : string option;
  identity : string;
      (* workload + size + seed + program and cost-model digests:
         everything a persisted run's validity depends on *)
  mutable memory_hits : int;
  mutable disk_hits : int;
  mutable executed : int;
  mutable store_errors : int;
  mutable diags : Dcg.parse_error list;  (* oldest first *)
  m_hit : Metrics.counter option;
  m_miss : Metrics.counter option;
}

let create ?(config = Exp_harness.default) ?cache_dir env =
  (* surface an unusable cache directory once, at open; the cache still
     works (every run recomputes) with the failure on record *)
  let open_diags =
    match cache_dir with
    | None -> []
    | Some dir -> (
        match Exp_store.prepare_dir dir with Ok () -> [] | Error e -> [ e ])
  in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  (* the format version is not part of the identity: the frame's
     version byte covers it *)
  let identity =
    Fmt.str "workload=%s|size=%d|seed=%d|prog=%s|cost=%s"
      env.Exp_harness.workload.Workload.name env.Exp_harness.size
      env.Exp_harness.seed
      (digest env.Exp_harness.program)
      (digest Cost_model.default)
  in
  let counter name =
    Option.map
      (fun tel -> Metrics.counter (Telemetry.metrics tel) name)
      config.Exp_harness.telemetry
  in
  {
    env;
    base_config = config;
    runs = Hashtbl.create 16;
    series = Hashtbl.create 4;
    perfect_edge_table = None;
    cache_dir;
    identity;
    memory_hits = 0;
    disk_hits = 0;
    executed = 0;
    store_errors = List.length open_diags;
    diags = open_diags;
    m_hit = counter "exp.cache_hit";
    m_miss = counter "exp.cache_miss";
  }

let env t = t.env
let config t = t.base_config
let cache_dir t = t.cache_dir

let stats t =
  {
    memory_hits = t.memory_hits;
    disk_hits = t.disk_hits;
    executed = t.executed;
    store_errors = t.store_errors;
    migrated = 0;
  }

let diagnostics t = t.diags

let print_report caches =
  let tot f = List.fold_left (fun acc c -> acc + f (stats c)) 0 caches in
  let memory = tot (fun s -> s.memory_hits)
  and disk = tot (fun s -> s.disk_hits)
  and executed = tot (fun s -> s.executed) in
  Printf.printf
    "[exp-cache] exp.cache_hit=%d exp.cache_miss=%d memory_hits=%d \
     disk_hits=%d executed=%d store_errors=%d\n%!"
    (memory + disk) executed memory disk executed
    (tot (fun s -> s.store_errors));
  List.iter
    (fun c ->
      List.iter (Fmt.epr "cache: %a@." Dcg.pp_parse_error) (diagnostics c))
    caches

let mincr = function Some c -> Metrics.incr c | None -> ()

(* A [From_pep] optimizing compilation consults the live sampler state
   at each method's compile time, which a rebuild (precompile, no
   execution) cannot reproduce — so those runs are never persisted.
   Neither are runs under an execution-perturbing fault plan: a rebuild
   precompiles in method-index order, re-ordering the fault-decision
   stream relative to the live run's lazy compilation. *)
let persistable (config : Exp_harness.config) =
  (not (Fault_plan.perturbs_execution config.Exp_harness.faults))
  &&
  match config.Exp_harness.opt_profile with
  | Driver.From_pep -> false
  | Driver.From_baseline | Driver.Fixed _ -> true

(* Measurements are bit-identical with and without a telemetry sink (a
   tested invariant), so the persisted identity strips it: traced and
   untraced sweeps share disk entries.  [suffix] extends both the file
   key and the identity key (an adaptive series' trial count). *)
let file_and_key ?(suffix = "") t config =
  match t.cache_dir with
  | Some dir when persistable config ->
      let ckey =
        Exp_harness.config_key { config with Exp_harness.telemetry = None }
        ^ suffix
      in
      let file_key =
        Fmt.str "%s|%d|%d|%s" t.env.Exp_harness.workload.Workload.name
          t.env.Exp_harness.size t.env.Exp_harness.seed ckey
      in
      Some (Exp_store.filename ~dir file_key, t.identity ^ "|cfg=" ^ ckey)
  | Some _ | None -> None

let store_file t config = Option.map fst (file_and_key t config)
let store_slot t config = file_and_key t config
let series_suffix trials = Fmt.str "|adaptive=%d" trials

let adaptive_slot t config ~trials =
  file_and_key ~suffix:(series_suffix trials) t config

let payload_of_run (r : Exp_harness.run) =
  {
    Exp_store.iter1 = r.Exp_harness.meas.iter1;
    iter2 = r.Exp_harness.meas.iter2;
    compile = r.Exp_harness.meas.compile;
    checksum = r.Exp_harness.meas.checksum;
    n_samples =
      (match r.Exp_harness.pep with Some p -> Pep.n_samples p | None -> 0);
    pep_paths =
      (match r.Exp_harness.pep with
      | Some p -> Path_profile.to_lines p.Pep.paths
      | None -> []);
    pep_edges =
      (match r.Exp_harness.pep with
      | Some p -> Edge_profile.to_lines p.Pep.edges
      | None -> []);
    ppaths =
      (match r.Exp_harness.ppaths with
      | Some p -> Path_profile.to_lines p.Profiler.table
      | None -> []);
    pedges =
      (match r.Exp_harness.pedges with
      | Some p -> Edge_profile.to_lines p.Profiler.etable
      | None -> []);
  }

type outcome = {
  o_run : Exp_harness.run;
  o_from_disk : bool;
  o_diags : Dcg.parse_error list;
}

let diag file reason = { Dcg.file = Some file; line = 0; text = ""; reason }

(* Load-or-execute through one store slot: a valid entry is [accept]ed
   (its value and [true]), anything else runs [execute] and overwrites
   the slot, with a diagnostic saying why the entry was not used.
   Reads only immutable cache state, so it is safe on worker domains;
   the only side effect is an atomic store write. *)
let through_store ~faults ~slot ~load ~save ~accept ~execute =
  let fresh diags =
    let v = execute () in
    match slot with
    | None -> (v, false, diags)
    | Some (file, key) -> (
        match save ~file ~key v with
        | Ok () -> (v, false, diags)
        | Error e -> (v, false, diags @ [ e ]))
  in
  match slot with
  | None -> fresh []
  | Some (file, key) -> (
      match load ~file ~key with
      | Ok None -> fresh []
      | Ok (Some stored) -> (
          match faults with
          | Some inj when Fault_injector.fire_corrupt inj ~what:"store" ->
              (* the plan says this load observed a corrupted entry:
                 quarantine it and recompute, exactly as a real digest
                 mismatch would *)
              Fault_injector.note_quarantine inj ~what:"store"
                ~reason:"fault plan corrupted this cache entry";
              fresh
                [
                  diag file "cache entry quarantined by fault plan; recomputed";
                ]
          | Some _ | None -> (
              match accept stored with
              | Ok v -> (v, true, [])
              | Error reason ->
                  (* shape passed the digest but not the configuration:
                     recompute and overwrite, reporting why *)
                  fresh [ diag file ("cache entry rejected: " ^ reason) ]))
      | Error e -> fresh [ e ])

(* The worker half of a run: everything except touching the memo table
   and counters.  Reads only immutable cache state (env, identity,
   cache_dir), so concurrent [compute]s on one cache from several
   domains are safe. *)
let compute t config =
  let faults = Exp_harness.injector_of config in
  let o_run, o_from_disk, o_diags =
    through_store ~faults ~slot:(file_and_key t config) ~load:Exp_store.load
      ~save:(fun ~file ~key r -> Exp_store.save ~file ~key (payload_of_run r))
      ~accept:(Exp_harness.rebuild ?faults t.env config)
      ~execute:(fun () -> Exp_harness.replay ?faults t.env config)
  in
  { o_run; o_from_disk; o_diags }

let account t ~from_disk diags =
  if from_disk then begin
    t.disk_hits <- t.disk_hits + 1;
    mincr t.m_hit
  end
  else begin
    t.executed <- t.executed + 1;
    mincr t.m_miss
  end;
  t.store_errors <- t.store_errors + List.length diags;
  t.diags <- t.diags @ diags

(* The main-domain half: memoize and account.  Callers that shard
   [compute]s across domains must install results in a deterministic
   order (the pool installs in sorted-key order). *)
let install t config o =
  Hashtbl.replace t.runs (Exp_harness.config_key config) o.o_run;
  account t ~from_disk:o.o_from_disk o.o_diags;
  o.o_run

let memory_hit t v =
  t.memory_hits <- t.memory_hits + 1;
  mincr t.m_hit;
  v

let find_run t config =
  Hashtbl.find_opt t.runs (Exp_harness.config_key config)

(* Memoize by the configuration itself: Exp_harness.config_key covers
   every field (fixed opt-profile tables by digest), so two different
   configurations can never alias to the same cached run. *)
let run t config =
  match find_run t config with
  | Some r -> memory_hit t r
  | None -> install t config (compute t config)

(* Each trial is a deterministic function of env, config and trial
   index, so a whole series is memoized and persisted as one entry. *)
let adaptive t config ~trials =
  let key = Exp_harness.config_key config ^ series_suffix trials in
  match Hashtbl.find_opt t.series key with
  | Some totals -> memory_hit t totals
  | None ->
      let totals, from_disk, diags =
        through_store
          ~faults:(Exp_harness.injector_of config)
          ~slot:(adaptive_slot t config ~trials)
          ~load:Exp_store.load_series ~save:Exp_store.save_series
          ~accept:(fun totals ->
            if List.length totals = trials then Ok totals
            else
              Error
                (Fmt.str "%d totals for %d trials" (List.length totals) trials))
          ~execute:(fun () ->
            List.init trials (fun trial ->
                Exp_harness.adaptive_total ~config ~trial t.env))
      in
      Hashtbl.replace t.series key totals;
      account t ~from_disk diags;
      totals

let with_profiling t profiling = { t.base_config with Exp_harness.profiling }
let base t = run t (with_profiling t Exp_harness.Base)

let pep t ~samples ~stride =
  run t
    (with_profiling t
       (Exp_harness.Pep_profiled
          {
            sampling = Sampling.pep ~samples ~stride;
            zero = `Hottest;
            numbering = `Smart;
          }))

let instr_only t =
  run t
    (with_profiling t
       (Exp_harness.Pep_profiled
          { sampling = Sampling.never; zero = `Hottest; numbering = `Smart }))

let perfect_path t = run t (with_profiling t Exp_harness.Perfect_path)

let perfect_edges_of_paths t =
  match t.perfect_edge_table with
  | Some table -> table
  | None ->
      let p = Option.get (perfect_path t).Exp_harness.ppaths in
      let table =
        Profiler.edges_of_paths
          ~n_methods:(Program.n_methods t.env.program)
          p.Profiler.plans p.Profiler.table
      in
      t.perfect_edge_table <- Some table;
      table

let all_runs t =
  List.sort compare (Hashtbl.fold (fun key r acc -> (key, r) :: acc) t.runs [])
