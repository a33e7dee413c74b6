type stats = {
  memory_hits : int;
  disk_hits : int;
  executed : int;
  store_errors : int;
  migrated : int;
}

type t = {
  mutable env : Exp_harness.env;
      (* its advice: recalled from the store at open, else deferred to
         [resolve_advice] and replaced by the resolved value *)
  base_config : Exp_harness.config;
  runs : (string, Exp_harness.run) Hashtbl.t;
  series : (string, int list) Hashtbl.t;  (* adaptive totals, by series key *)
  values : (string, float list) Hashtbl.t;  (* derived values, by values key *)
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

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let mincr = function Some c -> Metrics.incr c | None -> ()

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

let diag ?file reason = { Dcg.file; line = 0; text = ""; reason }

(* Read one store slot: [Ok (Some v)] for a valid entry, [Ok None] when
   there is none, [Error] with the reason when there is one that cannot
   be used — damaged, stale or foreign, rejected by [accept], or
   corrupted by the fault plan (quarantined, exactly as a real digest
   mismatch would be).  Reads only immutable cache state, so it is safe
   on worker domains. *)
let recall ~faults ~slot ~load ~accept =
  match slot with
  | None -> Ok None
  | Some (file, key) -> (
      match load ~file ~key with
      | Ok None -> Ok None
      | Ok (Some stored) -> (
          match faults with
          | Some inj when Fault_injector.fire_corrupt inj ~what:"store" ->
              Fault_injector.note_quarantine inj ~what:"store"
                ~reason:"fault plan corrupted this cache entry";
              Error (diag ~file "cache entry quarantined by fault plan; recomputed")
          | Some _ | None -> (
              match accept stored with
              | Ok v -> Ok (Some v)
              | Error reason ->
                  (* shape passed the digest but not the configuration *)
                  Error (diag ~file ("cache entry rejected: " ^ reason))))
      | Error e -> Error e)

(* Run [execute] and overwrite the slot with its value, after [diags]
   (why a stored entry was not used).  [execute] also returns the
   reasons its value must not be persisted (a failed verification):
   each becomes a diagnostic, and the slot is left as it was.  The only
   side effect is an atomic store write. *)
let fresh ~slot ~save ~execute diags =
  let v, refusals = execute () in
  match (slot, refusals) with
  | Some (file, key), [] -> (
      match save ~file ~key v with
      | Ok () -> (v, diags)
      | Error e -> (v, diags @ [ e ]))
  | None, [] -> (v, diags)
  | _, _ :: _ ->
      let file = Option.map fst slot in
      (v, diags @ List.map (fun r -> diag ?file r) refusals)

(* Load-or-execute through one store slot: a valid entry's value and
   [true], else [execute]'s value, written to the slot, with a
   diagnostic saying why any stored entry was not used. *)
let through_store ~faults ~slot ~load ~save ~accept ~execute =
  match recall ~faults ~slot ~load ~accept with
  | Ok (Some v) -> (v, true, [])
  | Ok None ->
      let v, diags = fresh ~slot ~save ~execute [] in
      (v, false, diags)
  | Error e ->
      let v, diags = fresh ~slot ~save ~execute [ e ] in
      (v, false, diags)

(* ------------------------------ advice ----------------------------- *)

let engine_name = function `Oracle -> "oracle" | `Threaded -> "v2-flat"

(* The advice's slot: one file per (benchmark, warmup engine), whose
   identity key adds the warmup's cost model to the cache identity, so
   an entry written under another program or timer is stale.  A cache
   whose plan perturbs execution persists nothing, the advice included. *)
let advice_slot t =
  match t.cache_dir with
  | Some dir
    when not (Fault_plan.perturbs_execution t.base_config.Exp_harness.faults) ->
      let env = t.env and engine = engine_name t.base_config.Exp_harness.engine in
      let file_key =
        Fmt.str "%s|%d|%d|advice+%s" env.Exp_harness.workload.Workload.name
          env.Exp_harness.size env.Exp_harness.seed engine
      in
      Some
        ( Exp_store.filename ~dir file_key,
          Fmt.str "%s|warmup-cost=%s|engine=%s|advice" t.identity
            (digest env.Exp_harness.cost) engine )
  | Some _ | None -> None

let advice_pending t = not (Lazy.is_val t.env.Exp_harness.advice)

type advice_outcome = { a_advice : Advice.t; a_diags : Dcg.parse_error list }

(* The worker half: the warmup on the base configuration's engine,
   tracing to [config]'s sink, written to the advice slot.  Reads only
   immutable cache state (never [t.env]'s advice itself). *)
let compute_advice t (config : Exp_harness.config) =
  let a_advice, a_diags =
    fresh ~slot:(advice_slot t) ~save:Exp_store.save_advice
      ~execute:(fun () ->
        ( Exp_harness.warmup
            ~config:{ t.base_config with Exp_harness.telemetry = config.telemetry }
            t.env,
          [] ))
      []
  in
  { a_advice; a_diags }

(* The main-domain half: the advice becomes the env's, counted once as
   executed. *)
let install_advice t o =
  if advice_pending t then begin
    t.env <- { t.env with Exp_harness.advice = Lazy.from_val o.a_advice };
    account t ~from_disk:false o.a_diags
  end

(* Resolve a pending advice on the calling domain, which must be the
   main one: it writes the accounting, and a deferred advice forced
   from two domains at once raises. *)
let resolve_advice t =
  if advice_pending t then begin
    if not (Domain.is_main_domain ()) then
      invalid_arg
        "Exp_cache: a pending advice must be resolved on the main domain";
    install_advice t (compute_advice t t.base_config)
  end;
  Exp_harness.advice t.env

let create ?(config = Exp_harness.default) ?cache_dir env =
  (* surface an unusable cache directory once, at open; the cache still
     works (every run recomputes) with the failure on record *)
  let open_diags =
    match cache_dir with
    | None -> []
    | Some dir -> (
        match Exp_store.prepare_dir dir with Ok () -> [] | Error e -> [ e ])
  in
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
  let t =
    {
      env;
      base_config = config;
      runs = Hashtbl.create 16;
      series = Hashtbl.create 4;
      values = Hashtbl.create 1;
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
  in
  (* the advice: recalled now when its entry is valid, else deferred
     (a stored entry that cannot be used is reported now, and
     overwritten when the advice is computed) *)
  let defer () =
    t.env <- { env with Exp_harness.advice = lazy (resolve_advice t) }
  in
  let n_methods = Program.n_methods env.Exp_harness.program in
  (match
     recall
       ~faults:(Exp_harness.injector_of config)
       ~slot:(advice_slot t)
       ~load:(Exp_store.load_advice ~n_methods)
       ~accept:Result.ok
   with
  | Ok (Some a) ->
      t.env <- { env with Exp_harness.advice = Lazy.from_val a };
      account t ~from_disk:true []
  | Ok None -> defer ()
  | Error e ->
      defer ();
      t.store_errors <- t.store_errors + 1;
      t.diags <- t.diags @ [ e ]);
  t

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
   key and the identity key (a derived entry's tag: an adaptive series'
   trial count, or the comparators). *)
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

let values_slot t config ~tag = file_and_key ~suffix:tag t config

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

(* The worker half of a run: everything except touching the memo table
   and counters.  Once the advice is resolved it reads only immutable
   cache state (env, identity, cache_dir), so concurrent [compute]s on
   one cache from several domains are safe; a pending advice is
   resolved first, which only the main domain may do. *)
let compute t config =
  ignore (resolve_advice t);
  let faults = Exp_harness.injector_of config in
  let o_run, o_from_disk, o_diags =
    through_store ~faults ~slot:(file_and_key t config) ~load:Exp_store.load
      ~save:(fun ~file ~key r -> Exp_store.save ~file ~key (payload_of_run r))
      ~accept:(Exp_harness.rebuild ?faults t.env config)
      ~execute:(fun () -> (Exp_harness.replay ?faults t.env config, []))
  in
  { o_run; o_from_disk; o_diags }

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

(* A derived entry: a value computed from the benchmark rather than
   read off one replay's run, memoized in [memo] under the
   configuration key plus [tag] and persisted under the identity key
   plus [tag], by the rules runs follow.  Computed serially on the
   calling domain. *)
let derived t memo config ~tag ~load ~save ~accept ~execute =
  let key = Exp_harness.config_key config ^ tag in
  match Hashtbl.find_opt memo key with
  | Some v -> memory_hit t v
  | None ->
      let v, from_disk, diags =
        through_store
          ~faults:(Exp_harness.injector_of config)
          ~slot:(values_slot t config ~tag) ~load ~save ~accept ~execute
      in
      Hashtbl.replace memo key v;
      account t ~from_disk diags;
      v

let count_is ~what n xs =
  if List.length xs = n then Ok xs
  else Error (Fmt.str "%d %s, want %d" (List.length xs) what n)

(* Each trial is a deterministic function of env, config and trial
   index, so a whole series is one derived entry. *)
let adaptive t config ~trials =
  derived t t.series config ~tag:(series_suffix trials)
    ~load:Exp_store.load_series ~save:Exp_store.save_series
    ~accept:(count_is ~what:"totals" trials)
    ~execute:(fun () ->
      ( List.init trials (fun trial ->
            Exp_harness.adaptive_total ~config ~trial t.env),
        [] ))

(* A replay's checks are not persisted with the values it produced, so
   a failed verification is reported now and keeps the values off disk:
   recalled on every later run, they would hide it. *)
let values t config ~tag ~arity compute =
  let bench = t.env.Exp_harness.workload.Workload.name in
  derived t t.values config ~tag ~load:Exp_store.load_values
    ~save:Exp_store.save_values ~accept:(count_is ~what:"values" arity)
    ~execute:(fun () ->
      let vs, checks = compute () in
      ( vs,
        List.filter_map
          (fun (what, (d : Pep_check.diagnostic)) ->
            match d.Pep_check.severity with
            | Pep_check.Error ->
                Some
                  (Fmt.str "%s: %s replay failed verification: %a; values \
                            not persisted"
                     bench what Pep_check.pp_diagnostic d)
            | Pep_check.Warning | Pep_check.Info -> None)
          checks ))

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
