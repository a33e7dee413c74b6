(* Domain-based job pool for experiment sweeps.

   Determinism is the whole contract: a sweep sharded over N workers
   must produce bit-identical figures to the serial run.  Three rules
   get us there:

   - every job is independent — a replay touches only its own machine,
     and Exp_cache.compute touches no shared mutable cache state (the
     one shared global, the compiled-form stamp counter, is atomic and
     its values never reach a measurement);
   - results are merged on the main domain in a deterministic order
     (sorted by cache position and configuration key, never by
     completion time);
   - telemetry goes to a private sink per worker, merged into the main
     sink in worker order after the join, with jobs assigned to workers
     round-robin over the sorted order so the assignment is static. *)

let worker_name w = Fmt.str "worker %d" w

let map ?(jobs = 1) ?telemetry f xs =
  let n = List.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map (fun x -> f telemetry x) xs
  else begin
    let xs = Array.of_list xs in
    let tracing =
      match telemetry with
      | Some tel -> Option.is_some (Telemetry.trace tel)
      | None -> false
    in
    let sinks =
      Array.init jobs (fun _ ->
          Option.map (fun _ -> Telemetry.create ~tracing ()) telemetry)
    in
    (* slot i is written by exactly one worker and read after the join *)
    let results = Array.make n None in
    let worker w () =
      (match sinks.(w) with
      | Some sink -> Telemetry.begin_run sink ~name:(worker_name w)
      | None -> ());
      let i = ref w in
      while !i < n do
        results.(!i) <- Some (try Ok (f sinks.(w) xs.(!i)) with e -> Error e);
        i := !i + jobs
      done
    in
    let domains = Array.init jobs (fun w -> Domain.spawn (worker w)) in
    Array.iter Domain.join domains;
    (match telemetry with
    | Some main ->
        Array.iter
          (function
            | Some sink -> Telemetry.merge ~into:main sink
            | None -> ())
          sinks
    | None -> ());
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

(* Swap a configuration's sink for the calling worker's private one.  A
   config without a sink stays without one — and if the pool was given
   no telemetry, carried sinks are stripped rather than shared across
   domains. *)
let reconfig sink config =
  match config.Exp_harness.telemetry with
  | None -> config
  | Some _ -> { config with Exp_harness.telemetry = sink }

type task = { cache : Exp_cache.t; config : Exp_harness.config }

(* Every pending advice among [caches], resolved before any run is
   sharded: the warmups go through the pool like runs (worker halves on
   private sinks, installed on the main domain in cache order), so no
   worker ever forces a deferred advice. *)
let resolve_advice ~jobs ?telemetry caches =
  let pending = List.filter Exp_cache.advice_pending caches in
  if jobs <= 1 || List.length pending <= 1 then
    List.iter (fun c -> ignore (Exp_cache.resolve_advice c)) pending
  else
    List.iter2 Exp_cache.install_advice pending
      (map ~jobs ?telemetry
         (fun sink c -> Exp_cache.compute_advice c (reconfig sink (Exp_cache.config c)))
         pending)

let run_tasks ?(jobs = 1) ?telemetry tasks =
  let distinct =
    List.rev
      (List.fold_left
         (fun acc t -> if List.memq t.cache acc then acc else t.cache :: acc)
         [] tasks)
  in
  resolve_advice ~jobs ?telemetry distinct;
  let ordinal c =
    let rec go i = function
      | [] -> assert false
      | c' :: tl -> if c' == c then i else go (i + 1) tl
    in
    go 0 distinct
  in
  let seen = Hashtbl.create 32 in
  let pending =
    List.sort
      (fun (ka, _) (kb, _) -> compare ka kb)
      (List.filter_map
         (fun t ->
           let k = (ordinal t.cache, Exp_harness.config_key t.config) in
           if Hashtbl.mem seen k || Option.is_some (Exp_cache.find_run t.cache t.config)
           then None
           else begin
             Hashtbl.replace seen k ();
             Some (k, t)
           end)
         tasks)
  in
  let pending = List.map snd pending in
  if jobs <= 1 || List.length pending <= 1 then
    (* straight through the cache: identical to what the figures would
       do on demand, main sink and all *)
    List.iter (fun t -> ignore (Exp_cache.run t.cache t.config)) pending
  else begin
    let outcomes =
      map ~jobs ?telemetry
        (fun sink t -> Exp_cache.compute t.cache (reconfig sink t.config))
        pending
    in
    List.iter2
      (fun t o -> ignore (Exp_cache.install t.cache t.config o))
      pending outcomes
  end

(* No warmup runs here, so there is nothing to shard: [jobs] is
   accepted and ignored. *)
let suite_envs ?(scale = 1.0) ?jobs:_ ?config ~seed () =
  List.map
    (fun (w : Workload.t) ->
      let size = max 1 (int_of_float (float_of_int w.default_size *. scale)) in
      Exp_harness.make_env ~size ?config ~seed w)
    Suite.all

let prefetch ?jobs ?telemetry caches ids =
  let stage select =
    run_tasks ?jobs ?telemetry
      (List.concat_map
         (fun cache ->
           List.concat_map
             (fun id ->
               List.map (fun config -> { cache; config }) (select cache id))
             ids)
         caches)
  in
  stage Exp_figures.prefetch_configs;
  (* fig10's Fixed-table configs derive from stage-1 results, so the
     task list itself can only be built once those are installed *)
  stage Exp_figures.derived_configs

let figures ?(jobs = 1) ?(config = Exp_harness.default) ?cache_dir ~scale ~seed
    ids =
  let caches =
    List.map
      (fun env -> Exp_cache.create ~config ?cache_dir env)
      (suite_envs ~scale ~jobs ~config ~seed ())
  in
  prefetch ~jobs ?telemetry:config.Exp_harness.telemetry caches ids;
  List.iter (fun id -> Exp_figures.print (Exp_figures.by_id id caches)) ids;
  if cache_dir <> None then Exp_cache.print_report caches;
  caches
