(* The continuous-profiling collector.

   Drives N simulated VM instances per cohort through W collection
   windows of one application iteration each, snapshotting the
   per-window delta of every profile table into the segment store.

   Determinism contract (the fleet inherits Exp_pool's): instances
   shard across domains with [Exp_pool.map], which returns results in
   input order; each instance is a pure function of its
   [Fleet.Instance_id] (seeded PRNG, virtual time, replay advice), and
   all store writes happen on the main domain after the join — so a
   run at [--jobs 4] is byte-identical to [--jobs 1], and a rerun with
   the same seeds is byte-identical to the first.

   Two deliberate choices:

   - Replay mode.  Instances compile per advice at first invocation
     and never re-instrument, so the cumulative PEP tables are
     monotone and per-window deltas are exact (an adaptive recompile
     would clear the method's path slot mid-stream).  The advice comes
     from a per-cohort two-iteration adaptive warmup, phase 0.

   - Compressed timer.  One application iteration is a window; at the
     default tick period a small iteration sees too few ticks to
     promote (and hence PEP-instrument) the minority methods drift
     detection depends on.  The collector divides the tick period by
     [tick_shrink] (default 8) for warmup and collection alike —
     virtual time stays exact, there are just more samples per cycle,
     which is precisely what a continuous profiler wants from a short
     window. *)

type spec = {
  workload : Workload.t;
  size : int option;
  seed : int;
  samples : int;
  stride : int;
  cohorts : (string * Fleet.Drift.t) list;
  instances : int;
  windows : int;
  tick_shrink : int;
  keep_raw : bool;
  retain_windows : int option;
  faults : Fault_plan.t;
}

let default_cohorts ~windows =
  [
    ("steady", Fleet.Drift.No_drift);
    ("shift", Fleet.Drift.Phase_shift { at_window = windows / 2; phase = 1 });
  ]

let default_spec ?size ?(seed = 42) ?(samples = 64) ?(stride = 17)
    ?(instances = 8) ?(windows = 4) ?(tick_shrink = 8) ?(keep_raw = false)
    ?retain_windows ?cohorts ?(faults = Fault_plan.empty) workload =
  {
    workload;
    size;
    seed;
    samples;
    stride;
    cohorts =
      (match cohorts with Some c -> c | None -> default_cohorts ~windows);
    instances;
    windows;
    tick_shrink;
    keep_raw;
    retain_windows;
    faults;
  }

type report = {
  cohorts : int;
  instances : int;
  windows : int;
  simulated : int;  (* instances executed this run *)
  skipped : int;  (* instances already covered by stored segments *)
  snapshots : int;  (* raw snapshots written *)
  samples_taken : int;  (* PEP samples across new snapshots *)
  merged : int;  (* merged segments written by compaction *)
  retained_deleted : int;  (* segments dropped by retention *)
  store_bytes : int;
  healed_open : int;  (* torn files removed by the recovery scan *)
  counts : Fault_injector.counts option;  (* fault accounting, if a plan ran *)
  degraded : (string * int * string) list;  (* degraded.log after this run *)
  diags : Dcg.parse_error list;
}

let size_of spec = Option.value ~default:spec.workload.Workload.default_size spec.size

let cost_of spec = Exp_harness.compressed_cost ~tick_shrink:spec.tick_shrink

let sampling_of spec = Sampling.pep ~samples:spec.samples ~stride:spec.stride

(* The fleet's run configuration, identified the same way the run
   cache identifies it. *)
let config_key spec =
  Exp_harness.config_key
    {
      Exp_harness.default with
      Exp_harness.profiling =
        Exp_harness.Pep_profiled
          { sampling = sampling_of spec; zero = `Hottest; numbering = `Smart };
    }

let cohort_of spec (name, drift) =
  {
    Fleet.Cohort.name;
    workload = spec.workload.Workload.name;
    size = size_of spec;
    seed = spec.seed;
    config_key = config_key spec;
    drift;
  }

(* ------------------------ one instance's run ----------------------- *)

(* Cursors over the cumulative tables, so each window snapshots its
   delta: the last cumulative row seen per key, in int-keyed row
   tables.  All three tables are monotone in replay mode; [max 0] is
   belt and braces. *)
type cursors = {
  c_paths : Fleet_rows.t;  (* stride 3: method, path id, count *)
  c_edges : Fleet_rows.t;  (* stride 4: method, branch, taken, not-taken *)
  c_dcg : Fleet_rows.t;  (* stride 3: caller, callee, weight *)
  mutable c_samples : int;
}

(* Each snapshot's rows, flat (stride 3 or 4), in the cumulative rows'
   sorted order *)
let delta3 cur rows =
  let out = ref [] in
  List.iter
    (fun (a, b, c) ->
      let r = Fleet_rows.slot cur a b in
      let prev = Fleet_rows.get cur r 2 in
      Fleet_rows.set cur r 2 c;
      if c - prev > 0 then out := (c - prev) :: b :: a :: !out)
    rows;
  Array.of_list (List.rev !out)

let delta4 cur rows =
  let out = ref [] in
  List.iter
    (fun (a, b, c, d) ->
      let r = Fleet_rows.slot cur a b in
      let pc = Fleet_rows.get cur r 2 and pd = Fleet_rows.get cur r 3 in
      Fleet_rows.set cur r 2 c;
      Fleet_rows.set cur r 3 d;
      let dc = max 0 (c - pc) and dd = max 0 (d - pd) in
      if dc > 0 || dd > 0 then out := dd :: dc :: b :: a :: !out)
    rows;
  Array.of_list (List.rev !out)

let cumulative_edges (pep : Pep.t) =
  let rows = ref [] in
  Array.iteri
    (fun mi prof ->
      List.iter
        (fun (br, (tk, nt)) -> rows := (mi, br, tk, nt) :: !rows)
        (Edge_profile.entries prof))
    pep.Pep.edges;
  List.sort compare !rows

let cumulative_dcg dcg = List.sort compare (Dcg.edges dcg)

(* Run one instance through every window, returning its raw segments
   (worker-domain safe: touches only its own machine, tables and — when
   a fault plan is live — its own injector's keyed streams).

   Crash semantics: [fire_instance_crash] is consulted once per window;
   a hit kills the instance mid-window, losing that window's snapshot.
   A restart replays the pure simulation from scratch — byte-identical
   snapshots — and re-draws from the same persistent keyed stream, so
   it may crash at a different window.  Windows that completed in {e
   any} attempt were already published to the collector (they survive,
   exactly as a crashed production instance's flushed windows would);
   once the restart cap is exhausted the never-completed tail is lost.
   Returns the surviving snapshots in window order plus the first lost
   window index, if any. *)
let run_instance spec ~program ~advice ?faults instance =
  let cohort = instance.Fleet.Instance_id.cohort in
  let ikey = Fleet.Instance_id.key instance in
  let attempt () =
    let st =
      Machine.create ~cost:(cost_of spec)
        ~seed:(Fleet.Instance_id.seed instance)
        program
    in
    let driver =
      Driver.create
        {
          Driver.default_options with
          Driver.mode = Driver.Replay advice;
          pep =
            Some
              { Driver.sampling = sampling_of spec;
                zero = `Hottest;
                numbering = `Smart };
          verify = false;
        }
        st
    in
    let pep = Option.get (Driver.pep driver) in
    let methods =
      Array.map (fun cm -> cm.Machine.meth.Method.name) st.Machine.methods
    in
    let cursors =
      {
        c_paths = Fleet_rows.create ~stride:3;
        c_edges = Fleet_rows.create ~stride:4;
        c_dcg = Fleet_rows.create ~stride:3;
        c_samples = 0;
      }
    in
    let rec windows acc w =
      if w >= spec.windows then `Done (List.rev acc)
      else
        let crashed =
          match faults with
          | Some inj -> Fault_injector.fire_instance_crash inj ~instance:ikey ~window:w
          | None -> false
        in
        if crashed then `Crashed (List.rev acc)
        else begin
          (* the drift plan is applied between windows, like a deploy or
             traffic shift landing in production *)
          let phase = Fleet.Drift.phase cohort.Fleet.Cohort.drift ~window:w in
          if Array.length st.Machine.globals > Phased.phase_global then
            st.Machine.globals.(Phased.phase_global) <- phase;
          let start_cycle = st.Machine.cycles in
          ignore (Driver.run driver);
          let end_cycle = st.Machine.cycles in
          let paths = delta3 cursors.c_paths (Path_profile.rows pep.Pep.paths) in
          let edges = delta4 cursors.c_edges (cumulative_edges pep) in
          let dcg = delta3 cursors.c_dcg (cumulative_dcg (Driver.dcg driver)) in
          let total_samples = Pep.n_samples pep in
          let samples = max 0 (total_samples - cursors.c_samples) in
          cursors.c_samples <- total_samples;
          let s =
            {
              Fleet_store.cohort;
              window = Fleet.Window.raw ~index:w ~start_cycle ~end_cycle;
              origin = instance.Fleet.Instance_id.ordinal;
              instances = 1;
              samples;
              methods;
              rows = Lazy.from_val { Fleet_store.paths; edges; dcg };
            }
          in
          windows (s :: acc) (w + 1)
        end
    in
    windows [] 0
  in
  match faults with
  | None -> (
      match attempt () with
      | `Done snaps -> (snaps, None)
      | `Crashed _ -> assert false)
  | Some inj ->
      let cap = (Fault_injector.plan inj).Fault_plan.crash_restarts in
      (* published.(w) holds window w's snapshot once any attempt
         completes it — identical bytes every attempt, so "published by
         an earlier life of the instance" and "published now" agree *)
      let published = Array.make spec.windows None in
      let publish snaps =
        List.iter
          (fun (s : Fleet_store.segment) ->
            published.(s.Fleet_store.window.Fleet.Window.lo) <- Some s)
          snaps
      in
      let rec go attempt_no =
        match attempt () with
        | `Done snaps -> publish snaps
        | `Crashed snaps ->
            publish snaps;
            if attempt_no < cap then begin
              Fault_injector.note_instance_restart inj ~instance:ikey
                ~attempt:(attempt_no + 1);
              go (attempt_no + 1)
            end
            else Fault_injector.note_instance_lost inj ~instance:ikey
      in
      go 0;
      let snaps =
        List.filter_map Fun.id (Array.to_list published)
      in
      let lost_from =
        let rec first w =
          if w >= spec.windows then None
          else if published.(w) = None then Some w
          else first (w + 1)
        in
        first 0
      in
      (snaps, lost_from)

(* --------------------------- the fleet run ------------------------- *)

(* A cohort is warm when every window 0..W-1 already has a merged
   segment with the full instance count — then this run simulates
   nothing for it (the CI smoke asserts simulated=0 on a re-run). *)
let covered ~existing (spec : spec) cohort =
  let windows =
    List.filter_map
      (fun (s : Fleet_store.segment) ->
        if
          s.Fleet_store.origin < 0
          && Fleet.Cohort.equal s.Fleet_store.cohort cohort
          && s.Fleet_store.instances = spec.instances
          && s.Fleet_store.window.Fleet.Window.lo
             = s.Fleet_store.window.Fleet.Window.hi
        then Some s.Fleet_store.window.Fleet.Window.lo
        else None)
      existing
  in
  List.for_all (fun w -> List.mem w windows)
    (List.init spec.windows (fun w -> w))

let instance_key_of (s : Fleet_store.segment) =
  Fleet.Instance_id.key
    { Fleet.Instance_id.cohort = s.Fleet_store.cohort; ordinal = s.Fleet_store.origin }

let run ?(jobs = 1) ~dir spec =
  match Fleet_store.open_ dir with
  | Error e -> Error e
  | Ok recovery ->
      let existing, diags0 = Fleet_store.load_all ~dir in
      let diags = ref diags0 in
      (* Segments that fail decode without journal evidence are not
         crash debris but silent damage: quarantine them so the store
         is no longer poisoned and coverage gaps trigger re-collection
         below.  The diagnostic still surfaces. *)
      List.iter
        (fun (e : Dcg.parse_error) ->
          match e.Dcg.file with
          | Some f when Filename.check_suffix f ".seg" && Sys.file_exists f -> (
              match Fleet_store.quarantine f with
              | Ok () -> ()
              | Error qe -> diags := !diags @ [ qe ])
          | _ -> ())
        diags0;
      (* the warmup under the compressed timer: adaptive two-iteration
         run in phase 0, advice captured.  Shared across cohorts (steady
         and shift run the same program and seed; the drift only applies
         to collection windows). *)
      let env =
        Exp_harness.make_env ~cost:(cost_of spec) ~size:(size_of spec)
          ~seed:spec.seed spec.workload
      in
      let program = env.Exp_harness.program in
      let cohorts = List.map (cohort_of spec) spec.cohorts in
      let cold =
        List.filter (fun c -> not (covered ~existing spec c)) cohorts
      in
      let skipped =
        (List.length cohorts - List.length cold) * spec.instances
      in
      let plan = spec.faults in
      let active = not (Fault_plan.is_empty plan) in
      (* main-domain injector: write-side fault sites plus the absorbed
         accounting of every worker-side injector *)
      let fleet_inj = if active then Some (Fault_injector.create plan) else None in
      (* one flat instance list across cold cohorts: the pool shards
         round-robin, results come back in input order *)
      let instances =
        List.concat_map
          (fun cohort ->
            List.init spec.instances (fun ordinal ->
                { Fleet.Instance_id.cohort; ordinal }))
          cold
      in
      (* the warmup runs here, on the main domain, before the workers
         share its advice — and only when some cohort is collected, so a
         fully covered rerun runs none *)
      let results =
        match instances with
        | [] -> []
        | _ :: _ ->
            let advice = Exp_harness.advice env in
            Exp_pool.map ~jobs
              (fun _sink inst ->
                if active then begin
                  (* per-instance injector: keyed streams make its
                     decisions independent of which domain runs it *)
                  let inj = Fault_injector.create plan in
                  let snaps, lost =
                    run_instance spec ~program ~advice ~faults:inj inst
                  in
                  (inst, snaps, lost, Some (Fault_injector.counts inj))
                end
                else
                  let snaps, lost = run_instance spec ~program ~advice inst in
                  (inst, snaps, lost, None))
              instances
      in
      (* merge worker accounting on the main domain, in input order *)
      (match fleet_inj with
      | Some inj ->
          List.iter
            (fun (_, _, _, c) ->
              match c with Some c -> Fault_injector.absorb inj c | None -> ())
            results
      | None -> ());
      let note_degraded ~cohort ~window ~reason =
        match Fleet_store.note_degraded ~dir ~cohort ~window ~reason with
        | Ok () -> ()
        | Error e -> diags := !diags @ [ e ]
      in
      (* windows a lost instance never completed: degraded for good *)
      List.iter
        (fun (inst, _, lost, _) ->
          match lost with
          | Some from_w ->
              let name =
                inst.Fleet.Instance_id.cohort.Fleet.Cohort.name
              in
              for w = from_w to spec.windows - 1 do
                note_degraded ~cohort:name ~window:w ~reason:"lost"
              done
          | None -> ())
        results;
      let snapshots = List.concat_map (fun (_, s, _, _) -> s) results in
      (* Stragglers: a window that misses its deadline arrives up to
         straggler-timeout windows late; writes land in arrival order
         (stable, so intra-window order is preserved).  All decisions
         are per-instance keyed — the order is the same for any job
         count. *)
      let arrivals =
        match fleet_inj with
        | None -> List.map (fun s -> (s, 0)) snapshots
        | Some inj ->
            List.map
              (fun (s : Fleet_store.segment) ->
                let w = s.Fleet_store.window.Fleet.Window.lo in
                match
                  Fault_injector.fire_straggler inj
                    ~instance:(instance_key_of s) ~window:w
                with
                | Some delay -> (s, delay)
                | None -> (s, 0))
              snapshots
            |> List.stable_sort
                 (fun ((a : Fleet_store.segment), da) (b, db) ->
                   compare
                     (a.Fleet_store.window.Fleet.Window.lo + da)
                     (b.Fleet_store.window.Fleet.Window.lo + db))
      in
      (* Write pass with bounded re-collection: a torn or corrupt write
         is detected (journal / digest), the debris removed or
         quarantined, and the segment rewritten.  Injection stays live
         for [seg-retries] rounds, then the final round is forced
         clean, so every converging plan terminates at the healthy
         bytes. *)
      let rec write_round ~round pending =
        let damaged = ref [] in
        List.iter
          (fun ((s : Fleet_store.segment), delay) ->
            let file = Fleet_store.filename ~dir s in
            let base = Filename.basename file in
            (if delay > 0 then
               match fleet_inj with
               | Some inj ->
                   Fault_injector.note_window_catchup inj
                     ~instance:(instance_key_of s)
                     ~window:s.Fleet_store.window.Fleet.Window.lo
               | None -> ());
            let inject =
              match fleet_inj with
              | Some inj when round <= (Fault_injector.plan inj).Fault_plan.seg_retries ->
                  (match Fault_injector.fire_torn_write inj ~file:base with
                  | Some draw -> Some (`Torn draw)
                  | None -> (
                      match Fault_injector.fire_segment_corrupt inj ~file:base with
                      | Some draw -> Some (`Flip draw)
                      | None -> None))
              | _ -> None
            in
            (match Fleet_store.save ?inject ~dir s with
            | Ok () -> ()
            | Error e -> diags := !diags @ [ e ]);
            match inject with
            | Some (`Torn _) -> damaged := (s, `Torn) :: !damaged
            | Some (`Flip _) -> damaged := (s, `Flip) :: !damaged
            | None -> ())
          pending;
        match List.rev !damaged with
        | [] -> ()
        | dmg ->
            let inj = Option.get fleet_inj in
            List.iter
              (fun ((s : Fleet_store.segment), kind) ->
                let file = Fleet_store.filename ~dir s in
                let base = Filename.basename file in
                (match kind with
                | `Torn ->
                    (* what the recovery scan would do at next open:
                       intent without commit, partial bytes -> discard *)
                    (try Sys.remove file with Sys_error _ -> ());
                    Fault_injector.note_write_recovered inj ~file:base
                | `Flip -> (
                    Fault_injector.note_segment_quarantined inj ~file:base
                      ~reason:"digest mismatch";
                    match Fleet_store.quarantine file with
                    | Ok () -> ()
                    | Error e -> diags := !diags @ [ e ]));
                note_degraded ~cohort:s.Fleet_store.cohort.Fleet.Cohort.name
                  ~window:s.Fleet_store.window.Fleet.Window.lo
                  ~reason:"rebuilt")
              dmg;
            write_round ~round:(round + 1)
              (List.map (fun (s, _) -> (s, 0)) dmg)
      in
      write_round ~round:0 arrivals;
      let merged, _deleted, cerrs =
        if spec.keep_raw then (0, 0, []) else Fleet_store.compact ~dir
      in
      diags := !diags @ cerrs;
      let retained_deleted =
        match spec.retain_windows with
        | Some max_windows when max_windows > 0 ->
            Fleet_store.retain ~dir ~max_windows
        | Some _ | None -> 0
      in
      Ok
        {
          cohorts = List.length cohorts;
          instances = List.length cohorts * spec.instances;
          windows = spec.windows;
          simulated = List.length instances;
          skipped;
          snapshots = List.length snapshots;
          samples_taken =
            List.fold_left
              (fun acc (s : Fleet_store.segment) ->
                acc + s.Fleet_store.samples)
              0 snapshots;
          merged;
          retained_deleted;
          store_bytes = Fleet_store.store_bytes ~dir;
          healed_open = recovery.Fleet_store.healed;
          counts = Option.map Fault_injector.counts fleet_inj;
          degraded = Fleet_store.load_degraded ~dir;
          diags = !diags;
        }
