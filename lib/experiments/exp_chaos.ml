type case = { label : string; plan : Fault_plan.t; max_loss : float }

let case label spec max_loss =
  { label; plan = Fault_plan.parse_exn spec; max_loss }

(* Per-plan loss bounds document the expected blast radius:
   [compile-fail=1] pins every method at baseline, so PEP (installed at
   opt-compile time) never collects anything and the loss is total by
   design; [noop] and [corrupt]-only plans must lose nothing at all. *)
let curated =
  [
    case "noop" "noop" 0.0;
    case "tables-tight" "seed=7,path-cap=2,edge-cap=2" 1.0;
    case "tables-roomy" "seed=7,path-cap=64,edge-cap=64" 0.75;
    case "opt-flaky" "seed=3,compile-fail=0.3,compile-retries=4,compile-backoff=20000" 1.0;
    case "opt-dead" "seed=1,compile-fail=1" 1.0;
    case "sampler-flaky" "seed=5,sample-overrun=0.5" 1.0;
    case "rotten-inputs" "seed=9,corrupt=1" 0.0;
    case "kitchen-sink"
      "seed=13,path-cap=8,edge-cap=8,compile-fail=0.2,sample-overrun=0.2,corrupt=0.5"
      1.0;
  ]

(* Fleet-level plans live here beside the execution plans so one place
   documents the whole curated chaos surface, but the sweep that runs
   them is Fleet_chaos (the collector sits above this library). *)
type fleet_case = {
  flabel : string;
  fplan : Fault_plan.t;
  converges : bool;
      (* must the faulted store heal to the healthy store's bytes? *)
}

let fleet_case flabel spec converges =
  { flabel; fplan = Fault_plan.parse_exn spec; converges }

(* [doomed] is the one plan allowed to lose data: crash at every window
   with zero restarts loses every instance, so its windows land in the
   degraded log instead of the store.  Everything else must converge —
   crashes replay, torn writes heal on reopen, flips are quarantined
   and re-collected, stragglers only delay. *)
let fleet_curated =
  [
    fleet_case "noop" "noop" true;
    fleet_case "crashy" "seed=11,crash=0.3,crash-restarts=10" true;
    fleet_case "torn-writes" "seed=23,torn-write=0.5,seg-retries=3" true;
    fleet_case "stragglers" "seed=31,straggler=0.6,straggler-timeout=3" true;
    fleet_case "rotten-segments" "seed=47,seg-corrupt=0.4,seg-retries=3" true;
    fleet_case "doomed" "seed=3,crash=1,crash-restarts=0" false;
    fleet_case "fleet-sink"
      "seed=13,crash=0.2,crash-restarts=10,torn-write=0.3,straggler=0.3,\
       straggler-timeout=2,seg-corrupt=0.2,seg-retries=4"
      true;
  ]

type report = {
  workload : string;
  label : string;
  engine : Driver.engine;
  meas : Exp_harness.measurement;
  counts : Fault_injector.counts;
  loss : float;
  max_loss : float;
  violations : string list;
}

let zero_meas =
  { Exp_harness.iter1 = 0; iter2 = 0; compile = 0; checksum = 0 }

let config_for engine plan =
  {
    Exp_harness.default with
    Exp_harness.profiling = Exp_harness.pep_default;
    engine;
    faults = plan;
  }

let engine_name = function `Oracle -> "oracle" | `Threaded -> "threaded"

let loss_vs (healthy : Exp_harness.run) (faulted : Exp_harness.run) =
  match (healthy.Exp_harness.pep, faulted.Exp_harness.pep) with
  | Some h, Some f ->
      1.
      -. Accuracy.absolute_overlap ~actual:h.Pep.edges ~estimated:f.Pep.edges
  | _ -> 0.

let run_case ~engine ~healthy env (c : case) =
  let workload = env.Exp_harness.workload.Workload.name in
  let base =
    {
      workload;
      label = c.label;
      engine;
      meas = zero_meas;
      counts = Fault_injector.zero_counts;
      loss = 0.;
      max_loss = c.max_loss;
      violations = [];
    }
  in
  match Exp_harness.replay env (config_for engine c.plan) with
  | exception exn ->
      (* the one thing a degradation policy must never do *)
      { base with violations = [ "crashed: " ^ Printexc.to_string exn ] }
  | r ->
      let violations = ref [] in
      let note fmt = Fmt.kstr (fun s -> violations := !violations @ [ s ]) fmt in
      let counts =
        match r.Exp_harness.faults with
        | Some inj -> Fault_injector.counts inj
        | None -> Fault_injector.zero_counts
      in
      let hm = healthy.Exp_harness.meas and fm = r.Exp_harness.meas in
      if fm.Exp_harness.checksum <> hm.Exp_harness.checksum then
        note "checksum changed under faults: %d -> %d" hm.Exp_harness.checksum
          fm.Exp_harness.checksum;
      (match Fault_injector.accounted counts with
      | Ok () -> ()
      | Error m -> note "unaccounted degradation: %s" m);
      (match r.Exp_harness.pep with
      | Some p ->
          let po = Path_profile.table_overflow p.Pep.paths in
          let eo = Edge_profile.table_overflow p.Pep.edges in
          if po <> counts.Fault_injector.path_overflow then
            note "path-table overflow %d but degrade.path_overflow %d" po
              counts.Fault_injector.path_overflow;
          if eo <> counts.Fault_injector.edge_overflow then
            note "edge-table overflow %d but degrade.edge_overflow %d" eo
              counts.Fault_injector.edge_overflow
      | None -> ());
      if not (Fault_plan.perturbs_execution c.plan) then
        if
          fm.Exp_harness.iter1 <> hm.Exp_harness.iter1
          || fm.Exp_harness.iter2 <> hm.Exp_harness.iter2
          || fm.Exp_harness.compile <> hm.Exp_harness.compile
        then
          note
            "non-perturbing plan drifted: iter1 %d->%d iter2 %d->%d compile \
             %d->%d"
            hm.Exp_harness.iter1 fm.Exp_harness.iter1 hm.Exp_harness.iter2
            fm.Exp_harness.iter2 hm.Exp_harness.compile fm.Exp_harness.compile;
      if Pep_check.has_errors r.Exp_harness.checks then
        note "lint errors: %a" Pep_check.pp_report
          (Pep_check.errors r.Exp_harness.checks);
      let loss = loss_vs healthy r in
      if loss > c.max_loss +. 1e-9 then
        note "accuracy loss %.4f exceeds the plan's bound %.4f" loss c.max_loss;
      { base with meas = fm; counts; loss; violations = !violations }

(* Engines must agree on everything a fault can influence: the decision
   streams are ordinal-indexed, so identical event orders (a tested
   engine invariant) imply identical faults. *)
let cross_check (ro : report) (rt : report) =
  let v = ref rt.violations in
  let note fmt = Fmt.kstr (fun s -> v := !v @ [ s ]) fmt in
  if ro.violations = [] && rt.violations = [] then begin
    if ro.meas <> rt.meas then
      note "engines diverged under faults: oracle (%d,%d,%d) threaded (%d,%d,%d)"
        ro.meas.Exp_harness.iter1 ro.meas.Exp_harness.iter2
        ro.meas.Exp_harness.compile rt.meas.Exp_harness.iter1
        rt.meas.Exp_harness.iter2 rt.meas.Exp_harness.compile;
    if ro.counts <> rt.counts then
      note "engines disagree on fault accounting (%s)" rt.label
  end;
  { rt with violations = !v }

let sweep ?jobs ?(cases = curated) envs =
  (* every case of an env shares its advice: resolved here, on the
     main domain, never forced by two workers at once *)
  List.iter (fun env -> ignore (Exp_harness.advice env)) envs;
  List.concat
    (Exp_pool.map ?jobs
       (fun _tel env ->
         let healthy engine =
           Exp_harness.replay env (config_for engine Fault_plan.empty)
         in
         let ho = healthy `Oracle and ht = healthy `Threaded in
         List.concat_map
           (fun c ->
             let ro = run_case ~engine:`Oracle ~healthy:ho env c in
             let rt = run_case ~engine:`Threaded ~healthy:ht env c in
             [ ro; cross_check ro rt ])
           cases)
       envs)

let passed reports = List.for_all (fun r -> r.violations = []) reports

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%-10s %-13s %-8s %s loss=%.3f  fail/over/corrupt=%d/%d/%d \
              backoff/gaveup/dropped/overflow/quar=%d/%d/%d/%d/%d"
    r.workload r.label (engine_name r.engine)
    (if r.violations = [] then "ok  " else "FAIL")
    r.loss r.counts.Fault_injector.compile_fail
    r.counts.Fault_injector.sample_overrun r.counts.Fault_injector.store_corrupt
    r.counts.Fault_injector.backoffs r.counts.Fault_injector.gaveups
    r.counts.Fault_injector.samples_dropped
    (r.counts.Fault_injector.path_overflow
   + r.counts.Fault_injector.edge_overflow)
    r.counts.Fault_injector.quarantined;
  List.iter (fun v -> Fmt.pf ppf "@,    !! %s" v) r.violations;
  Fmt.pf ppf "@]"
