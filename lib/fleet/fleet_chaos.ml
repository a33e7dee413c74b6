(* Fleet-level chaos: run the collector under each curated fleet fault
   plan and check the recovery-convergence invariants against a healthy
   run of the same spec.

   The tentpole claim is byte-level: a run that crashed, tore writes,
   straggled or quarantined segments must end (or, for data-losing
   plans, heal on one clean rerun) with exactly the segment files a
   never-faulted run produces.  So the oracle here is a store
   fingerprint — sorted (file name, md5) pairs — not any summary
   statistic. *)

type report = {
  flabel : string;
  converges : bool;
  identical : bool;  (* faulted store == healthy store, byte-for-byte *)
  counts : Fault_injector.counts option;
  lost : int;  (* degraded.log "lost" records after the faulted run *)
  rebuilt : int;  (* degraded.log "rebuilt" records *)
  violations : string list;
}

(* Sorted (basename, md5) of every completed segment: the identity the
   convergence invariants compare.  Quarantined evidence files and the
   degraded sidecar are provenance, not store content. *)
let fingerprint dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      List.sort compare
        (List.filter_map
           (fun n ->
             if Filename.check_suffix n ".seg" then
               Some (n, Digest.to_hex (Digest.file (Filename.concat dir n)))
             else None)
           (Array.to_list names))

let zero_fleet (c : Fault_injector.counts) =
  c.Fault_injector.instance_crash = 0
  && c.Fault_injector.torn_write = 0
  && c.Fault_injector.straggler = 0
  && c.Fault_injector.seg_corrupt = 0
  && c.Fault_injector.restarts = 0
  && c.Fault_injector.lost_instances = 0
  && c.Fault_injector.writes_recovered = 0
  && c.Fault_injector.catchups = 0
  && c.Fault_injector.seg_quarantined = 0

let fleet_fired (c : Fault_injector.counts) =
  c.Fault_injector.instance_crash + c.Fault_injector.torn_write
  + c.Fault_injector.straggler + c.Fault_injector.seg_corrupt
  > 0

let run_one ?jobs ~healthy_fp ~dir spec (c : Exp_chaos.fleet_case) =
  let cdir = Filename.concat dir c.Exp_chaos.flabel in
  let faulted = { spec with Fleet_collector.faults = c.Exp_chaos.fplan } in
  let base =
    {
      flabel = c.Exp_chaos.flabel;
      converges = c.Exp_chaos.converges;
      identical = false;
      counts = None;
      lost = 0;
      rebuilt = 0;
      violations = [];
    }
  in
  match Fleet_collector.run ?jobs ~dir:cdir faulted with
  | exception exn ->
      { base with violations = [ "crashed: " ^ Printexc.to_string exn ] }
  | Error e ->
      { base with violations = [ Fmt.str "run: %a" Dcg.pp_parse_error e ] }
  | Ok r ->
      let violations = ref [] in
      let note fmt = Fmt.kstr (fun s -> violations := !violations @ [ s ]) fmt in
      List.iter
        (fun e -> note "diagnostic: %a" Dcg.pp_parse_error e)
        r.Fleet_collector.diags;
      let fp = fingerprint cdir in
      let identical = fp = healthy_fp in
      let lost, rebuilt =
        List.fold_left
          (fun (l, b) (_, _, reason) ->
            if reason = "lost" then (l + 1, b) else (l, b + 1))
          (0, 0) r.Fleet_collector.degraded
      in
      (match r.Fleet_collector.counts with
      | Some counts -> (
          (match Fault_injector.accounted counts with
          | Ok () -> ()
          | Error m -> note "unaccounted degradation: %s" m);
          let perturbs =
            Fault_plan.perturbs_fleet c.Exp_chaos.fplan
          in
          if perturbs && not (fleet_fired counts) then
            note "plan %s never fired" (Fault_plan.key c.Exp_chaos.fplan);
          if (not perturbs) && not (zero_fleet counts) then
            note "non-perturbing plan recorded fleet faults")
      | None ->
          if not (Fault_plan.is_empty c.Exp_chaos.fplan) then
            note "active plan produced no fault accounting");
      if c.Exp_chaos.converges then begin
        if not identical then
          note "store diverged from the healthy run (%d vs %d segments)"
            (List.length fp) (List.length healthy_fp);
        if lost > 0 then note "converging plan lost %d windows" lost
      end
      else begin
        if identical then note "data-losing plan left the store untouched";
        if lost = 0 then note "data-losing plan recorded no lost windows"
      end;
      (* Recovery convergence, universally: one clean rerun over the
         same store must land exactly the healthy bytes — a no-op for
         stores that already converged, a full re-collection for lost
         windows. *)
      (match
         Fleet_collector.run ?jobs ~dir:cdir
           { spec with Fleet_collector.faults = Fault_plan.empty }
       with
      | exception exn ->
          note "heal rerun crashed: %s" (Printexc.to_string exn)
      | Error e -> note "heal rerun: %a" Dcg.pp_parse_error e
      | Ok r2 ->
          if fingerprint cdir <> healthy_fp then
            note "clean rerun did not converge to the healthy store";
          if identical && r2.Fleet_collector.simulated <> 0 then
            note "converged store still re-simulated %d instances"
              r2.Fleet_collector.simulated);
      {
        base with
        identical;
        counts = r.Fleet_collector.counts;
        lost;
        rebuilt;
        violations = !violations;
      }

let sweep ?jobs ?(cases = Exp_chaos.fleet_curated) ~dir spec =
  let hdir = Filename.concat dir "healthy" in
  match
    Fleet_collector.run ?jobs ~dir:hdir
      { spec with Fleet_collector.faults = Fault_plan.empty }
  with
  | Error e ->
      [
        {
          flabel = "healthy";
          converges = true;
          identical = false;
          counts = None;
          lost = 0;
          rebuilt = 0;
          violations = [ Fmt.str "healthy run: %a" Dcg.pp_parse_error e ];
        };
      ]
  | Ok _ ->
      let healthy_fp = fingerprint hdir in
      List.map (run_one ?jobs ~healthy_fp ~dir spec) cases

let passed reports = List.for_all (fun r -> r.violations = []) reports

let pp_report ppf r =
  let c = Option.value r.counts ~default:Fault_injector.zero_counts in
  Fmt.pf ppf
    "@[<v>%-16s %s %-9s crash/torn/strag/rot=%d/%d/%d/%d \
     restart/lostinst/recov/catch/quar=%d/%d/%d/%d/%d lost=%d rebuilt=%d"
    r.flabel
    (if r.violations = [] then "ok  " else "FAIL")
    (if r.identical then "identical"
     else if r.converges then "DIVERGED"
     else "degraded")
    c.Fault_injector.instance_crash c.Fault_injector.torn_write
    c.Fault_injector.straggler c.Fault_injector.seg_corrupt
    c.Fault_injector.restarts c.Fault_injector.lost_instances
    c.Fault_injector.writes_recovered c.Fault_injector.catchups
    c.Fault_injector.seg_quarantined r.lost r.rebuilt;
  List.iter (fun v -> Fmt.pf ppf "@,    !! %s" v) r.violations;
  Fmt.pf ppf "@]"
