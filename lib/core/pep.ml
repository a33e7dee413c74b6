type t = {
  hooks : Interp.hooks;
  paths : Path_profile.table;
  edges : Edge_profile.table;
  plans : Profile_hooks.plans;
  sampler : Sampling.t;
}

let smart_number_profile ?(zero = `Hottest) (profile : Edge_profile.t) dag =
  let freq (e : Dag.edge) =
    match e.origin with
    | Dag.Real { attr = Cfg.Taken br; _ } -> (
        match Edge_profile.counter profile br with
        | Some c -> c.Edge_profile.taken
        | None -> 0)
    | Dag.Real { attr = Cfg.Not_taken br; _ } -> (
        match Edge_profile.counter profile br with
        | Some c -> c.Edge_profile.not_taken
        | None -> 0)
    | Dag.Real { attr = Cfg.Seq; _ } | Dag.From_entry _ | Dag.To_exit _ -> 0
  in
  Numbering.smart ~zero ~freq dag

let smart_number ?zero (profile : Edge_profile.table) midx dag =
  smart_number_profile ?zero profile.(midx) dag

let branch_count edges =
  List.length
    (List.filter
       (fun (ce : Cfg.edge) ->
         match ce.attr with
         | Cfg.Taken _ | Cfg.Not_taken _ -> true
         | Cfg.Seq -> false)
       edges)

(* PEP-level telemetry.  Counters and instants are recorded host-side
   only; everything simulated-cycle-visible in the hooks below is
   unconditional and identical whether or not a sink is attached. *)
type tstats = {
  taken : Metrics.counter;
  dropped : Metrics.counter;
  skipped : Metrics.counter;
  promotions : Metrics.counter;
  overflowed : Metrics.counter;
  branches : Metrics.histogram;
  tel : Telemetry.t;
}

let create ?telemetry ?faults ?(eager = true)
    ?(number = fun _ dag -> Numbering.ball_larus dag) ~sampling st =
  let stats =
    match telemetry with
    | None -> None
    | Some tel ->
        let m = Telemetry.metrics tel in
        Some
          {
            taken = Metrics.counter m "pep.samples.taken";
            dropped = Metrics.counter m "pep.samples.dropped";
            skipped = Metrics.counter m "pep.samples.skipped";
            promotions = Metrics.counter m "pep.path.promotions";
            overflowed = Metrics.counter m "pep.table_overflow";
            branches = Metrics.histogram m "pep.path.branches";
            tel;
          }
  in
  let sample_instant (st : Machine.t) name meth path_id =
    match stats with
    | None -> ()
    | Some s ->
        Telemetry.instant s.tel ~ts:st.Machine.cycles ~cat:"sample" ~name
          ~args:
            [
              ("method", st.Machine.methods.(meth).Machine.meth.Method.name);
              ("path", string_of_int path_id);
            ]
          ()
  in
  let n_methods = Array.length st.Machine.methods in
  let plans =
    if eager then Profile_hooks.make_plans ~mode:Dag.Loop_header ~number st
    else Array.make n_methods None
  in
  let paths = Path_profile.create_table ~n_methods in
  let edges = Edge_profile.create_table ~n_methods in
  (match faults with
  | None -> ()
  | Some inj ->
      let plan = Fault_injector.plan inj in
      Array.iter
        (fun t -> Path_profile.set_capacity t plan.Fault_plan.path_capacity)
        paths;
      Array.iter
        (fun t -> Edge_profile.set_capacity t plan.Fault_plan.edge_capacity)
        edges);
  let meth_name (st : Machine.t) meth =
    st.Machine.methods.(meth).Machine.meth.Method.name
  in
  let note_overflow (st : Machine.t) kind meth =
    (match stats with Some s -> Metrics.incr s.overflowed | None -> ());
    match faults with
    | None -> ()
    | Some inj ->
        Fault_injector.note_table_overflow inj ~ts:st.Machine.cycles ~kind
          ~meth:(meth_name st meth)
  in
  let sampler = Sampling.create sampling in
  let update_edges (st : Machine.t) meth path_edges =
    let before = Edge_profile.overflow edges.(meth) in
    List.iter
      (fun (ce : Cfg.edge) ->
        match ce.attr with
        | Cfg.Taken br -> Edge_profile.incr edges.(meth) br ~taken:true
        | Cfg.Not_taken br -> Edge_profile.incr edges.(meth) br ~taken:false
        | Cfg.Seq -> ())
      path_edges;
    for _ = before + 1 to Edge_profile.overflow edges.(meth) do
      note_overflow st `Edge meth
    done
  in
  let take_sample (st : Machine.t) meth path_id =
    Machine.add_cycles st st.cost.Cost_model.sample_handler;
    let plan = Option.get plans.(meth) in
    let overrun =
      match faults with
      | None -> false
      | Some inj ->
          Fault_injector.fire_sample_overrun inj ~ts:st.Machine.cycles
            ~meth:(meth_name st meth)
    in
    if overrun then begin
      (* The handler blew its budget: the sample is discarded, but the
         path register was already reset by the instrumentation steps,
         so profiling continues cleanly at the next path start. *)
      (match stats with Some s -> Metrics.incr s.dropped | None -> ());
      sample_instant st "overrun" meth path_id;
      Option.iter
        (fun inj ->
          Fault_injector.note_sample_dropped inj ~ts:st.Machine.cycles
            ~meth:(meth_name st meth))
        faults
    end
    else if
      (* A frame compiled before this method's plan was (re)installed can
         deliver a stale register value once; drop such samples. *)
      path_id >= 0 && path_id < Numbering.n_paths plan.Instrument.numbering
    then begin
      match Path_profile.entry_opt paths.(meth) path_id with
      | None ->
          (* Fixed-size table is full: drop the sample, keep running. *)
          (match stats with Some s -> Metrics.incr s.dropped | None -> ());
          sample_instant st "overflow" meth path_id;
          note_overflow st `Path meth
      | Some entry -> (
          (match stats with Some s -> Metrics.incr s.taken | None -> ());
          sample_instant st "sample" meth path_id;
          entry.count <- entry.count + 1;
          match entry.edges with
          | Some path_edges -> update_edges st meth path_edges
          | None ->
              (* first sample of this path: reconstruct it from the P-DAG *)
              let path_edges =
                Reconstruct.cfg_edges plan.Instrument.numbering path_id
              in
              Machine.add_cycles st
                (st.cost.Cost_model.reconstruct_per_edge
                * (List.length path_edges + 1));
              entry.edges <- Some path_edges;
              entry.n_branches <- branch_count path_edges;
              (match stats with
              | Some s ->
                  Metrics.incr s.promotions;
                  Metrics.observe s.branches entry.n_branches
              | None -> ());
              update_edges st meth path_edges)
    end
    else begin
      (match stats with Some s -> Metrics.incr s.dropped | None -> ());
      sample_instant st "drop" meth path_id
    end
  in
  (* [live] mirrors [Sampling.active sampler], which changes only in
     here: outside a burst and without a pending tick, [on_path_end]
     does nothing, so an engine may skip the call *)
  let live = ref false in
  let on_path_end (st : Machine.t) (frame : Interp.frame) ~path_id =
    if st.tick_pending then begin
      st.tick_pending <- false;
      Sampling.activate sampler
    end;
    (if Sampling.active sampler then
       match Sampling.step sampler with
       | `Skip ->
           (match stats with Some s -> Metrics.incr s.skipped | None -> ());
           Machine.add_cycles st st.cost.Cost_model.stride_step
       | `Take -> take_sample st frame.fmeth path_id);
    live := Sampling.active sampler
  in
  let hooks =
    Profile_hooks.path_hooks ~live ~plans ~count_cost:`None ~on_path_end ()
  in
  { hooks; paths; edges; plans; sampler }

let n_samples t =
  let taken, _, _ = Sampling.stats t.sampler in
  taken

let n_instrumented t =
  ( Array.fold_left
      (fun acc p -> match p with Some _ -> acc + 1 | None -> acc)
      0 t.plans,
    Array.length t.plans )
