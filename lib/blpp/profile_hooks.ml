type plans = Instrument.t option array

type plan_outcome =
  | Planned of Instrument.t
  | Uninterruptible
  | Too_many_paths of { n_paths : int; limit : int }
  | Truncation_unsupported of string

let plan_outcome ~mode ~number st midx =
  let cm = Machine.cmeth st midx in
  if cm.Machine.meth.Method.uninterruptible then Uninterruptible
  else
    let sampleable b = cm.Machine.yieldpoint.(b) in
    match number midx (Dag.build ~sampleable mode cm.Machine.cfg) with
    | numbering -> Planned (Instrument.of_numbering numbering)
    | exception Numbering.Too_many_paths { n_paths; limit; _ } ->
        Too_many_paths { n_paths; limit }
    | exception Dag.Unsupported msg -> Truncation_unsupported msg

let plan_for ~mode ~number st midx =
  match plan_outcome ~mode ~number st midx with
  | Planned plan -> Some plan
  | Uninterruptible | Too_many_paths _ | Truncation_unsupported _ -> None

let make_plans ~mode ~number st =
  Array.init (Array.length st.Machine.methods) (plan_for ~mode ~number st)

(* Each hook layer keeps its own per-invocation path register, indexed by
   the machine's live call depth.  Layers therefore compose: PEP and a
   perfect profiler can instrument the same run without clobbering each
   other's register (a real system would allocate distinct registers or
   stack slots per instrumentation).  The closures below are what the
   oracle runs; [path] describes the same steps as data over the same
   register, for an engine to lower.  The register starts small and
   grows with the call depth: a frame whose method has a plan grows it
   in [on_entry], which an engine runs before any of the frame's
   steps. *)
let path_hooks ?live ~(plans : plans) ~count_cost ~on_path_end () =
  let regs = ref (Array.make 4 0) in
  let slot (st : Machine.t) =
    let depth = st.depth in
    if depth >= Array.length !regs then begin
      let bigger = Array.make (2 * depth) 0 in
      Array.blit !regs 0 bigger 0 (Array.length !regs);
      regs := bigger
    end;
    depth
  in
  let count_charge (cost : Cost_model.t) =
    match count_cost with
    | `Hash -> cost.Cost_model.count_update
    | `Array -> cost.Cost_model.count_array
    | `None -> 0
  in
  let on_entry st (frame : Interp.frame) =
    match plans.(frame.fmeth) with
    | None -> ()
    | Some _ ->
        !regs.(slot st) <- 0;
        Machine.add_cycles st st.Machine.cost.Cost_model.r_update
  in
  (* a frame compiled before its method was replaced by a smaller body
     can deliver block ids beyond the new plan; no step acts there *)
  let step meth ~src ~idx =
    match plans.(meth) with
    | Some plan when src < Array.length plan.Instrument.edge_steps ->
        plan.Instrument.edge_steps.(src).(idx)
    | Some _ | None -> None
  in
  let block_event meth blk =
    match plans.(meth) with
    | Some plan when blk < Array.length plan.Instrument.path_end ->
        plan.Instrument.path_end.(blk)
    | Some _ | None -> None
  in
  let edge_site meth ~src ~idx = Option.is_some (step meth ~src ~idx) in
  let path_end st frame d ~badd ~breset =
    let cost = st.Machine.cost in
    if badd <> 0 then begin
      !regs.(d) <- !regs.(d) + badd;
      Machine.add_cycles st cost.Cost_model.r_update
    end;
    Machine.add_cycles st (count_charge cost);
    on_path_end st frame ~path_id:!regs.(d);
    if breset >= 0 then begin
      !regs.(d) <- breset;
      Machine.add_cycles st cost.Cost_model.r_update
    end
  in
  let on_edge st (frame : Interp.frame) ~src ~idx ~dst:_ =
    match step frame.fmeth ~src ~idx with
    | None -> ()
    | Some { add; count; reset } ->
        let d = slot st in
        if count then path_end st frame d ~badd:add ~breset:reset
        else begin
          let cost = st.Machine.cost in
          if add <> 0 then begin
            !regs.(d) <- !regs.(d) + add;
            Machine.add_cycles st cost.Cost_model.r_update
          end;
          if reset >= 0 then begin
            !regs.(d) <- reset;
            Machine.add_cycles st cost.Cost_model.r_update
          end
        end
  in
  let on_yieldpoint st (frame : Interp.frame) blk =
    match block_event frame.fmeth blk with
    | None -> ()
    | Some { badd; breset } -> path_end st frame (slot st) ~badd ~breset
  in
  [
    {
      Interp.layer with
      on_entry = Some on_entry;
      on_edge = Some on_edge;
      edge_site = Some edge_site;
      on_yieldpoint = Some on_yieldpoint;
      path =
        Some
          {
            Interp.edge_step = step;
            block_event;
            reg = regs;
            count_charge;
            live;
            on_path_end;
          };
    };
  ]

let branch_table (st : Machine.t) =
  Array.map
    (fun (cm : Machine.cmeth) ->
      Array.init (Cfg.n_blocks cm.cfg) (fun b ->
          match Cfg.terminator cm.cfg b with
          | Cfg.Branch { branch; _ } -> branch
          | Cfg.Return | Cfg.Jump _ -> -1))
    st.methods

let edge_count_hooks st ~(table : Edge_profile.table) =
  let branch_of = branch_table st in
  (* the table describes the bodies that existed at creation: a body
     recompiled later (inlining, unrolling) can deliver block ids beyond
     it, and no counter acts there *)
  let branch meth src =
    let row = branch_of.(meth) in
    if src < Array.length row then row.(src) else -1
  in
  let on_edge st (frame : Interp.frame) ~src ~idx ~dst:_ =
    let br = branch frame.fmeth src in
    if br >= 0 then begin
      Edge_profile.incr table.(frame.fmeth) br ~taken:(idx = 0);
      Machine.add_cycles st st.Machine.cost.Cost_model.edge_count
    end
  in
  [
    {
      Interp.layer with
      on_edge = Some on_edge;
      edge_site = Some (fun meth ~src ~idx:_ -> branch meth src >= 0);
    };
  ]
