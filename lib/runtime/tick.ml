let hooks ?on_tick () =
  let tick (st : Machine.t) (frame : Interp.frame) =
    Machine.add_cycles st st.cost.Cost_model.tick_handler;
    st.tick_pending <- true;
    (match on_tick with Some f -> f st frame | None -> ());
    Machine.rearm_timer st
  in
  [ { Interp.layer with on_tick = Some tick } ]

type method_samples = int array

let sampling_hooks st =
  let samples = Array.make (Array.length st.Machine.methods) 0 in
  let on_tick _st (frame : Interp.frame) =
    samples.(frame.fmeth) <- samples.(frame.fmeth) + 1
  in
  (hooks ~on_tick (), samples)
