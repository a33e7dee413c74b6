type slot = {
  mutable meth : int;  (* -1 = empty *)
  mutable path_id : int;
  mutable count : int;
}

type table = { slots : slot array; mask : int; mutable evictions : int }

type t = {
  n_methods : int;
  tables : table array;
  plans : Profile_hooks.plans;
  hooks : Interp.hooks;
  mutable seen : int;
}

let hash_pair meth path_id = (meth * 0x9E3779B1) lxor (path_id * 0x85EBCA77)

let make_table size =
  assert (size > 0 && size land (size - 1) = 0);
  {
    slots = Array.init size (fun _ -> { meth = -1; path_id = 0; count = 0 });
    mask = size - 1;
    evictions = 0;
  }

let record table meth path_id hash =
  let slot = table.slots.(hash land table.mask) in
  if slot.meth = meth && slot.path_id = path_id then slot.count <- slot.count + 1
  else if slot.meth = -1 then begin
    slot.meth <- meth;
    slot.path_id <- path_id;
    slot.count <- 1
  end
  else begin
    (* frequent-items decay: cold residents give way to hot newcomers *)
    slot.count <- slot.count - 1;
    if slot.count <= 0 then begin
      table.evictions <- table.evictions + 1;
      slot.meth <- meth;
      slot.path_id <- path_id;
      slot.count <- 1
    end
  end

let create ~table_sizes ~number st =
  assert (table_sizes <> []);
  let plans = Profile_hooks.make_plans ~mode:Dag.Loop_header ~number st in
  let tables = Array.of_list (List.map make_table table_sizes) in
  let t_ref = ref None in
  let on_path_end _st (frame : Interp.frame) ~path_id =
    let t = Option.get !t_ref in
    t.seen <- t.seen + 1;
    let meth = frame.Interp.fmeth in
    let hash = hash_pair meth path_id in
    for i = 0 to Array.length t.tables - 1 do
      record t.tables.(i) meth path_id hash
    done
  in
  (* the hardware computes path numbers for free: no count cost *)
  let hooks = Profile_hooks.path_hooks ~plans ~count_cost:`None ~on_path_end () in
  let t =
    { n_methods = Array.length st.Machine.methods; tables; plans; hooks; seen = 0 }
  in
  t_ref := Some t;
  t

let hooks t = t.hooks
let plans t = t.plans

let to_path_profiles t =
  List.map
    (fun table ->
      let out = Path_profile.create_table ~n_methods:t.n_methods in
      Array.iter
        (fun slot ->
          if slot.meth >= 0 then
            Path_profile.add out.(slot.meth) slot.path_id slot.count)
        table.slots;
      out)
    (Array.to_list t.tables)

let stats t =
  List.map (fun table -> (t.seen, table.evictions)) (Array.to_list t.tables)
