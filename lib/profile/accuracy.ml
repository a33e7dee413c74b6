(* A path is identified program-wide by (method index, path id). *)

(* Entries are visited in sorted path-id order so the float sums
   downstream accumulate in a fixed order: a profile table rebuilt from
   its serialized form (different hash insertion order) must yield
   bit-identical accuracy figures. *)
let flows ~n_branches (table : Path_profile.table) =
  let acc = ref [] in
  Array.iteri
    (fun mi prof ->
      List.iter
        (fun (e : Path_profile.entry) ->
          if e.Path_profile.count > 0 then begin
            let nb =
              if e.n_branches >= 0 then e.n_branches
              else n_branches ~meth:mi ~path_id:e.path_id
            in
            let flow = float_of_int e.count *. float_of_int nb in
            acc := ((mi, e.path_id), flow) :: !acc
          end)
        (Path_profile.entries prof))
    table;
  !acc

(* Deterministic hot-first order: flow descending, then path identity. *)
let by_flow_desc ((ka, fa) : (int * int) * float) ((kb, fb) : (int * int) * float) =
  match compare fb fa with 0 -> compare ka kb | c -> c

let wall_path_accuracy ?(threshold = 0.00125) ~n_branches ~actual ~estimated ()
    =
  let actual_flows = flows ~n_branches actual in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. actual_flows in
  let hot_actual =
    List.filter (fun (_, f) -> f > threshold *. total) actual_flows
  in
  if hot_actual = [] || total <= 0. then 1.0
  else begin
    let est_sorted = List.sort by_flow_desc (flows ~n_branches estimated) in
    let n_hot = List.length hot_actual in
    let est_hot = List.filteri (fun i _ -> i < n_hot) est_sorted in
    let est_set = Hashtbl.create (2 * n_hot) in
    List.iter (fun (k, _) -> Hashtbl.replace est_set k ()) est_hot;
    let matched, hot_flow =
      List.fold_left
        (fun (m, h) (k, f) ->
          ((if Hashtbl.mem est_set k then m +. f else m), h +. f))
        (0., 0.) hot_actual
    in
    matched /. hot_flow
  end

let relative_overlap ~(actual : Edge_profile.table)
    ~(estimated : Edge_profile.table) =
  let weighted = ref 0. and weight = ref 0. in
  let rows = Edge_profile.rows actual in
  for k = 0 to (Array.length rows / 4) - 1 do
    let mi = rows.(4 * k) and b = rows.((4 * k) + 1) in
    let taken = rows.((4 * k) + 2) in
    let freq = taken + rows.((4 * k) + 3) in
    if freq > 0 then begin
      let bias_a = float_of_int taken /. float_of_int freq in
      let bias_e =
        Option.value ~default:0.5 (Edge_profile.bias estimated.(mi) b)
      in
      let acc_b = 1. -. Float.abs (bias_a -. bias_e) in
      weighted := !weighted +. (float_of_int freq *. acc_b);
      weight := !weight +. float_of_int freq
    end
  done;
  if !weight <= 0. then 1.0 else !weighted /. !weight

let normalized_weights (table : Edge_profile.table) =
  let total = float_of_int (Edge_profile.table_total table) in
  let weights = Hashtbl.create 256 in
  if total > 0. then begin
    let rows = Edge_profile.rows table in
    for k = 0 to (Array.length rows / 4) - 1 do
      let mi = rows.(4 * k) and b = rows.((4 * k) + 1) in
      let taken = rows.((4 * k) + 2) and not_taken = rows.((4 * k) + 3) in
      if taken > 0 then
        Hashtbl.replace weights (mi, b, true) (float_of_int taken /. total);
      if not_taken > 0 then
        Hashtbl.replace weights (mi, b, false) (float_of_int not_taken /. total)
    done
  end;
  weights

let absolute_overlap ~(actual : Edge_profile.table)
    ~(estimated : Edge_profile.table) =
  if Edge_profile.table_total actual = 0 then 1.0
  else begin
    let wa = normalized_weights actual and we = normalized_weights estimated in
    Hashtbl.fold
      (fun key w acc ->
        match Hashtbl.find_opt we key with
        | Some w' -> acc +. Float.min w w'
        | None -> acc)
      wa 0.
  end
