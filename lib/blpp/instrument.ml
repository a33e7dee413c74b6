type edge_step = Interp.edge_step = { add : int; count : bool; reset : int }
type block_event = Interp.block_event = { badd : int; breset : int }

type t = {
  numbering : Numbering.t;
  edge_steps : edge_step option array array;
  path_end : block_event option array;
}

let succ_index : Cfg.edge_attr -> int = function
  | Cfg.Seq | Cfg.Taken _ -> 0
  | Cfg.Not_taken _ -> 1

let of_numbering numbering =
  let dag = Numbering.dag numbering in
  let cfg = Dag.cfg dag in
  let n = Cfg.n_blocks cfg in
  let edge_steps = Array.init n (fun _ -> Array.make 2 None) in
  let path_end = Array.make n None in
  (* real edges: r += value when nonzero *)
  Dag.iter_edges
    (fun (e : Dag.edge) ->
      match e.origin with
      | Dag.Real ce ->
          let v = Numbering.value numbering e in
          if v <> 0 then
            edge_steps.(ce.src).(succ_index ce.attr) <-
              Some { add = v; count = false; reset = -1 }
      | Dag.From_entry _ | Dag.To_exit _ -> ())
    dag;
  (* truncations *)
  List.iter
    (fun trunc ->
      let to_exit, from_entry = Dag.dummy_edges dag trunc in
      let badd = Numbering.value numbering to_exit in
      let breset = Numbering.value numbering from_entry in
      match trunc with
      | Dag.Split_header h -> path_end.(h) <- Some { badd; breset }
      | Dag.Cut_edge ce ->
          let count =
            match Dag.mode dag with
            | Dag.Back_edge -> true
            | Dag.Loop_header -> false
          in
          edge_steps.(ce.src).(succ_index ce.attr) <-
            Some { add = badd; count; reset = breset })
    (Dag.truncations dag);
  (* every path ends at the exit block *)
  path_end.(Cfg.exit_ cfg) <- Some { badd = 0; breset = -1 };
  { numbering; edge_steps; path_end }

let static_ops t =
  let ops = ref 1 (* r = 0 at method entry *) in
  Array.iter
    (fun steps ->
      Array.iter
        (function
          | None -> ()
          | Some { add; count; reset } ->
              if add <> 0 then incr ops;
              if count then incr ops;
              if reset >= 0 then incr ops)
        steps)
    t.edge_steps;
  Array.iter
    (function
      | None -> ()
      | Some { badd; breset } ->
          incr ops;
          (* the path-end point itself *)
          if badd <> 0 then incr ops;
          if breset >= 0 then incr ops)
    t.path_end;
  !ops

let ops_on_edge t ~src ~idx =
  match t.edge_steps.(src).(idx) with
  | None -> 0
  | Some { add; count; reset } ->
      (if add <> 0 then 1 else 0)
      + (if count then 1 else 0)
      + if reset >= 0 then 1 else 0
