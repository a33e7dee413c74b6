type entry = {
  path_id : int;
  mutable count : int;
  mutable edges : Cfg.edge list option;
  mutable n_branches : int;
}

(* [capacity], when set, bounds the number of distinct paths the table
   stores (the fixed-size table of paper §3.2): an update that would
   create an entry past the bound is dropped and counted in [overflow].
   Updates to already-present paths always land. *)
type t = {
  tbl : (int, entry) Hashtbl.t;
  mutable capacity : int option;
  mutable overflow : int;
}

let create () : t = { tbl = Hashtbl.create 32; capacity = None; overflow = 0 }

let set_capacity t capacity = t.capacity <- capacity
let capacity t = t.capacity
let overflow t = t.overflow

let entry_opt t path_id =
  match Hashtbl.find_opt t.tbl path_id with
  | Some e -> Some e
  | None -> (
      match t.capacity with
      | Some cap when Hashtbl.length t.tbl >= cap ->
          t.overflow <- t.overflow + 1;
          None
      | Some _ | None ->
          let e = { path_id; count = 0; edges = None; n_branches = -1 } in
          Hashtbl.replace t.tbl path_id e;
          Some e)

let entry t path_id =
  match Hashtbl.find_opt t.tbl path_id with
  | Some e -> e
  | None ->
      let e = { path_id; count = 0; edges = None; n_branches = -1 } in
      Hashtbl.replace t.tbl path_id e;
      e

let add t path_id n =
  match entry_opt t path_id with
  | Some e -> e.count <- e.count + n
  | None -> ()

let incr t path_id = add t path_id 1
let find t path_id = Hashtbl.find_opt t.tbl path_id

let entries t =
  List.sort
    (fun a b -> compare a.path_id b.path_id)
    (Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [])

let total t = Hashtbl.fold (fun _ e acc -> acc + e.count) t.tbl 0
let n_distinct t = Hashtbl.length t.tbl
let is_empty t = Hashtbl.length t.tbl = 0

let clear t =
  Hashtbl.reset t.tbl;
  t.overflow <- 0

let iter f t = Hashtbl.iter (fun _ e -> f e) t.tbl

type table = t array

let create_table ~n_methods = Array.init n_methods (fun _ -> create ())
let table_total tbl = Array.fold_left (fun acc t -> acc + total t) 0 tbl
let table_overflow tbl = Array.fold_left (fun acc t -> acc + overflow t) 0 tbl

let rows tbl =
  let out = ref [] in
  Array.iteri
    (fun mi t ->
      List.iter
        (fun e -> if e.count > 0 then out := e.count :: e.path_id :: mi :: !out)
        (entries t))
    tbl;
  Array.of_list (List.rev !out)

let to_lines tbl =
  let r = rows tbl in
  List.init (Array.length r / 3) (fun k ->
      Fmt.str "%d %d %d" r.(3 * k) r.((3 * k) + 1) r.((3 * k) + 2))

let add_row tbl mi pid ~count =
  if mi >= 0 && mi < Array.length tbl && pid >= 0 && count > 0 then begin
    add tbl.(mi) pid count;
    Ok ()
  end
  else Error "expected a method index in range, a path id >= 0 and a count > 0"

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun e -> Fmt.pf ppf "path %d: count=%d branches=%d@," e.path_id e.count e.n_branches)
    (entries t);
  Fmt.pf ppf "@]"
