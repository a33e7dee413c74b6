type counter = { mutable taken : int; mutable not_taken : int }

(* [capacity], when set, bounds the number of distinct branches counted
   (the fixed-size table of paper §3.2): an update that would create a
   counter past the bound is dropped and counted in [overflow].  Updates
   to already-present branches always land. *)
type t = {
  tbl : (Cfg.branch_id, counter) Hashtbl.t;
  mutable capacity : int option;
  mutable overflow : int;
}

let create () : t = { tbl = Hashtbl.create 16; capacity = None; overflow = 0 }

let set_capacity t capacity = t.capacity <- capacity
let capacity t = t.capacity
let overflow t = t.overflow

let counter_for t branch =
  match Hashtbl.find_opt t.tbl branch with
  | Some c -> Some c
  | None -> (
      match t.capacity with
      | Some cap when Hashtbl.length t.tbl >= cap ->
          t.overflow <- t.overflow + 1;
          None
      | Some _ | None ->
          let c = { taken = 0; not_taken = 0 } in
          Hashtbl.replace t.tbl branch c;
          Some c)

let add t branch ~taken n =
  match counter_for t branch with
  | Some c ->
      if taken then c.taken <- c.taken + n else c.not_taken <- c.not_taken + n
  | None -> ()

let incr t branch ~taken = add t branch ~taken 1
let counter t branch = Hashtbl.find_opt t.tbl branch

let freq t branch =
  match Hashtbl.find_opt t.tbl branch with
  | Some c -> c.taken + c.not_taken
  | None -> 0

let bias t branch =
  match Hashtbl.find_opt t.tbl branch with
  | Some c when c.taken + c.not_taken > 0 ->
      Some (float_of_int c.taken /. float_of_int (c.taken + c.not_taken))
  | Some _ | None -> None

let branch_ids t =
  List.sort compare (Hashtbl.fold (fun b _ acc -> b :: acc) t.tbl [])

let entries t =
  List.filter_map
    (fun b ->
      match Hashtbl.find_opt t.tbl b with
      | Some c -> Some (b, (c.taken, c.not_taken))
      | None -> None)
    (branch_ids t)

let total t = Hashtbl.fold (fun _ c acc -> acc + c.taken + c.not_taken) t.tbl 0
let is_empty t = total t = 0

let copy t =
  let dst = { (create ()) with capacity = t.capacity; overflow = t.overflow } in
  Hashtbl.iter
    (fun b (c : counter) ->
      Hashtbl.replace dst.tbl b { taken = c.taken; not_taken = c.not_taken })
    t.tbl;
  dst

let clear t =
  Hashtbl.reset t.tbl;
  t.overflow <- 0

let flip t =
  let dst = create () in
  Hashtbl.iter
    (fun b (c : counter) ->
      Hashtbl.replace dst.tbl b { taken = c.not_taken; not_taken = c.taken })
    t.tbl;
  dst

type table = t array

let create_table ~n_methods = Array.init n_methods (fun _ -> create ())
let copy_table tbl = Array.map copy tbl
let flip_table tbl = Array.map flip tbl
let table_total tbl = Array.fold_left (fun acc t -> acc + total t) 0 tbl
let table_overflow tbl = Array.fold_left (fun acc t -> acc + overflow t) 0 tbl

let rows tbl =
  let out = ref [] in
  Array.iteri
    (fun mi t ->
      List.iter
        (fun (b, (taken, not_taken)) ->
          out := not_taken :: taken :: b :: mi :: !out)
        (entries t))
    tbl;
  Array.of_list (List.rev !out)

let to_lines tbl =
  let r = rows tbl in
  List.init (Array.length r / 4) (fun k ->
      let o = 4 * k in
      Fmt.str "%d %d %d %d" r.(o) r.(o + 1) r.(o + 2) r.(o + 3))

let add_row tbl mi b ~taken ~not_taken =
  if mi >= 0 && mi < Array.length tbl && taken >= 0 && not_taken >= 0 then begin
    add tbl.(mi) b ~taken:true taken;
    add tbl.(mi) b ~taken:false not_taken;
    Ok ()
  end
  else Error "expected a method index in range and non-negative counters"

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (b, (taken, not_taken)) ->
      Fmt.pf ppf "br%d: taken=%d not-taken=%d@," b taken not_taken)
    (entries t);
  Fmt.pf ppf "@]"
