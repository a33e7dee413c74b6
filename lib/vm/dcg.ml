type t = (int * int, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let record t ~caller ~callee =
  match Hashtbl.find_opt t (caller, callee) with
  | Some r -> incr r
  | None -> Hashtbl.replace t (caller, callee) (ref 1)

let add t ~caller ~callee w =
  match Hashtbl.find_opt t (caller, callee) with
  | Some r -> r := !r + w
  | None -> Hashtbl.replace t (caller, callee) (ref w)

let weight t ~caller ~callee =
  match Hashtbl.find_opt t (caller, callee) with Some r -> !r | None -> 0

let callee_weight t ~callee =
  Hashtbl.fold
    (fun (_, ce) r acc -> if ce = callee then acc + !r else acc)
    t 0

let edges t =
  let l = Hashtbl.fold (fun (cr, ce) r acc -> (cr, ce, !r) :: acc) t [] in
  List.sort
    (fun (cra, cea, wa) (crb, ceb, wb) ->
      match compare wb wa with 0 -> compare (cra, cea) (crb, ceb) | c -> c)
    l

let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0

let copy t =
  let dst = create () in
  Hashtbl.iter (fun k r -> Hashtbl.replace dst k (ref !r)) t;
  dst

let to_lines t =
  List.map (fun (cr, ce, w) -> Fmt.str "%d %d %d" cr ce w) (edges t)

type parse_error = {
  file : string option;
  line : int;  (* 1-based position in the input *)
  text : string;
  reason : string;
}

let pp_parse_error ppf e =
  Fmt.pf ppf "%s:%d: %s (in %S)"
    (Option.value e.file ~default:"<input>")
    e.line e.reason e.text

let set_row t ~caller ~callee w =
  if w > 0 then begin
    Hashtbl.replace t (caller, callee) (ref w);
    Ok ()
  end
  else Error "expected three integers with a positive weight"
