type pattern =
  | LL of Instr.binop
  | LK of Instr.binop
  | KStore
  | LStore
  | LRet
  | CmpBr of Instr.cmp
  | LLCmpBr of Instr.cmp
  | LKCmpBr of Instr.cmp
  | KCmpBr of Instr.cmp
  | LJmp
  | StJmp
  | IncJmp

type entry = {
  fblock : int;
  fstart : int;
  flen : int;
  fterm : bool;
  fpattern : pattern;
}

type witness = { fgen : int; fentries : entry list }

(* Only total operators are fused: Div/Rem carry a zero guard and
   Shl/Shr a shift mask, and specializing those buys nothing the
   generic slot does not already pay. *)
let supported_binop = function
  | Instr.Add | Sub | Mul | And | Or | Xor -> true
  | Div | Rem | Shl | Shr -> false

let block_fusable (blk : Method.block) =
  Array.for_all
    (function Instr.Call _ -> false | _ -> true)
    blk.Method.body

(* Longest match first.  Patterns that fold the terminator require the
   matched sequence to end the block body. *)
let match_at (blk : Method.block) i =
  let body = blk.Method.body in
  let n = Array.length body in
  let br = match blk.Method.term with Method.Br _ -> true | _ -> false in
  let ret = match blk.Method.term with Method.Ret -> true | _ -> false in
  let jmp = match blk.Method.term with Method.Jmp _ -> true | _ -> false in
  let triple_end = i + 3 = n in
  let pair_end = i + 2 = n in
  let pair a b =
    match (a, b) with
    | Instr.Const _, Instr.Cmp c when pair_end && br -> Some (KCmpBr c, 2, true)
    | Instr.Const _, Instr.Store _ -> Some (KStore, 2, false)
    | Instr.Load _, Instr.Store _ -> Some (LStore, 2, false)
    | _ -> None
  in
  if i + 3 <= n then
    match (body.(i), body.(i + 1), body.(i + 2)) with
    | Instr.Load _, Instr.Load _, Instr.Cmp c when triple_end && br ->
        Some (LLCmpBr c, 3, true)
    | Instr.Load _, Instr.Const _, Instr.Cmp c when triple_end && br ->
        Some (LKCmpBr c, 3, true)
    | Instr.Load _, Instr.Load _, Instr.Binop op when supported_binop op ->
        Some (LL op, 3, false)
    | Instr.Load _, Instr.Const _, Instr.Binop op when supported_binop op ->
        Some (LK op, 3, false)
    | _ -> pair body.(i) body.(i + 1)
  else if i + 2 <= n then pair body.(i) body.(i + 1)
  else if i + 1 = n then
    match body.(i) with
    | Instr.Cmp c when br -> Some (CmpBr c, 1, true)
    | Instr.Load _ when ret -> Some (LRet, 1, true)
    | Instr.Load _ when jmp -> Some (LJmp, 1, true)
    | Instr.Store _ when jmp -> Some (StJmp, 1, true)
    | Instr.Inc _ when jmp -> Some (IncJmp, 1, true)
    | _ -> None
  else None

let plan ~gen (m : Method.t) =
  let entries = ref [] in
  Array.iteri
    (fun b blk ->
      if block_fusable blk then begin
        let n = Array.length blk.Method.body in
        let i = ref 0 in
        while !i < n do
          match match_at blk !i with
          | Some (p, len, term) ->
              entries :=
                { fblock = b; fstart = !i; flen = len; fterm = term; fpattern = p }
                :: !entries;
              i := !i + len
          | None -> incr i
        done
      end)
    m.Method.blocks;
  { fgen = gen; fentries = List.rev !entries }

let stack_delta = function
  | LL _ | LK _ -> 1
  | KStore | LStore -> 0
  | LRet -> 0 (* the push and the folded Ret's pop cancel *)
  | CmpBr _ -> -2 (* consumes both operands and the folded condition *)
  | LLCmpBr _ | LKCmpBr _ -> 0
  | KCmpBr _ -> -1 (* pushes the constant, pops both plus the condition *)
  | LJmp -> 1 (* the folded Jmp pops nothing *)
  | StJmp -> -1
  | IncJmp -> 0

let pattern_name = function
  | LL op -> Fmt.str "ll-%a" Instr.pp_binop op
  | LK op -> Fmt.str "lk-%a" Instr.pp_binop op
  | KStore -> "kstore"
  | LStore -> "lstore"
  | LRet -> "lret"
  | CmpBr c -> Fmt.str "cmpbr-%a" Instr.pp_cmp c
  | LLCmpBr c -> Fmt.str "llcmpbr-%a" Instr.pp_cmp c
  | LKCmpBr c -> Fmt.str "lkcmpbr-%a" Instr.pp_cmp c
  | KCmpBr c -> Fmt.str "kcmpbr-%a" Instr.pp_cmp c
  | LJmp -> "ljmp"
  | StJmp -> "stjmp"
  | IncJmp -> "incjmp" 

let pp_entry ppf e =
  Fmt.pf ppf "b%d[%d..%d%s] %s" e.fblock e.fstart
    (e.fstart + e.flen - 1)
    (if e.fterm then "+term" else "")
    (pattern_name e.fpattern)
