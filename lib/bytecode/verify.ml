exception Error of string

type arities = (string, int) Hashtbl.t

(* the first method of a name is the one calls resolve to, as in
   {!Program.find} *)
let arities (p : Program.t) =
  let t = Hashtbl.create 16 in
  Array.iter
    (fun (m : Method.t) ->
      if not (Hashtbl.mem t m.name) then Hashtbl.add t m.name m.nparams)
    p.methods;
  t

type result = {
  depths : int array;
  max_stack : int;
  diagnostics : Diagnostic.diagnostic list;
}

(* Diagnostics accumulate newest-first in [acc]. *)
let report acc severity loc fmt =
  Fmt.kstr
    (fun message ->
      acc := { Diagnostic.severity; pass = "bytecode"; loc; message } :: !acc)
    fmt

let check ?arities:known (p : Program.t) (m : Method.t) =
  let arities = match known with Some a -> a | None -> arities p in
  let acc = ref [] in
  let error loc fmt = report acc Diagnostic.Error loc fmt in
  let at_method = Diagnostic.Method_loc m.name in
  let at_block b = Diagnostic.Block_loc (m.name, b) in
  let at_instr b i = Diagnostic.Instr_loc (m.name, b, i) in
  let n = Array.length m.blocks in
  let in_range b = b >= 0 && b < n in
  let depths = Array.make n (-1) in
  let max_stack = ref 0 in
  if n = 0 then error at_method "method has no blocks"
  else begin
    if m.nparams < 0 || m.nparams > m.nlocals then
      error at_method "nparams %d outside nlocals %d" m.nparams m.nlocals;
    if not (in_range m.entry) then
      error at_method "entry block %d out of range" m.entry;
    if not (in_range m.exit_) then
      error at_method "exit block %d out of range" m.exit_
    else begin
      match m.blocks.(m.exit_).term with
      | Method.Ret -> ()
      | Method.Jmp _ | Method.Br _ ->
          error (at_block m.exit_) "exit block does not end in ret"
    end;
    (* {!To_cfg} relies on the entry block never being a branch target *)
    Array.iteri
      (fun bid (blk : Method.block) ->
        let targets_entry =
          match blk.term with
          | Method.Ret -> false
          | Method.Jmp d -> d = m.entry
          | Method.Br { on_true; on_false; _ } ->
              on_true = m.entry || on_false = m.entry
        in
        if targets_entry then
          report acc Diagnostic.Warning (at_block bid)
            "entry block B%d is a branch target" m.entry)
      m.blocks;
    let check_instr bid depth i (ins : Instr.t) =
      let pops, pushes = Instr.stack_effect ins in
      if depth < pops then
        error (at_instr bid i) "stack underflow at %a (depth %d, pops %d)"
          Instr.pp ins depth pops;
      (match ins with
      | Instr.Load l | Instr.Store l | Instr.Inc (l, _) ->
          if l < 0 || l >= m.nlocals then
            error (at_instr bid i) "local %d out of range (nlocals %d)" l
              m.nlocals
      | Instr.GLoad g | Instr.GStore g ->
          if g < 0 || g >= p.n_globals then
            error (at_instr bid i) "global %d out of range (n_globals %d)" g
              p.n_globals
      | Instr.Rand k ->
          if k <= 0 then
            error (at_instr bid i) "rand bound %d is not positive" k
      | Instr.Call (callee, argc) -> (
          if argc < 0 then error (at_instr bid i) "negative arity %d" argc;
          match Hashtbl.find_opt arities callee with
          | None -> error (at_instr bid i) "call to unknown method %s" callee
          | Some nparams ->
              if nparams <> argc then
                error (at_instr bid i)
                  "call %s/%d but %s takes %d parameter(s)" callee argc callee
                  nparams)
      | Instr.Const _ | Instr.Binop _ | Instr.Cmp _ | Instr.Neg | Instr.Not
      | Instr.Dup | Instr.Pop | Instr.AGet | Instr.ASet ->
          ());
      (* an underflow is reported once; the walk goes on from depth 0 *)
      let depth = max depth pops - pops + pushes in
      if depth > !max_stack then max_stack := depth;
      depth
    in
    let worklist = Queue.create () in
    let enter ~from b d =
      if not (in_range b) then
        error (at_block from) "jump target %d out of range" b
      else if depths.(b) = -1 then begin
        depths.(b) <- d;
        Queue.add b worklist
      end
      else if depths.(b) <> d then
        error (at_block b)
          "block entered with inconsistent stack depths %d and %d" depths.(b) d
    in
    if in_range m.entry then begin
      depths.(m.entry) <- 0;
      Queue.add m.entry worklist
    end;
    while not (Queue.is_empty worklist) do
      let bid = Queue.pop worklist in
      let blk = m.blocks.(bid) in
      let depth = ref depths.(bid) in
      Array.iteri (fun i ins -> depth := check_instr bid !depth i ins) blk.body;
      let depth = !depth in
      match blk.term with
      | Method.Ret ->
          if bid <> m.exit_ then
            error (at_block bid) "ret outside the exit block";
          if depth <> 1 then
            error (at_block bid) "exit reached with stack depth %d (want 1)"
              depth
      | Method.Jmp d -> enter ~from:bid d depth
      | Method.Br { on_true; on_false; _ } ->
          if depth < 1 then
            error (at_block bid) "branch with no condition on the stack";
          if on_true = on_false then
            error (at_block bid) "both branch arms target block %d" on_true;
          let d = max 0 (depth - 1) in
          enter ~from:bid on_true d;
          if on_true <> on_false then enter ~from:bid on_false d
    done;
    Array.iteri
      (fun b d -> if d = -1 then error (at_block b) "block unreachable")
      depths
  end;
  { depths; max_stack = !max_stack; diagnostics = List.rev !acc }

let check_program (p : Program.t) =
  let acc = ref [] in
  let error loc fmt = report acc Diagnostic.Error loc fmt in
  if p.heap_size <= 0 then
    error Diagnostic.Program_loc "heap size %d is not positive" p.heap_size;
  if p.n_globals < 0 then
    error Diagnostic.Program_loc "negative global area size %d" p.n_globals;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (m : Method.t) ->
      if Hashtbl.mem seen m.name then
        error (Diagnostic.Method_loc m.name) "duplicate method name";
      Hashtbl.replace seen m.name ())
    p.methods;
  let arities = arities p in
  (match Hashtbl.find_opt arities p.main with
  | None -> error Diagnostic.Program_loc "main method %s missing" p.main
  | Some nparams ->
      if nparams <> 0 then
        error (Diagnostic.Method_loc p.main)
          "main takes %d parameter(s) (want 0)" nparams);
  List.rev !acc
  @ List.concat_map
      (fun m -> (check ~arities p m).diagnostics)
      (Array.to_list p.methods)

let raise_first ds =
  match Diagnostic.errors ds with
  | d :: _ ->
      raise (Error (Fmt.str "%a: %s" Diagnostic.pp_location d.loc d.message))
  | [] -> ()

let verified ?arities p m =
  let r = check ?arities p m in
  raise_first r.diagnostics;
  r

let block_depths p m = (verified p m).depths
let max_stack ?arities p m = (verified ?arities p m).max_stack

let program p =
  raise_first (check_program p);
  (* CFG construction enforces the single-exit / reaches-exit shape. *)
  Program.iter_methods
    (fun _ m ->
      try ignore (To_cfg.cfg m)
      with Cfg.Malformed msg -> raise (Error ("cfg: " ^ msg)))
    p
