(* Flat-code execution engine (engine v2).

   Each compiled form is translated once into flat preallocated arrays:
   an int-coded opcode array [fcode] and parallel operand arrays [fa] /
   [fb] (plus captured layout-penalty rows [frows] and call-site inline
   caches [fics]).  Execution is one tail-recursive loop over a program
   counter; a block transfer is a fused virtual-cycle add followed by a
   jump to the successor's first slot.  Superinstructions (profile-hot
   adjacent pairs/triples planned by {!Fusion}) collapse several slots
   into one dispatch; call sites climb a mono -> poly(4) -> megamorphic
   inline-cache ladder keyed on {!Machine.cmeth.gen}.

   The interpreter ([Interp]) is the semantic oracle: the flat code
   performs exactly the oracle's virtual-cycle reads and writes, in the
   same order.  Block costs and layout penalties are read through the
   captured compiled form at execution time — not folded as constants —
   because [Machine.set_speed] and [Layout.apply] mutate the compiled
   form a frame may currently be executing, and the oracle observes
   those mutations mid-invocation.  Fusion can only merge work within
   one block, and cycles are charged per block, so fused code charges,
   observes and produces exactly what unfused code does. *)

(* Opcodes.  All constructors are nullary, so the code array is an
   immediate-int array and dispatch compiles to a jump table.  [ARM]
   slots are never dispatched: they carry the second/third transfer arm
   of a conditional (target pc in [fa], packed edge word in [fb], layout
   row in [frows]). *)
type op =
  | CONST
  | LOAD
  | STORE
  | INC
  | ADD
  | SUB
  | MUL
  | DIV
  | REM
  | AND
  | OR
  | XOR
  | SHL
  | SHR
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | NEG
  | NOT
  | DUP
  | POP
  | GLOAD
  | GSTORE
  | AGET
  | ASET
  | RAND
  | CALL
  | RET
  | JMP
  | BR
  | ARM
  (* superinstructions: Load a; Load b; Binop *)
  | LL_ADD
  | LL_SUB
  | LL_MUL
  | LL_AND
  | LL_OR
  | LL_XOR
  (* Load a; Const k; Binop *)
  | LK_ADD
  | LK_SUB
  | LK_MUL
  | LK_AND
  | LK_OR
  | LK_XOR
  (* Const k; Store l / Load a; Store l / Load a; Ret *)
  | KSTORE
  | LSTORE
  | LRET
  (* Cmp c; Br — true arm in this slot, false arm in the next *)
  | CMPBR_EQ
  | CMPBR_NE
  | CMPBR_LT
  | CMPBR_LE
  | CMPBR_GT
  | CMPBR_GE
  (* Load a; Load b; Cmp c; Br — arms in the two following slots *)
  | LL_CMPBR_EQ
  | LL_CMPBR_NE
  | LL_CMPBR_LT
  | LL_CMPBR_LE
  | LL_CMPBR_GT
  | LL_CMPBR_GE
  (* Load a; Const k; Cmp c; Br *)
  | LK_CMPBR_EQ
  | LK_CMPBR_NE
  | LK_CMPBR_LT
  | LK_CMPBR_LE
  | LK_CMPBR_GT
  | LK_CMPBR_GE
  (* Const k; Cmp c; Br — stack top vs k, arms in the two following slots *)
  | K_CMPBR_EQ
  | K_CMPBR_NE
  | K_CMPBR_LT
  | K_CMPBR_LE
  | K_CMPBR_GT
  | K_CMPBR_GE
  (* Load a; Jmp / Store l; Jmp / Inc (l, k); Jmp — arm in the next slot *)
  | LJMP
  | STJMP
  | INCJMP

type env = {
  mutable locals : int array;
  mutable stack : int array;
  mutable frame : Interp.frame;
}

(* A method body translated to flat code.  Transfer slots pack the edge
   descriptor into one word in [fb]: bit 0 = destination has a
   yieldpoint, bit 1 = successor index (0 taken / 1 not-taken), bits
   2..21 = source block, bits 22.. = destination block; [fa] holds the
   destination's first slot and [frows] the source's captured
   [edge_extra] row (mutated in place by [Layout.apply], so reads see
   the current penalties, as the oracle does).  [fcost] bakes the
   destination block's cost per transfer slot: [Machine.set_speed] is
   the only mutator of [block_cost] and always bumps [gen], which
   invalidates this translation at the next body fetch — so baked
   costs are exact in bare mode, where no hook can recompile
   mid-run.  Hooked paths read [block_cost] through [fcm] instead. *)
type flat = {
  bgen : int;  (* Machine.cmeth.gen this code was translated from *)
  self : int;  (* dense method index, the fparent of callee frames *)
  fcm : Machine.cmeth;
  nlocals : int;
  stack_need : int;
  fneed : int;  (* max nlocals stack_need: one capacity check per call *)
  entry_pc : int;
  entry_block : int;
  entry_yp : bool;
  entry_cost : int;  (* entry block cost baked at translation *)
  (* Two-stage baked entry: compilers emit an empty entry block whose
     only job is [Jmp] to the real first block, so bare calls would pay
     a dispatch just to run that transfer.  When the entry block is
     empty and ends in [Jmp d], [entry2_pc] starts execution at [d]
     directly and the call site charges the elided transfer itself:
     [entry_row] is the entry block's captured [edge_extra] row and
     [entry2_cost] the destination's baked cost, polled per
     [entry2_yp].  Otherwise the stage is neutral ([no_row]/0/false and
     [entry2_pc = entry_pc]), so the call site needs no extra branch. *)
  entry2_pc : int;
  entry_row : int array;
  entry2_cost : int;
  entry2_yp : bool;
  fcode : op array;
  fa : int array;
  fb : int array;
  fcost : int array;  (* per transfer slot: destination block cost *)
  frows : int array array;
  fics : ic array;
  fwitness : Fusion.witness;  (* the fusion table compiled in *)
}

(* Call-site inline cache: a ladder of tiers keyed on the callee
   compiled form's generation stamp.  tier 0 = monomorphic (entry 0
   only), tier 1 = polymorphic (4 entries, most recent first), tier 2 =
   megamorphic (per-method shared cache via [get_body]; entry 2 tracks
   the last seen generation for demotion while entry 0 holds a
   never-matching stamp, so the call-site fast path is one compare
   regardless of tier).  Generation stamps are globally unique, so a
   matching stamp proves the cached translation is current. *)
and ic = {
  cidx : int;  (* callee method index *)
  iargc : int;
  mutable tier : int;
  mutable g0 : int;
  mutable g1 : int;
  mutable g2 : int;
  mutable g3 : int;
  mutable b0 : flat;
  mutable b1 : flat;
  mutable b2 : flat;
  mutable b3 : flat;
  mutable miss_streak : int;  (* misses at the current tier *)
  mutable stable : int;  (* consecutive same-generation megamorphic hits *)
}

type tiers = { fuse : bool }

let default_tiers = { fuse = true }
let tier_name t = if t.fuse then "v2-flat" else "v2-flat-nofuse"

(* PIC ladder thresholds: mono misses before promoting to poly, poly
   misses before promoting to megamorphic, stable megamorphic hits
   before demoting back to mono *)
let pic_mono_misses = 4
let pic_poly_misses = 4
let pic_mega_stable = 64

(* Engine-level telemetry counters; host-side only, absent entirely
   when the engine was created without a sink. *)
type tstats = {
  ic_hits : Metrics.counter;
  ic_misses : Metrics.counter;
  translations : Metrics.counter;
  fuse_blocks : Metrics.counter;
  fuse_sites : Metrics.counter;
  pic_promote_poly : Metrics.counter;
  pic_promote_mega : Metrics.counter;
  pic_demote : Metrics.counter;
}

type t = {
  st : Machine.t;
  poll : int;
  heap : int array;
  heap_n : int;
  globals : int array;
  prng : Prng.t;
  tiers : tiers;
  mutable hooks : Interp.hooks;
  mutable hooked_mode : bool;
  bodies : flat option array;
  hot : bool array option array;  (* fusion hot masks, per method *)
  invalid : flat;  (* never-matching cache filler for fresh ICs *)
  mutable envs : env array;  (* frame pool, indexed by call depth *)
  stats : tstats option;
}

let dummy_frame = { Interp.fmeth = -1; fparent = -1; r = 0 }
let no_row = [| 0; 0 |]

let invalid_flat (st : Machine.t) =
  {
    bgen = min_int;
    self = -1;
    fcm = st.Machine.methods.(0);
    nlocals = 0;
    stack_need = 1;
    fneed = 1;
    entry_pc = 0;
    entry_block = 0;
    entry_yp = false;
    entry_cost = 0;
    entry2_pc = 0;
    entry_row = no_row;
    entry2_cost = 0;
    entry2_yp = false;
    fcode = [||];
    fa = [||];
    fb = [||];
    fcost = [||];
    frows = [||];
    fics = [||];
    fwitness = Fusion.empty_witness;
  }

let fresh_env () =
  { locals = Array.make 8 0; stack = Array.make 8 0; frame = dummy_frame }

let is_no_hooks = function
  | { Interp.on_entry = None; on_exit = None; on_edge = None; on_yieldpoint = None }
    ->
      true
  | _ -> false

let create ?telemetry ?(tiers = default_tiers) ?(hooks = Interp.no_hooks) st =
  let n = Array.length st.Machine.methods in
  let stats =
    match telemetry with
    | None -> None
    | Some tel ->
        let m = Telemetry.metrics tel in
        Some
          {
            ic_hits = Metrics.counter m "engine.ic.hits";
            ic_misses = Metrics.counter m "engine.ic.misses";
            translations = Metrics.counter m "engine.translations";
            fuse_blocks = Metrics.counter m "engine.fuse.blocks";
            fuse_sites = Metrics.counter m "engine.fuse.sites";
            pic_promote_poly = Metrics.counter m "engine.pic.promote_poly";
            pic_promote_mega = Metrics.counter m "engine.pic.promote_mega";
            pic_demote = Metrics.counter m "engine.pic.demote";
          }
  in
  {
    st;
    poll = st.Machine.cost.Cost_model.yieldpoint_poll;
    heap = st.Machine.heap;
    heap_n = Array.length st.Machine.heap;
    globals = st.Machine.globals;
    prng = st.Machine.prng;
    tiers;
    hooks;
    hooked_mode = not (is_no_hooks hooks);
    bodies = Array.make n None;
    hot = Array.make n None;
    invalid = invalid_flat st;
    envs = Array.init 64 (fun _ -> fresh_env ());
    stats;
  }

let set_hooks eng hooks =
  (* hooks are consulted dynamically on dispatch, so nothing cached
     needs invalidation *)
  eng.hooks <- hooks;
  eng.hooked_mode <- not (is_no_hooks hooks)

let hooks eng = eng.hooks
let tiers eng = eng.tiers

let set_hot_blocks eng midx hot =
  eng.hot.(midx) <- Some (Array.copy hot);
  (* force a re-plan: the generation stamp is unchanged, but the fusion
     table depends on the mask *)
  eng.bodies.(midx) <- None

let hot_mask eng midx =
  if not eng.tiers.fuse then [||]
  else match eng.hot.(midx) with Some h -> h | None -> [||]

let fusion_witness eng midx =
  let cm = eng.st.Machine.methods.(midx) in
  Fusion.plan ~gen:cm.Machine.gen ~hot:(hot_mask eng midx) cm.Machine.meth

let fused_entries eng midx =
  match eng.bodies.(midx) with
  | Some b -> b.fwitness.Fusion.fentries
  | None -> []

let env_at eng depth =
  let n = Array.length eng.envs in
  if depth >= n then begin
    let bigger = Array.init (2 * (depth + 1)) (fun _ -> fresh_env ()) in
    Array.blit eng.envs 0 bigger 0 n;
    eng.envs <- bigger
  end;
  eng.envs.(depth)

let overflow () = raise (Interp.Runtime_error "call stack overflow")

(* Size env's arrays for [bd], zero the non-parameter locals, and let
   the caller blit the [argc] parameters.  [Array.fill] is a C call;
   bodies here have a handful of locals, so a manual store loop is
   cheaper than crossing the FFI. *)
let grow env need =
  let n = max need (2 * Array.length env.locals) in
  env.locals <- Array.make n 0;
  env.stack <- Array.make n 0

(* Size env's arrays for [bd] (one capacity check: the pool keeps both
   arrays the same length, compared against the precomputed [fneed]),
   zero the non-parameter locals, and let the caller write the [argc]
   parameters.  [Array.fill] is a C call; bodies here have a handful of
   locals, so a manual store loop is cheaper than crossing the FFI. *)
let prep env bd argc =
  if Array.length env.locals < bd.fneed then grow env bd.fneed;
  let locals = env.locals in
  for i = argc to bd.nlocals - 1 do
    Array.unsafe_set locals i 0
  done

let op_of_binop = function
  | Instr.Add -> ADD
  | Sub -> SUB
  | Mul -> MUL
  | Div -> DIV
  | Rem -> REM
  | And -> AND
  | Or -> OR
  | Xor -> XOR
  | Shl -> SHL
  | Shr -> SHR

let op_of_cmp = function
  | Instr.Eq -> EQ
  | Ne -> NE
  | Lt -> LT
  | Le -> LE
  | Gt -> GT
  | Ge -> GE

let ll_of_binop = function
  | Instr.Add -> LL_ADD
  | Sub -> LL_SUB
  | Mul -> LL_MUL
  | And -> LL_AND
  | Or -> LL_OR
  | Xor -> LL_XOR
  | Div | Rem | Shl | Shr -> assert false

let lk_of_binop = function
  | Instr.Add -> LK_ADD
  | Sub -> LK_SUB
  | Mul -> LK_MUL
  | And -> LK_AND
  | Or -> LK_OR
  | Xor -> LK_XOR
  | Div | Rem | Shl | Shr -> assert false

let cmpbr_of_cmp = function
  | Instr.Eq -> CMPBR_EQ
  | Ne -> CMPBR_NE
  | Lt -> CMPBR_LT
  | Le -> CMPBR_LE
  | Gt -> CMPBR_GT
  | Ge -> CMPBR_GE

let ll_cmpbr_of_cmp = function
  | Instr.Eq -> LL_CMPBR_EQ
  | Ne -> LL_CMPBR_NE
  | Lt -> LL_CMPBR_LT
  | Le -> LL_CMPBR_LE
  | Gt -> LL_CMPBR_GT
  | Ge -> LL_CMPBR_GE

let lk_cmpbr_of_cmp = function
  | Instr.Eq -> LK_CMPBR_EQ
  | Ne -> LK_CMPBR_NE
  | Lt -> LK_CMPBR_LT
  | Le -> LK_CMPBR_LE
  | Gt -> LK_CMPBR_GT
  | Ge -> LK_CMPBR_GE

let k_cmpbr_of_cmp = function
  | Instr.Eq -> K_CMPBR_EQ
  | Ne -> K_CMPBR_NE
  | Lt -> K_CMPBR_LT
  | Le -> K_CMPBR_LE
  | Gt -> K_CMPBR_GT
  | Ge -> K_CMPBR_GE

let local_at body i =
  match body.(i) with Instr.Load l -> l | _ -> assert false

let const_at body i =
  match body.(i) with Instr.Const k -> k | _ -> assert false

let store_at body i =
  match body.(i) with Instr.Store l -> l | _ -> assert false

let inc_at body i =
  match body.(i) with Instr.Inc (l, k) -> (l, k) | _ -> assert false

let count_hit eng =
  match eng.stats with Some s -> Metrics.incr s.ic_hits | None -> ()

let count_miss eng =
  match eng.stats with Some s -> Metrics.incr s.ic_misses | None -> ()

let rec get_body eng midx =
  let cm = Array.unsafe_get eng.st.Machine.methods midx in
  match Array.unsafe_get eng.bodies midx with
  | Some b when b.bgen = cm.Machine.gen -> b
  | Some _ | None ->
      let b = translate eng cm midx in
      eng.bodies.(midx) <- Some b;
      b

(* Translate one compiled form into flat code.

   Flat code elides bounds checks the interpreter pays for: the
   bytecode verifier establishes stack discipline (sp stays within
   [max_stack], local/global indices within bounds, block ids within
   the method) and [prep] sizes the arrays, so stack/local/global
   accesses use unsafe reads; heap indices are wrapped into range
   before use.  [Pep_check.justify_unsafe] re-derives these bounds
   independently, so the elision is machine-checked under
   [Driver.options.deep_verify] and [pepsim check --deep].  Fused
   superinstructions never push deeper than the sequence they replace,
   so the same [max_stack] bound covers them. *)
and translate eng (cm : Machine.cmeth) midx : flat =
  let m = cm.Machine.meth in
  let nblocks = Array.length m.Method.blocks in
  let witness = Fusion.plan ~gen:cm.Machine.gen ~hot:(hot_mask eng midx) m in
  (match eng.stats with
  | Some s ->
      Metrics.incr s.translations;
      let n = List.length witness.Fusion.fentries in
      if n > 0 then begin
        Metrics.incr ~by:n s.fuse_sites;
        let blocks =
          List.sort_uniq compare
            (List.map (fun e -> e.Fusion.fblock) witness.Fusion.fentries)
        in
        Metrics.incr ~by:(List.length blocks) s.fuse_blocks
      end
  | None -> ());
  let by_block = Array.make nblocks [] in
  List.iter
    (fun (e : Fusion.entry) ->
      by_block.(e.Fusion.fblock) <- e :: by_block.(e.Fusion.fblock))
    witness.Fusion.fentries;
  Array.iteri (fun i l -> by_block.(i) <- List.rev l) by_block;
  (* worst case: one slot per body instruction plus two terminator arms *)
  let bound =
    Array.fold_left
      (fun acc (blk : Method.block) -> acc + Array.length blk.Method.body + 2)
      0 m.Method.blocks
  in
  let code = Array.make bound RET in
  let opa = Array.make bound 0 in
  let opb = Array.make bound 0 in
  let rows = Array.make bound no_row in
  let block_pc = Array.make nblocks 0 in
  let tslots = ref [] in
  let ic_acc = ref [] in
  let n_ics = ref 0 in
  let pc = ref 0 in
  let push op ~ax ~bx =
    code.(!pc) <- op;
    opa.(!pc) <- ax;
    opb.(!pc) <- bx;
    incr pc
  in
  (* a transfer slot: [fa] patched to the destination's first slot once
     every block's position is known *)
  let push_transfer op ~src ~idx dst =
    let yp = if cm.Machine.yieldpoint.(dst) then 1 else 0 in
    code.(!pc) <- op;
    opb.(!pc) <- yp lor (idx lsl 1) lor (src lsl 2) lor (dst lsl 22);
    rows.(!pc) <- cm.Machine.edge_extra.(src);
    tslots := !pc :: !tslots;
    incr pc
  in
  let push_term b = function
    | Method.Ret -> push RET ~ax:0 ~bx:0
    | Method.Jmp d -> push_transfer JMP ~src:b ~idx:0 d
    | Method.Br { on_true; on_false; _ } ->
        push_transfer BR ~src:b ~idx:0 on_true;
        push_transfer ARM ~src:b ~idx:1 on_false
  in
  let push_instr targets i (ins : Instr.t) =
    match ins with
    | Instr.Const k -> push CONST ~ax:k ~bx:0
    | Load l -> push LOAD ~ax:l ~bx:0
    | Store l -> push STORE ~ax:l ~bx:0
    | Inc (l, k) -> push INC ~ax:l ~bx:k
    | Binop op -> push (op_of_binop op) ~ax:0 ~bx:0
    | Cmp c -> push (op_of_cmp c) ~ax:0 ~bx:0
    | Neg -> push NEG ~ax:0 ~bx:0
    | Not -> push NOT ~ax:0 ~bx:0
    | Dup -> push DUP ~ax:0 ~bx:0
    | Pop -> push POP ~ax:0 ~bx:0
    | GLoad g -> push GLOAD ~ax:g ~bx:0
    | GStore g -> push GSTORE ~ax:g ~bx:0
    | AGet -> push AGET ~ax:0 ~bx:0
    | ASet -> push ASET ~ax:0 ~bx:0
    | Call (_, argc) ->
        let inv = eng.invalid in
        let ic =
          {
            cidx = targets.(i);
            iargc = argc;
            tier = 0;
            g0 = min_int;
            g1 = min_int;
            g2 = min_int;
            g3 = min_int;
            b0 = inv;
            b1 = inv;
            b2 = inv;
            b3 = inv;
            miss_streak = 0;
            stable = 0;
          }
        in
        ic_acc := ic :: !ic_acc;
        push CALL ~ax:!n_ics ~bx:0;
        incr n_ics
    | Rand n -> push RAND ~ax:n ~bx:0
  in
  let push_super b (blk : Method.block) (e : Fusion.entry) =
    let body = blk.Method.body in
    let i = e.Fusion.fstart in
    let arms () =
      match blk.Method.term with
      | Method.Br { on_true; on_false; _ } -> (on_true, on_false)
      | Method.Ret | Method.Jmp _ -> assert false
    in
    match e.Fusion.fpattern with
    | Fusion.LL op ->
        push (ll_of_binop op) ~ax:(local_at body i) ~bx:(local_at body (i + 1))
    | Fusion.LK op ->
        push (lk_of_binop op) ~ax:(local_at body i) ~bx:(const_at body (i + 1))
    | Fusion.KStore ->
        push KSTORE ~ax:(const_at body i) ~bx:(store_at body (i + 1))
    | Fusion.LStore ->
        push LSTORE ~ax:(local_at body i) ~bx:(store_at body (i + 1))
    | Fusion.LRet -> push LRET ~ax:(local_at body i) ~bx:0
    | Fusion.CmpBr c ->
        let on_true, on_false = arms () in
        push_transfer (cmpbr_of_cmp c) ~src:b ~idx:0 on_true;
        push_transfer ARM ~src:b ~idx:1 on_false
    | Fusion.LLCmpBr c ->
        let on_true, on_false = arms () in
        push (ll_cmpbr_of_cmp c) ~ax:(local_at body i) ~bx:(local_at body (i + 1));
        push_transfer ARM ~src:b ~idx:0 on_true;
        push_transfer ARM ~src:b ~idx:1 on_false
    | Fusion.LKCmpBr c ->
        let on_true, on_false = arms () in
        push (lk_cmpbr_of_cmp c) ~ax:(local_at body i) ~bx:(const_at body (i + 1));
        push_transfer ARM ~src:b ~idx:0 on_true;
        push_transfer ARM ~src:b ~idx:1 on_false
    | Fusion.KCmpBr c ->
        let on_true, on_false = arms () in
        push (k_cmpbr_of_cmp c) ~ax:(const_at body i) ~bx:0;
        push_transfer ARM ~src:b ~idx:0 on_true;
        push_transfer ARM ~src:b ~idx:1 on_false
    | Fusion.LJmp ->
        let dst =
          match blk.Method.term with Method.Jmp d -> d | _ -> assert false
        in
        push LJMP ~ax:(local_at body i) ~bx:0;
        push_transfer ARM ~src:b ~idx:0 dst
    | Fusion.StJmp ->
        let dst =
          match blk.Method.term with Method.Jmp d -> d | _ -> assert false
        in
        push STJMP ~ax:(store_at body i) ~bx:0;
        push_transfer ARM ~src:b ~idx:0 dst
    | Fusion.IncJmp ->
        let dst =
          match blk.Method.term with Method.Jmp d -> d | _ -> assert false
        in
        let l, k = inc_at body i in
        push INCJMP ~ax:l ~bx:k;
        push_transfer ARM ~src:b ~idx:0 dst
  in
  for b = 0 to nblocks - 1 do
    let blk = m.Method.blocks.(b) in
    block_pc.(b) <- !pc;
    let body = blk.Method.body in
    let n = Array.length body in
    let targets = cm.Machine.call_target.(b) in
    let entries = ref by_block.(b) in
    let term_fused = ref false in
    let i = ref 0 in
    while !i < n do
      match !entries with
      | (e : Fusion.entry) :: rest when e.Fusion.fstart = !i ->
          entries := rest;
          push_super b blk e;
          if e.Fusion.fterm then term_fused := true;
          i := !i + e.Fusion.flen
      | _ ->
          push_instr targets !i body.(!i);
          incr i
    done;
    if not !term_fused then push_term b blk.Method.term
  done;
  let len = !pc in
  let code = Array.sub code 0 len in
  let opa = Array.sub opa 0 len in
  let opb = Array.sub opb 0 len in
  let rows = Array.sub rows 0 len in
  let cost = Array.make len 0 in
  List.iter
    (fun s ->
      let dst = opb.(s) lsr 22 in
      opa.(s) <- block_pc.(dst);
      cost.(s) <- cm.Machine.block_cost.(dst))
    !tslots;
  let e2_pc, e_row, e2_cost, e2_yp =
    let eb = m.Method.entry in
    match m.Method.blocks.(eb).Method.term with
    | Method.Jmp d when Array.length m.Method.blocks.(eb).Method.body = 0 ->
        ( block_pc.(d),
          cm.Machine.edge_extra.(eb),
          cm.Machine.block_cost.(d),
          cm.Machine.yieldpoint.(d) )
    | _ -> (block_pc.(eb), no_row, 0, false)
  in
  {
    bgen = cm.Machine.gen;
    self = midx;
    fcm = cm;
    nlocals = m.Method.nlocals;
    stack_need = cm.Machine.max_stack + 1;
    fneed = max m.Method.nlocals (cm.Machine.max_stack + 1);
    entry_pc = block_pc.(m.Method.entry);
    entry_block = m.Method.entry;
    entry_yp = cm.Machine.yieldpoint.(m.Method.entry);
    entry_cost = cm.Machine.block_cost.(m.Method.entry);
    entry2_pc = e2_pc;
    entry_row = e_row;
    entry2_cost = e2_cost;
    entry2_yp = e2_yp;
    fcode = code;
    fa = opa;
    fb = opb;
    fcost = cost;
    frows = rows;
    fics = Array.of_list (List.rev !ic_acc);
    fwitness = witness;
  }

(* Inline-cache lookup off the fast path (any non-monomorphic-hit
   case).  Generation stamps are globally unique and monotonic, so a
   matching stamp in any slot proves the cached flat code is current. *)
and lookup_ic eng ic (ccm : Machine.cmeth) =
  let gen = ccm.Machine.gen in
  match ic.tier with
  | 0 ->
      (* monomorphic; the hit case is inlined at the call site *)
      count_miss eng;
      let bd = get_body eng ic.cidx in
      ic.miss_streak <- ic.miss_streak + 1;
      if ic.miss_streak >= pic_mono_misses then begin
        ic.g1 <- ic.g0;
        ic.b1 <- ic.b0;
        ic.tier <- 1;
        ic.miss_streak <- 0;
        match eng.stats with
        | Some s -> Metrics.incr s.pic_promote_poly
        | None -> ()
      end;
      ic.g0 <- gen;
      ic.b0 <- bd;
      bd
  | 1 ->
      if ic.g0 = gen then begin
        count_hit eng;
        ic.b0
      end
      else if ic.g1 = gen then begin
        count_hit eng;
        ic.b1
      end
      else if ic.g2 = gen then begin
        count_hit eng;
        ic.b2
      end
      else if ic.g3 = gen then begin
        count_hit eng;
        ic.b3
      end
      else begin
        count_miss eng;
        let bd = get_body eng ic.cidx in
        ic.g3 <- ic.g2;
        ic.b3 <- ic.b2;
        ic.g2 <- ic.g1;
        ic.b2 <- ic.b1;
        ic.g1 <- ic.g0;
        ic.b1 <- ic.b0;
        ic.g0 <- gen;
        ic.b0 <- bd;
        ic.miss_streak <- ic.miss_streak + 1;
        if ic.miss_streak >= pic_poly_misses then begin
          ic.tier <- 2;
          ic.miss_streak <- 0;
          (* the call-site fast path is a single stamp compare on slot
             0, so the megamorphic tier parks a never-matching stamp
             there and tracks the last seen generation in slot 2 *)
          ic.g0 <- min_int;
          ic.g2 <- gen;
          ic.b2 <- bd;
          match eng.stats with
          | Some s -> Metrics.incr s.pic_promote_mega
          | None -> ()
        end;
        bd
      end
  | _ ->
      (* megamorphic: always consult the per-method cache; a long
         stable run earns demotion back to monomorphic *)
      let bd = get_body eng ic.cidx in
      if ic.g2 = gen then begin
        count_hit eng;
        ic.stable <- ic.stable + 1;
        if ic.stable >= pic_mega_stable then begin
          ic.tier <- 0;
          ic.miss_streak <- 0;
          ic.stable <- 0;
          ic.g0 <- gen;
          ic.b0 <- bd;
          match eng.stats with
          | Some s -> Metrics.incr s.pic_demote
          | None -> ()
        end
      end
      else begin
        count_miss eng;
        ic.g2 <- gen;
        ic.b2 <- bd;
        ic.stable <- 0
      end;
      bd

(* Enter a translated body: charge the entry block like the oracle's
   [enter_block] (cost, then poll and tick flag if the entry carries a
   yieldpoint, then the yieldpoint hook), and start the dispatch loop. *)
and run_flat eng bd env =
  let st = eng.st in
  let c =
    st.Machine.cycles
    + Array.unsafe_get bd.fcm.Machine.block_cost bd.entry_block
  in
  if bd.entry_yp then begin
    let c = c + eng.poll in
    st.Machine.cycles <- c;
    if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
    match eng.hooks.Interp.on_yieldpoint with
    | Some g -> g st env.frame bd.entry_block
    | None -> ()
  end
  else st.Machine.cycles <- c;
  exec eng bd env.stack env.locals env.frame st.Machine.cycles
    st.Machine.depth bd.entry_pc 0

(* Take the transfer stored in [slot]: charge the edge's layout
   penalty and the destination block's cost (mirroring the oracle's
   [take_edge] + [enter_block] sequence, including hook order), then
   continue at the destination's first slot.

   [cyc] is the live cycle counter, threaded through [exec] as a
   parameter so bare-mode dispatch never round-trips it through
   [st.Machine.cycles]; it is flushed at returns, at calls, and before
   any hook runs (hooks observe and may mutate [st.Machine.cycles], so
   hooked paths store first and reload after). *)
and transfer eng fl stack locals frame cyc depth slot sp =
  let w = Array.unsafe_get fl.fb slot in
  let row = Array.unsafe_get fl.frows slot in
  if not eng.hooked_mode then
    (* bare mode: no observer anywhere, so the edge charge and the
       block charge merge into one add on the register-resident
       counter and no hook is ever consulted; the block cost is the
       baked [fcost] (gen-validated, see [flat]) *)
    let c =
      cyc
      + Array.unsafe_get row ((w lsr 1) land 1)
      + Array.unsafe_get fl.fcost slot
    in
    if w land 1 = 0 then
      exec eng fl stack locals frame c depth (Array.unsafe_get fl.fa slot) sp
    else begin
      let st = eng.st in
      let c = c + eng.poll in
      if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
      exec eng fl stack locals frame c depth (Array.unsafe_get fl.fa slot) sp
    end
  else begin
    let st = eng.st in
    let dst = w lsr 22 in
    (match eng.hooks.Interp.on_edge with
    | None ->
        (* no observer between the edge charge and the block charge, so
           both merge into one add *)
        let c =
          cyc
          + Array.unsafe_get row ((w lsr 1) land 1)
          + Array.unsafe_get fl.fcm.Machine.block_cost dst
        in
        if w land 1 = 0 then st.Machine.cycles <- c
        else begin
          let c = c + eng.poll in
          st.Machine.cycles <- c;
          if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
          match eng.hooks.Interp.on_yieldpoint with
          | Some g -> g st frame dst
          | None -> ()
        end
    | Some f ->
        let idx = (w lsr 1) land 1 in
        st.Machine.cycles <- cyc + row.(idx);
        f st frame ~src:((w lsr 2) land 0xFFFFF) ~idx ~dst;
        let c = st.Machine.cycles + fl.fcm.Machine.block_cost.(dst) in
        if w land 1 = 0 then st.Machine.cycles <- c
        else begin
          let c = c + eng.poll in
          st.Machine.cycles <- c;
          if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
          match eng.hooks.Interp.on_yieldpoint with
          | Some g -> g st frame dst
          | None -> ()
        end);
    exec eng fl stack locals frame st.Machine.cycles depth
      (Array.unsafe_get fl.fa slot)
      sp
  end

(* The dispatch loop.  [sp] points at the next free stack slot, and
   [cyc] is the live cycle counter; both live in parameters
   (registers), not fields.  [cyc] is authoritative: it is flushed to
   [st.Machine.cycles] at returns and calls and whenever a hook could
   observe it, and reloaded after anything that may have charged or
   mutated cycles (a callee, a hook). *)
and exec eng fl stack locals frame cyc depth pc sp : int =
  match Array.unsafe_get fl.fcode pc with
  | CONST ->
      Array.unsafe_set stack sp (Array.unsafe_get fl.fa pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LOAD ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | STORE ->
      let sp = sp - 1 in
      Array.unsafe_set locals (Array.unsafe_get fl.fa pc)
        (Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | INC ->
      let l = Array.unsafe_get fl.fa pc in
      Array.unsafe_set locals l
        (Array.unsafe_get locals l + Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | ADD ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) + Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | SUB ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) - Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | MUL ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) * Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | DIV ->
      let sp = sp - 1 in
      let b = Array.unsafe_get stack sp in
      Array.unsafe_set stack (sp - 1)
        (if b = 0 then 0 else Array.unsafe_get stack (sp - 1) / b);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | REM ->
      let sp = sp - 1 in
      let b = Array.unsafe_get stack sp in
      Array.unsafe_set stack (sp - 1)
        (if b = 0 then 0 else Array.unsafe_get stack (sp - 1) mod b);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | AND ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) land Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | OR ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) lor Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | XOR ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) lxor Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | SHL ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) lsl (Array.unsafe_get stack sp land 63));
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | SHR ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (Array.unsafe_get stack (sp - 1) asr (Array.unsafe_get stack sp land 63));
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | EQ ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) = Array.unsafe_get stack sp then 1
         else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | NE ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) <> Array.unsafe_get stack sp then 1
         else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | LT ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) < Array.unsafe_get stack sp then 1
         else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | LE ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) <= Array.unsafe_get stack sp then 1
         else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | GT ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) > Array.unsafe_get stack sp then 1
         else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | GE ->
      let sp = sp - 1 in
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) >= Array.unsafe_get stack sp then 1
         else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | NEG ->
      Array.unsafe_set stack (sp - 1) (-Array.unsafe_get stack (sp - 1));
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | NOT ->
      Array.unsafe_set stack (sp - 1)
        (if Array.unsafe_get stack (sp - 1) = 0 then 1 else 0);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | DUP ->
      Array.unsafe_set stack sp (Array.unsafe_get stack (sp - 1));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | POP -> exec eng fl stack locals frame cyc depth (pc + 1) (sp - 1)
  | GLOAD ->
      Array.unsafe_set stack sp
        (Array.unsafe_get eng.globals (Array.unsafe_get fl.fa pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | GSTORE ->
      let sp = sp - 1 in
      Array.unsafe_set eng.globals (Array.unsafe_get fl.fa pc)
        (Array.unsafe_get stack sp);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | AGET ->
      let i = Array.unsafe_get stack (sp - 1) mod eng.heap_n in
      let i = if i < 0 then i + eng.heap_n else i in
      Array.unsafe_set stack (sp - 1) (Array.unsafe_get eng.heap i);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | ASET ->
      let sp = sp - 2 in
      let i = Array.unsafe_get stack sp mod eng.heap_n in
      let i = if i < 0 then i + eng.heap_n else i in
      Array.unsafe_set eng.heap i (Array.unsafe_get stack (sp + 1));
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | RAND ->
      Array.unsafe_set stack sp
        (Prng.below eng.prng (Array.unsafe_get fl.fa pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | CALL ->
      let st = eng.st in
      (* [depth] lives in a register; bare mode never writes
         [st.Machine.depth] mid-run (it is 1 for the whole invocation,
         as [invoke] left it, and nothing bare can observe it), so a
         call's depth bookkeeping costs no memory traffic.  The error
         path and hooked mode restore the oracle-visible field. *)
      if depth >= Interp.max_depth then begin
        st.Machine.cycles <- cyc;
        st.Machine.depth <- depth;
        overflow ()
      end;
      let cdepth = depth + 1 in
      let ic = Array.unsafe_get fl.fics (Array.unsafe_get fl.fa pc) in
      let argc = ic.iargc in
      let sp = sp - argc in
      if not eng.hooked_mode then begin
        let ccm = Array.unsafe_get st.Machine.methods ic.cidx in
        let bd =
          (* slot 0 carries a never-matching stamp in the megamorphic
             tier, so one compare covers the whole ladder; the stats
             match is [prep]/[count_hit] hand-inlined — without flambda
             nothing here inlines on its own *)
          if ic.g0 = ccm.Machine.gen then begin
            (match eng.stats with Some s -> Metrics.incr s.ic_hits | None -> ());
            ic.b0
          end
          else lookup_ic eng ic ccm
        in
        let envs = eng.envs in
        let cenv =
          if cdepth < Array.length envs then Array.unsafe_get envs cdepth
          else env_at eng cdepth
        in
        if Array.length cenv.locals < bd.fneed then grow cenv bd.fneed;
        let clocals = cenv.locals in
        for i = argc to bd.nlocals - 1 do
          Array.unsafe_set clocals i 0
        done;
        if argc = 1 then Array.unsafe_set clocals 0 (Array.unsafe_get stack sp)
        else if argc = 2 then begin
          Array.unsafe_set clocals 0 (Array.unsafe_get stack sp);
          Array.unsafe_set clocals 1 (Array.unsafe_get stack (sp + 1))
        end
        else
          for i = 0 to argc - 1 do
            Array.unsafe_set clocals i (Array.unsafe_get stack (sp + i))
          done;
        (* [run_flat]'s entry sequence, inlined minus the hook consult
           (bare mode has none): charge the entry block, poll if it
           carries a yieldpoint, then the baked second stage — the
           elided entry [Jmp]'s edge row and destination cost (a neutral
           no-op when the entry block was not elidable).  The charges
           stay in a register; the callee's return flushes them. *)
        let c = cyc + bd.entry_cost in
        let c =
          if bd.entry_yp then begin
            let c = c + eng.poll in
            if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
            c
          end
          else c
        in
        let c = c + Array.unsafe_get bd.entry_row 0 + bd.entry2_cost in
        let c =
          if bd.entry2_yp then begin
            let c = c + eng.poll in
            if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
            c
          end
          else c
        in
        let v =
          (* [frame] is only ever read by hook consults, so bare mode
             threads the caller's (already in a register) rather than
             loading [cenv.frame] *)
          exec eng bd cenv.stack clocals frame c cdepth bd.entry2_pc 0
        in
        Array.unsafe_set stack sp v;
        exec eng fl stack locals frame st.Machine.cycles depth (pc + 1) (sp + 1)
      end
      else begin
        st.Machine.cycles <- cyc;
        st.Machine.depth <- cdepth;
        let cframe = { Interp.fmeth = ic.cidx; fparent = fl.self; r = 0 } in
        (* on_entry runs before the inline cache is consulted: a lazy
           compiler hook may have just replaced the callee's body *)
        (match eng.hooks.Interp.on_entry with
        | Some f -> f st cframe
        | None -> ());
        let ccm = Array.unsafe_get st.Machine.methods ic.cidx in
        let bd =
          if ic.g0 = ccm.Machine.gen then begin
            count_hit eng;
            ic.b0
          end
          else lookup_ic eng ic ccm
        in
        let cenv = env_at eng cdepth in
        prep cenv bd argc;
        let clocals = cenv.locals in
        for i = 0 to argc - 1 do
          Array.unsafe_set clocals i (Array.unsafe_get stack (sp + i))
        done;
        cenv.frame <- cframe;
        let v = run_flat eng bd cenv in
        (match eng.hooks.Interp.on_exit with
        | Some f -> f st cframe
        | None -> ());
        st.Machine.depth <- depth;
        Array.unsafe_set stack sp v;
        exec eng fl stack locals frame st.Machine.cycles depth (pc + 1) (sp + 1)
      end
  | RET ->
      eng.st.Machine.cycles <- cyc;
      Array.unsafe_get stack (sp - 1)
  | JMP -> transfer eng fl stack locals frame cyc depth pc sp
  | BR ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp <> 0 then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | ARM -> assert false
  | LL_ADD ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        + Array.unsafe_get locals (Array.unsafe_get fl.fb pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LL_SUB ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        - Array.unsafe_get locals (Array.unsafe_get fl.fb pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LL_MUL ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        * Array.unsafe_get locals (Array.unsafe_get fl.fb pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LL_AND ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        land Array.unsafe_get locals (Array.unsafe_get fl.fb pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LL_OR ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        lor Array.unsafe_get locals (Array.unsafe_get fl.fb pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LL_XOR ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        lxor Array.unsafe_get locals (Array.unsafe_get fl.fb pc));
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LK_ADD ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        + Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LK_SUB ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        - Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LK_MUL ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        * Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LK_AND ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        land Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LK_OR ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        lor Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | LK_XOR ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        lxor Array.unsafe_get fl.fb pc);
      exec eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | KSTORE ->
      Array.unsafe_set locals (Array.unsafe_get fl.fb pc)
        (Array.unsafe_get fl.fa pc);
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | LSTORE ->
      Array.unsafe_set locals (Array.unsafe_get fl.fb pc)
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc));
      exec eng fl stack locals frame cyc depth (pc + 1) sp
  | LRET ->
      eng.st.Machine.cycles <- cyc;
      Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
  | CMPBR_EQ ->
      let sp = sp - 2 in
      if Array.unsafe_get stack sp = Array.unsafe_get stack (sp + 1) then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | CMPBR_NE ->
      let sp = sp - 2 in
      if Array.unsafe_get stack sp <> Array.unsafe_get stack (sp + 1) then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | CMPBR_LT ->
      let sp = sp - 2 in
      if Array.unsafe_get stack sp < Array.unsafe_get stack (sp + 1) then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | CMPBR_LE ->
      let sp = sp - 2 in
      if Array.unsafe_get stack sp <= Array.unsafe_get stack (sp + 1) then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | CMPBR_GT ->
      let sp = sp - 2 in
      if Array.unsafe_get stack sp > Array.unsafe_get stack (sp + 1) then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | CMPBR_GE ->
      let sp = sp - 2 in
      if Array.unsafe_get stack sp >= Array.unsafe_get stack (sp + 1) then
        transfer eng fl stack locals frame cyc depth pc sp
      else transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | LL_CMPBR_EQ ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        = Array.unsafe_get locals (Array.unsafe_get fl.fb pc)
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LL_CMPBR_NE ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        <> Array.unsafe_get locals (Array.unsafe_get fl.fb pc)
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LL_CMPBR_LT ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        < Array.unsafe_get locals (Array.unsafe_get fl.fb pc)
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LL_CMPBR_LE ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        <= Array.unsafe_get locals (Array.unsafe_get fl.fb pc)
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LL_CMPBR_GT ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        > Array.unsafe_get locals (Array.unsafe_get fl.fb pc)
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LL_CMPBR_GE ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        >= Array.unsafe_get locals (Array.unsafe_get fl.fb pc)
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LK_CMPBR_EQ ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        = Array.unsafe_get fl.fb pc
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LK_CMPBR_NE ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        <> Array.unsafe_get fl.fb pc
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LK_CMPBR_LT ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        < Array.unsafe_get fl.fb pc
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LK_CMPBR_LE ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        <= Array.unsafe_get fl.fb pc
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LK_CMPBR_GT ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        > Array.unsafe_get fl.fb pc
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LK_CMPBR_GE ->
      if
        Array.unsafe_get locals (Array.unsafe_get fl.fa pc)
        >= Array.unsafe_get fl.fb pc
      then transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | K_CMPBR_EQ ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp = Array.unsafe_get fl.fa pc then
        transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | K_CMPBR_NE ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp <> Array.unsafe_get fl.fa pc then
        transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | K_CMPBR_LT ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp < Array.unsafe_get fl.fa pc then
        transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | K_CMPBR_LE ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp <= Array.unsafe_get fl.fa pc then
        transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | K_CMPBR_GT ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp > Array.unsafe_get fl.fa pc then
        transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | K_CMPBR_GE ->
      let sp = sp - 1 in
      if Array.unsafe_get stack sp >= Array.unsafe_get fl.fa pc then
        transfer eng fl stack locals frame cyc depth (pc + 1) sp
      else transfer eng fl stack locals frame cyc depth (pc + 2) sp
  | LJMP ->
      Array.unsafe_set stack sp
        (Array.unsafe_get locals (Array.unsafe_get fl.fa pc));
      transfer eng fl stack locals frame cyc depth (pc + 1) (sp + 1)
  | STJMP ->
      let sp = sp - 1 in
      Array.unsafe_set locals (Array.unsafe_get fl.fa pc)
        (Array.unsafe_get stack sp);
      transfer eng fl stack locals frame cyc depth (pc + 1) sp
  | INCJMP ->
      let l = Array.unsafe_get fl.fa pc in
      Array.unsafe_set locals l
        (Array.unsafe_get locals l + Array.unsafe_get fl.fb pc);
      transfer eng fl stack locals frame cyc depth (pc + 1) sp

let ic_tiers eng name =
  let midx = Machine.index eng.st name in
  match eng.bodies.(midx) with
  | None -> []
  | Some b ->
      Array.to_list
        (Array.map
           (fun ic ->
             match ic.tier with 0 -> "mono" | 1 -> "poly" | _ -> "mega")
           b.fics)

(* Root invocation (the engine's equivalent of [Interp.call]): args come
   in a real array, and the hook prologue/epilogue runs here once per
   invocation. *)
let invoke eng midx (args : int array) =
  let st = eng.st in
  if st.Machine.depth >= Interp.max_depth then overflow ();
  let depth = st.Machine.depth + 1 in
  st.Machine.depth <- depth;
  let argc = Array.length args in
  if eng.hooked_mode then begin
    let frame = { Interp.fmeth = midx; fparent = -1; r = 0 } in
    (match eng.hooks.Interp.on_entry with Some f -> f st frame | None -> ());
    let bd = get_body eng midx in
    let env = env_at eng depth in
    prep env bd argc;
    Array.blit args 0 env.locals 0 argc;
    env.frame <- frame;
    let r = run_flat eng bd env in
    (match eng.hooks.Interp.on_exit with Some f -> f st frame | None -> ());
    st.Machine.depth <- st.Machine.depth - 1;
    r
  end
  else begin
    let bd = get_body eng midx in
    let env = env_at eng depth in
    prep env bd argc;
    Array.blit args 0 env.locals 0 argc;
    let r = run_flat eng bd env in
    st.Machine.depth <- st.Machine.depth - 1;
    r
  end

let call eng name args = invoke eng (Machine.index eng.st name) args
let run eng = call eng eng.st.Machine.program.Program.main [||]
