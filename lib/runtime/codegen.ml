(* Flat-code execution engine (engine v2).

   Each compiled form is translated once into flat preallocated arrays:
   an int-coded opcode array [fcode] and parallel operand arrays [fa] /
   [fb] (plus captured layout-penalty rows [frows] and call-site inline
   caches [fics]).  Execution is one tail-recursive loop over a program
   counter; a block transfer is a fused virtual-cycle add followed by a
   jump to the successor's first slot.  Superinstructions (adjacent
   pairs/triples that {!Fusion} plans in every block without a call)
   collapse several slots into one dispatch; each call site caches one
   callee translation keyed on {!Machine.cmeth.gen}.

   The interpreter ([Interp]) is the semantic oracle: the flat code
   performs exactly the oracle's virtual-cycle reads and writes, in the
   same order.  Layout penalties are read through the captured
   [edge_extra] rows at execution time, because [Layout.apply] mutates
   them in place.  Fusion can only merge work within one block, and
   cycles are charged per block, so fused code charges, observes and
   produces exactly what unfused code does.

   Hooks are sparse.  When it translates a compiled form, the engine
   lists what each layer of the composition does at each transfer, in
   composition order: a layer's [on_edge] where its [edge_site] says it
   acts, its [on_yieldpoint] at every yieldpoint, and for a path layer
   ([Interp.layer.path]) the steps of its plan, lowered — register adds
   and resets, and path ends that call [on_path_end] only where it can
   act.  A transfer with no work, or whose only work is one path
   layer's [r += add] and at most one path end at its yieldpoint, takes
   the fast path in hooked and bare runs alike: cycles stay in a
   register, the destination's cost (plus the add's [r_update]) is the
   one baked at translation, the poll and timer flag are handled inline
   ([on_tick] runs only when the tick is due), and the register update
   is one store.  Any other transfer is observed: it charges through
   the compiled form and runs its list, calling closures and lowered
   steps in the oracle's order with every charge flushed before a call.
   The baked costs, the marks and the lowered steps are exact only
   while the frame's compiled form is current: [Machine.set_speed] and
   [Machine.recompile] bump the generation, and a layer's sites and
   plans change only together with such a bump.  Only a hook can bump
   it mid-run, so after every hook and every hooked call a frame checks
   its form, and a frame whose form changed under it runs the rest of
   that hook point through the layers' closures and finishes on a copy
   whose every transfer calls every layer's closures ([current]); a
   path layer's closures act on the register its lowered steps used. *)

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

(* One path layer's lowered work at a hook point ([Interp.path_layer]):
   [r += add] (0 = none); for a path end, the count charge and
   [on_path_end] where it can act; then [r = reset] (-1 = none).  [pre]
   is every cycle charged before the path end (the add's [r_update] and
   the count charge), [post] the reset's [r_update].  [reg], [live] and
   [on_path_end] are the layer's. *)
type step = {
  li : int;  (* the layer's position in the composition *)
  reg : int array ref;
  live : bool ref option;
  on_path_end : Machine.t -> Interp.frame -> path_id:int -> unit;
  add : int;
  ends : bool;
  reset : int;
  pre : int;
  post : int;
}

(* One layer's work at a hook point of a translation, in composition
   order: a layer's closure ([on_edge] or [on_yieldpoint]) with the
   layer's position, or a path layer's lowered step. *)
type 'f item = Call of int * 'f | Step of step

type edge_fn = Machine.t -> Interp.frame -> src:int -> idx:int -> dst:int -> unit
type yield_fn = Machine.t -> Interp.frame -> Cfg.block_id -> unit

(* A method body translated to flat code.  Transfer slots pack the edge
   descriptor into one word in [fb]: bit 0 = destination has a
   yieldpoint, bit 1 = successor index (0 taken / 1 not-taken), bit 2 =
   observed (take the hooked path), bit 3 = the edge's only work is one
   path layer's [r += add] ([fstep]), bit 4 = the destination's
   yieldpoint's only work is one path layer's path end ([yend]), bits
   5..24 = source block, bits 25.. = destination block; [fa] holds the
   destination's first slot and [frows] the source's captured
   [edge_extra] row (mutated in place by [Layout.apply], so reads see
   the current penalties, as the oracle does).  [fcost] bakes the
   destination block's cost per transfer slot, plus the [r_update] of a
   bit-3 add: [Machine.set_speed] is the only mutator of [block_cost]
   and always bumps [gen], so baked costs are exact while
   [bgen = fcm.gen].  The fast path relies on that; the hooked path
   reads [block_cost] through [fcm], since a frame whose form went
   stale finishes there.  [fedge] (per slot) and [fyield] (per block)
   are the items of an observed transfer's edge and of a yieldpoint. *)
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
  fstep : step array;  (* per transfer slot: the bit-3 add *)
  fedge : edge_fn item array array;  (* per transfer slot, observed ones only *)
  fyield : yield_fn item array array;  (* per block: its yieldpoint's items *)
  yend : step array;  (* per block: the bit-4 path end *)
  (* each of the four is [[||]] in a translation where it would hold
     nothing *)
  fics : ic array;
}

(* Call-site inline cache: the callee's translation [b0] and the
   generation stamp it was made from [g0].  A site's callee is fixed
   ([Instr.Call] names it) and stamps are never reused, so an older
   translation can never match again: one entry is all a site can use,
   and a miss refills it. *)
and ic = {
  cidx : int;  (* callee method index *)
  iargc : int;
  mutable g0 : int;
  mutable b0 : flat;
}

let observed = 4
let ladd = 8
let lend = 16
let src_of w = (w lsr 5) land 0xFFFFF
let dst_of w = w lsr 25

(* [bgen] of a stale frame's copy: every transfer observed, never
   cached, never current *)
let stale_gen = -1

(* Engine-level telemetry counters; host-side only, absent entirely
   when the engine was created without a sink. *)
type tstats = {
  ic_hits : Metrics.counter;
  ic_misses : Metrics.counter;
  translations : Metrics.counter;
  fuse_blocks : Metrics.counter;
  fuse_sites : Metrics.counter;
}

type t = {
  st : Machine.t;
  poll : int;
  heap : int array;
  heap_n : int;
  globals : int array;
  prng : Prng.t;
  fuse : bool;  (* compile superinstructions *)
  mutable layers : Interp.layer array;  (* the hooks, in composition order *)
  (* every layer's [on_entry], [on_exit] and [on_tick] in order, derived
     by [set_hooks] *)
  mutable on_entry : (Machine.t -> Interp.frame -> unit) option;
  mutable on_exit : (Machine.t -> Interp.frame -> unit) option;
  mutable on_tick : (Machine.t -> Interp.frame -> unit) option;
  mutable hooked_mode : bool;
  bodies : flat option array;
  invalid : flat;  (* never-matching cache filler for fresh ICs *)
  mutable envs : env array;  (* frame pool, indexed by call depth, grown by [env_at] *)
  stats : tstats option;
}

let dummy_frame = { Interp.fmeth = -1; fparent = -1; r = 0 }
let no_row = [| 0; 0 |]

let no_step =
  {
    li = -1;
    reg = ref [||];
    live = None;
    on_path_end = (fun _ _ ~path_id:_ -> ());
    add = 0;
    ends = false;
    reset = -1;
    pre = 0;
    post = 0;
  }

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
    fstep = [||];
    fedge = [||];
    fyield = [||];
    yend = [||];
    fics = [||];
  }

let fresh_env () =
  { locals = Array.make 8 0; stack = Array.make 8 0; frame = dummy_frame }

(* The layers' closures at one hook point as one closure, built once
   per [set_hooks]: a hooked call or tick walks no layers and allocates
   nothing. *)
let seq get layers =
  Array.fold_right
    (fun l k ->
      match (get l, k) with
      | None, k -> k
      | Some f, None -> Some f
      | Some f, Some g ->
          Some
            (fun st frame ->
              f st frame;
              g st frame))
    layers None

let set_hooks eng hooks =
  let layers = Array.of_list hooks in
  eng.layers <- layers;
  eng.on_entry <- seq (fun l -> l.Interp.on_entry) layers;
  eng.on_exit <- seq (fun l -> l.Interp.on_exit) layers;
  eng.on_tick <- seq (fun l -> l.Interp.on_tick) layers;
  eng.hooked_mode <- Array.length layers > 0;
  (* translations lower their transfers' work under the hooks they were
     made with; their inline caches go with them *)
  Array.fill eng.bodies 0 (Array.length eng.bodies) None

let create ?telemetry ?(fuse = true) ?(hooks = Interp.no_hooks) st =
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
          }
  in
  let eng =
    {
      st;
      poll = st.Machine.cost.Cost_model.yieldpoint_poll;
      heap = st.Machine.heap;
      heap_n = Array.length st.Machine.heap;
      globals = st.Machine.globals;
      prng = st.Machine.prng;
      fuse;
      layers = [||];
      on_entry = None;
      on_exit = None;
      on_tick = None;
      hooked_mode = false;
      bodies = Array.make n None;
      invalid = invalid_flat st;
      envs = Array.init 4 (fun _ -> fresh_env ());
      stats;
    }
  in
  set_hooks eng hooks;
  eng

(* The fusion table a translation of the method's current form compiles *)
let fusion_witness eng midx =
  let cm = eng.st.Machine.methods.(midx) in
  if eng.fuse then Fusion.plan ~gen:cm.Machine.gen cm.Machine.meth
  else { Fusion.fgen = cm.Machine.gen; fentries = [] }

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

let is_transfer = function
  | JMP | BR | ARM | CMPBR_EQ | CMPBR_NE | CMPBR_LT | CMPBR_LE | CMPBR_GT
  | CMPBR_GE ->
      true
  | _ -> false

(* The copy a frame finishes on once its compiled form changed under it
   (a hook ran [set_speed] or [recompile] on its method): every transfer
   takes the hooked path and calls every layer's closures, which read
   the live plans, as under the oracle. *)
let demote fl =
  let fb = Array.copy fl.fb in
  Array.iteri
    (fun pc op -> if is_transfer op then fb.(pc) <- fb.(pc) lor observed)
    fl.fcode;
  { fl with bgen = stale_gen; fb }

(* Called after anything that may have run a hook: the frame's flat code
   if its form is still current, else its demoted copy. *)
let current fl =
  if fl.bgen = fl.fcm.Machine.gen || fl.bgen = stale_gen then fl else demote fl

(* The live form of a frame's translation is still the one it was
   translated from, so its lowered steps and marks hold. *)
let fresh fl = fl.bgen = fl.fcm.Machine.gen

(* whether the step's [on_path_end] can act now ([Interp.path_layer]) *)
let can_act st s =
  match s.live with
  | Some live -> st.Machine.tick_pending || !live
  | None -> true

(* A lowered step, charged in [st.cycles] as [Profile_hooks]' closures
   charge it: [pre] lands before [on_path_end], [post] after. *)
let run_step eng frame depth s =
  let st = eng.st in
  let reg = !(s.reg) in
  let r = reg.(depth) + s.add in
  reg.(depth) <- r;
  st.Machine.cycles <- st.Machine.cycles + s.pre;
  if s.ends && can_act st s then s.on_path_end st frame ~path_id:r;
  if s.reset >= 0 then !(s.reg).(depth) <- s.reset;
  st.Machine.cycles <- st.Machine.cycles + s.post

(* The closures of the layers from [from] on, as the oracle runs them:
   a stale frame's hook point from layer 0, or the rest of one whose
   form changed at layer [from - 1]. *)
let edge_closures eng frame ~src ~idx ~dst from =
  for k = from to Array.length eng.layers - 1 do
    match eng.layers.(k).Interp.on_edge with
    | Some f -> f eng.st frame ~src ~idx ~dst
    | None -> ()
  done

let yield_closures eng frame blk from =
  for k = from to Array.length eng.layers - 1 do
    match eng.layers.(k).Interp.on_yieldpoint with
    | Some f -> f eng.st frame blk
    | None -> ()
  done

(* A hook point's items in composition order.  Should one of them
   change the frame's form (a closure or [on_path_end] bumped its
   method's generation), the layers after it run as closures over the
   live plans, which is what the oracle does. *)
let edge_items eng fl frame depth items ~src ~idx ~dst =
  let n = Array.length items and i = ref 0 in
  while !i < n do
    let li =
      match Array.unsafe_get items !i with
      | Call (li, f) ->
          f eng.st frame ~src ~idx ~dst;
          li
      | Step s ->
          run_step eng frame depth s;
          s.li
    in
    if fresh fl then incr i
    else begin
      edge_closures eng frame ~src ~idx ~dst (li + 1);
      i := n
    end
  done

let yield_items eng fl frame depth items blk =
  let n = Array.length items and i = ref 0 in
  while !i < n do
    let li =
      match Array.unsafe_get items !i with
      | Call (li, f) ->
          f eng.st frame blk;
          li
      | Step s ->
          run_step eng frame depth s;
          s.li
    in
    if fresh fl then incr i
    else begin
      yield_closures eng frame blk (li + 1);
      i := n
    end
  done

(* The oracle's yieldpoint once the poll is charged and flushed: raise
   the timer flag when the tick is due, run [on_tick] if the flag is
   set, then the block's yieldpoint items.  In a frame whose form is no
   longer the one translated, every layer's [on_yieldpoint] does that
   work over the live plans. *)
let yield_point eng fl frame depth c blk =
  let st = eng.st in
  if c >= st.Machine.next_tick then st.Machine.yield_flag <- true;
  (if st.Machine.yield_flag then
     match eng.on_tick with Some f -> f st frame | None -> ());
  if fresh fl then begin
    if blk < Array.length fl.fyield then
      yield_items eng fl frame depth (Array.unsafe_get fl.fyield blk) blk
  end
  else yield_closures eng frame blk 0

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
  let witness = fusion_witness eng midx in
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
  (* the slots that carry a lowered add, and the observed slots' items;
     few, so kept sparse until the code's length is known *)
  let adds = ref [] and observed_items = ref [] in
  (* what each layer does at each hook point, in composition order: a
     path layer's plan becomes lowered steps, any other layer's closure
     an item where it acts ([edge_site]; [on_yieldpoint] at every
     yieldpoint) *)
  let layers = eng.layers in
  let cost = eng.st.Machine.cost in
  let step li (pl : Interp.path_layer) ~add ~ends ~reset =
    Step
      {
        li;
        reg = pl.Interp.reg;
        live = pl.Interp.live;
        on_path_end = pl.Interp.on_path_end;
        add;
        ends;
        reset;
        pre =
          (if add <> 0 then cost.Cost_model.r_update else 0)
          + if ends then pl.Interp.count_charge cost else 0;
        post = (if reset >= 0 then cost.Cost_model.r_update else 0);
      }
  in
  let items_of f =
    let acc = ref [] in
    for li = Array.length layers - 1 downto 0 do
      match f li layers.(li) with Some it -> acc := it :: !acc | None -> ()
    done;
    Array.of_list !acc
  in
  let edge_items ~src ~idx =
    items_of (fun li (l : Interp.layer) ->
        match (l.Interp.path, l.Interp.on_edge, l.Interp.edge_site) with
        | Some pl, _, _ -> (
            match pl.Interp.edge_step midx ~src ~idx with
            | Some { Interp.add; count; reset } ->
                Some (step li pl ~add ~ends:count ~reset)
            | None -> None)
        | None, None, _ -> None
        | None, Some f, None -> Some (Call (li, f))
        | None, Some f, Some site ->
            if site midx ~src ~idx then Some (Call (li, f)) else None)
  in
  let fyield =
    Array.init nblocks (fun b ->
        if not cm.Machine.yieldpoint.(b) then [||]
        else
          items_of (fun li (l : Interp.layer) ->
              match (l.Interp.path, l.Interp.on_yieldpoint) with
              | Some pl, _ -> (
                  match pl.Interp.block_event midx b with
                  | Some { Interp.badd; breset } ->
                      Some (step li pl ~add:badd ~ends:true ~reset:breset)
                  | None -> None)
              | None, Some f -> Some (Call (li, f))
              | None, None -> None))
  in
  let push op ~ax ~bx =
    code.(!pc) <- op;
    opa.(!pc) <- ax;
    opb.(!pc) <- bx;
    incr pc
  in
  (* a transfer slot: [fa] patched to the destination's first slot once
     every block's position is known.  A transfer whose only work is
     one path layer's register add on the edge and one path layer's
     path end at the destination stays on the fast path; any other
     work marks it observed. *)
  let push_transfer op ~src ~idx dst =
    let yp = cm.Machine.yieldpoint.(dst) in
    let e = edge_items ~src ~idx in
    let fast_end =
      match fyield.(dst) with [||] -> Some 0 | [| Step _ |] -> Some lend | _ -> None
    in
    let mark, add =
      match (e, fast_end) with
      | [||], Some m -> (m, no_step)
      | [| Step ({ ends = false; reset = -1; _ } as s) |], Some m -> (ladd lor m, s)
      | _ -> (observed, no_step)
    in
    code.(!pc) <- op;
    opb.(!pc) <-
      mark lor (if yp then 1 else 0) lor (idx lsl 1) lor (src lsl 5) lor (dst lsl 25);
    rows.(!pc) <- cm.Machine.edge_extra.(src);
    if add != no_step then adds := (!pc, add) :: !adds;
    if mark = observed && Array.length e > 0 then
      observed_items := (!pc, e) :: !observed_items;
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
        let ic = { cidx = targets.(i); iargc = argc; g0 = min_int; b0 = eng.invalid } in
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
  (* a translation keeps these only where they hold something: a run's
     translations live as long as its driver *)
  let sparse n empty = function
    | [] -> [||]
    | l ->
        let a = Array.make n empty in
        List.iter (fun (i, x) -> a.(i) <- x) l;
        a
  in
  let fstep = sparse len no_step !adds in
  let fedge = sparse len [||] !observed_items in
  let fyield = if Array.for_all (fun y -> y == [||]) fyield then [||] else fyield in
  let yend =
    sparse nblocks no_step
      (List.filter_map
         (fun b -> match fyield.(b) with [| Step s |] -> Some (b, s) | _ -> None)
         (List.init (Array.length fyield) Fun.id))
  in
  let fcost = Array.make len 0 in
  List.iter
    (fun s ->
      let dst = dst_of opb.(s) in
      opa.(s) <- block_pc.(dst);
      fcost.(s) <-
        (cm.Machine.block_cost.(dst)
        + if Array.length fstep > 0 then fstep.(s).pre else 0))
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
    fcost;
    frows = rows;
    fstep;
    fedge;
    fyield;
    yend;
    fics = Array.of_list (List.rev !ic_acc);
  }

(* An inline-cache miss (the hit is inlined at the call site): refill
   the site's entry with the callee's current translation. *)
and ic_miss eng ic (ccm : Machine.cmeth) =
  count_miss eng;
  let bd = get_body eng ic.cidx in
  ic.g0 <- ccm.Machine.gen;
  ic.b0 <- bd;
  bd

(* Enter a translated body: charge the entry block like the oracle's
   [enter_block] (cost, then the poll and the yieldpoint if the entry
   carries one), and start the dispatch loop. *)
and run_flat eng bd env =
  let st = eng.st in
  let c =
    st.Machine.cycles
    + Array.unsafe_get bd.fcm.Machine.block_cost bd.entry_block
  in
  if bd.entry_yp then begin
    let c = c + eng.poll in
    st.Machine.cycles <- c;
    yield_point eng bd env.frame st.Machine.depth c bd.entry_block;
    exec eng (current bd) env.stack env.locals env.frame st.Machine.cycles
      st.Machine.depth bd.entry_pc 0
  end
  else begin
    st.Machine.cycles <- c;
    exec eng bd env.stack env.locals env.frame c st.Machine.depth bd.entry_pc
      0
  end

(* Take the transfer stored in [slot]: charge the edge's layout
   penalty and the destination block's cost (mirroring the oracle's
   [take_edge] + [enter_block] sequence, including hook order), then
   continue at the destination's first slot.

   [cyc] is the live cycle counter, threaded through [exec] as a
   parameter so dispatch never round-trips it through
   [st.Machine.cycles]; it is flushed at returns, at hooked calls, and
   before any hook runs (hooks observe and may mutate
   [st.Machine.cycles], so hooked paths store first and reload after).

   A transfer that is not observed has no observer between the edge
   charge and the block charge, so both merge into one add of the baked
   cost (which includes a lowered add's [r_update]); one test of the
   observed, yieldpoint and add bits picks out the commonest case, a
   plain transfer into a block without a yieldpoint. *)
and transfer eng fl stack locals frame cyc depth slot sp =
  let w = Array.unsafe_get fl.fb slot in
  if w land (observed lor ladd lor 1) = 0 then
    exec eng fl stack locals frame
      (cyc
      + Array.unsafe_get (Array.unsafe_get fl.frows slot) ((w lsr 1) land 1)
      + Array.unsafe_get fl.fcost slot)
      depth
      (Array.unsafe_get fl.fa slot)
      sp
  else if w land (observed lor ladd lor lend) = 0 then begin
    let st = eng.st in
    let c =
      cyc
      + Array.unsafe_get (Array.unsafe_get fl.frows slot) ((w lsr 1) land 1)
      + Array.unsafe_get fl.fcost slot
      + eng.poll
    in
    if c < st.Machine.next_tick then
      exec eng fl stack locals frame c depth (Array.unsafe_get fl.fa slot) sp
    else tick eng fl stack locals frame c depth slot sp w
  end
  else if w land observed = 0 then
    lowered_transfer eng fl stack locals frame cyc depth slot sp w
  else observed_transfer eng fl stack locals frame cyc depth slot sp

(* A transfer whose work is lowered: one path layer's [r += add] on the
   edge (its [r_update] baked into [fcost]), then, into a yieldpoint,
   the poll and at most one path layer's path end. *)
and lowered_transfer eng fl stack locals frame cyc depth slot sp w =
  if w land ladd <> 0 then begin
    let s = Array.unsafe_get fl.fstep slot in
    let reg = !(s.reg) in
    reg.(depth) <- reg.(depth) + s.add
  end;
  let c =
    cyc
    + Array.unsafe_get (Array.unsafe_get fl.frows slot) ((w lsr 1) land 1)
    + Array.unsafe_get fl.fcost slot
  in
  if w land 1 = 0 then
    exec eng fl stack locals frame c depth (Array.unsafe_get fl.fa slot) sp
  else
    let c = c + eng.poll in
    if c >= eng.st.Machine.next_tick then
      tick eng fl stack locals frame c depth slot sp w
    else if w land lend = 0 then
      exec eng fl stack locals frame c depth (Array.unsafe_get fl.fa slot) sp
    else
      path_end eng fl stack locals frame c depth (Array.unsafe_get fl.fa slot)
        sp (dst_of w)

(* A poll on the fast path that finds the tick due.  A plain poll
   raises the flag exactly when the tick is due: the flag is set only
   by a poll that finds [cycles >= next_tick] and cleared only by
   [Machine.rearm_timer], which moves [next_tick] past the current
   cycle, and cycles never decrease — so at a poll the flag is set iff
   the tick is due, and [on_tick] runs then, as in the oracle.  Should
   the tick change this frame's form, the destination's yieldpoint runs
   every layer's closure. *)
and tick eng fl stack locals frame c depth slot sp w =
  let st = eng.st in
  let pc = Array.unsafe_get fl.fa slot in
  st.Machine.yield_flag <- true;
  match eng.on_tick with
  | None ->
      if w land lend = 0 then exec eng fl stack locals frame c depth pc sp
      else path_end eng fl stack locals frame c depth pc sp (dst_of w)
  | Some f ->
      st.Machine.cycles <- c;
      f st frame;
      if fresh fl then
        if w land lend = 0 then
          exec eng fl stack locals frame st.Machine.cycles depth pc sp
        else
          path_end eng fl stack locals frame st.Machine.cycles depth pc sp
            (dst_of w)
      else begin
        yield_closures eng frame (dst_of w) 0;
        exec eng (current fl) stack locals frame st.Machine.cycles depth pc sp
      end

(* One path layer's path end at block [blk]'s yieldpoint, lowered: the
   register and every charge stay in registers unless [on_path_end] can
   act, in which case it sees the cycles the oracle shows it. *)
and path_end eng fl stack locals frame c depth pc sp blk =
  let s = Array.unsafe_get fl.yend blk in
  let reg = !(s.reg) in
  let r = reg.(depth) + s.add in
  let st = eng.st in
  if not (can_act st s) then begin
    reg.(depth) <- (if s.reset >= 0 then s.reset else r);
    exec eng fl stack locals frame (c + s.pre + s.post) depth pc sp
  end
  else begin
    reg.(depth) <- r;
    st.Machine.cycles <- c + s.pre;
    s.on_path_end st frame ~path_id:r;
    if s.reset >= 0 then !(s.reg).(depth) <- s.reset;
    st.Machine.cycles <- st.Machine.cycles + s.post;
    if not (fresh fl) then yield_closures eng frame blk (s.li + 1);
    exec eng (current fl) stack locals frame st.Machine.cycles depth pc sp
  end

(* The hooked path: the oracle's sequence with every charge flushed
   before the hook that may observe it.  A translation still current
   runs its items; a frame whose form went stale calls every layer's
   closures. *)
and observed_transfer eng fl stack locals frame cyc depth slot sp =
  let st = eng.st in
  let w = Array.unsafe_get fl.fb slot in
  let idx = (w lsr 1) land 1 in
  let dst = dst_of w in
  st.Machine.cycles <- cyc + (Array.unsafe_get fl.frows slot).(idx);
  let items =
    if slot < Array.length fl.fedge then Array.unsafe_get fl.fedge slot
    else [||]
  in
  (if not (fresh fl) then edge_closures eng frame ~src:(src_of w) ~idx ~dst 0
   else if Array.length items > 0 then
     edge_items eng fl frame depth items ~src:(src_of w) ~idx ~dst);
  let c = st.Machine.cycles + fl.fcm.Machine.block_cost.(dst) in
  st.Machine.cycles <- c;
  if w land 1 <> 0 then begin
    let c = c + eng.poll in
    st.Machine.cycles <- c;
    yield_point eng fl frame depth c dst
  end;
  exec eng (current fl) stack locals frame st.Machine.cycles depth
    (Array.unsafe_get fl.fa slot)
    sp

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
          (* the stats match is [count_hit] hand-inlined — without
             flambda nothing here inlines on its own *)
          if ic.g0 = ccm.Machine.gen then begin
            (match eng.stats with Some s -> Metrics.incr s.ic_hits | None -> ());
            ic.b0
          end
          else ic_miss eng ic ccm
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
        (match eng.on_entry with Some f -> f st cframe | None -> ());
        let ccm = Array.unsafe_get st.Machine.methods ic.cidx in
        let bd =
          if ic.g0 = ccm.Machine.gen then begin
            count_hit eng;
            ic.b0
          end
          else ic_miss eng ic ccm
        in
        let cenv = env_at eng cdepth in
        prep cenv bd argc;
        let clocals = cenv.locals in
        for i = 0 to argc - 1 do
          Array.unsafe_set clocals i (Array.unsafe_get stack (sp + i))
        done;
        cenv.frame <- cframe;
        let v = run_flat eng bd cenv in
        (match eng.on_exit with Some f -> f st cframe | None -> ());
        st.Machine.depth <- depth;
        Array.unsafe_set stack sp v;
        (* the callee's hooks may have recompiled this frame's method *)
        exec eng (current fl) stack locals frame st.Machine.cycles depth
          (pc + 1) (sp + 1)
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
    (match eng.on_entry with Some f -> f st frame | None -> ());
    let bd = get_body eng midx in
    let env = env_at eng depth in
    prep env bd argc;
    Array.blit args 0 env.locals 0 argc;
    env.frame <- frame;
    let r = run_flat eng bd env in
    (match eng.on_exit with Some f -> f st frame | None -> ());
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
