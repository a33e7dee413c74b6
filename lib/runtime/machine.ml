type cmeth = {
  meth : Method.t;
  cfg : Cfg.t;
  loops : Loops.t;
  max_stack : int;
  raw_block_cost : int array;
  call_target : int array array;
  mutable gen : int;
  mutable speed_percent : int;
  mutable block_cost : int array;
  mutable yieldpoint : bool array;
  mutable edge_extra : int array array;
}

type t = {
  program : Program.t;
  cost : Cost_model.t;
  globals : int array;
  heap : int array;
  prng : Prng.t;
  mutable cycles : int;
  mutable yield_flag : bool;
  mutable next_tick : int;
  mutable tick_pending : bool;
  mutable depth : int;
  methods : cmeth array;
  method_index : (string, int) Hashtbl.t;
}

let default_yieldpoints (m : Method.t) cfg loops =
  let n = Cfg.n_blocks cfg in
  if m.uninterruptible then Array.make n false
  else begin
    let yp = Array.make n false in
    yp.(Cfg.entry cfg) <- true;
    yp.(Cfg.exit_ cfg) <- true;
    List.iter (fun h -> yp.(h) <- true) (Loops.headers loops);
    yp
  end

(* Compiled-form generation stamps.  A stamp is assigned whenever a
   compiled form is (re)built or its code quality changes, so execution
   engines can cache per-method generated code (and call-site inline
   caches) and validate it with a single integer compare. *)
(* Atomic so parallel domains running independent machines never hand
   out duplicate stamps: a stamp's value never leaks into any
   measurement, only its uniqueness matters (a duplicate could falsely
   validate a stale inline cache). *)
let gen_counter = Atomic.make 0
let next_gen () = Atomic.fetch_and_add gen_counter 1 + 1

let compile_method ?arities cost program (m : Method.t) =
  let cfg = To_cfg.cfg m in
  let loops = Loops.compute cfg in
  let raw_block_cost =
    Array.map
      (fun (blk : Method.block) ->
        Array.fold_left
          (fun acc ins -> acc + Cost_model.instr_cost cost ins)
          cost.Cost_model.block_dispatch blk.body)
      m.blocks
  in
  (* call sites resolved once per compiled form: -1 marks non-call slots *)
  let call_target =
    Array.map
      (fun (blk : Method.block) ->
        Array.map
          (function
            | Instr.Call (callee, _) -> Program.index program callee
            | _ -> -1)
          blk.body)
      m.blocks
  in
  let n = Array.length m.blocks in
  {
    meth = m;
    cfg;
    loops;
    max_stack = Verify.max_stack ?arities program m;
    raw_block_cost;
    call_target;
    gen = next_gen ();
    speed_percent = 100;
    block_cost = Array.copy raw_block_cost;
    yieldpoint = default_yieldpoints m cfg loops;
    edge_extra = Array.init n (fun _ -> Array.make 2 0);
  }

let create ?(cost = Cost_model.default) ?tick_offset ~seed program =
  let arities = Verify.arities program in
  let methods =
    Array.map (compile_method ~arities cost program) program.Program.methods
  in
  let first_tick =
    match tick_offset with Some t -> t | None -> cost.Cost_model.tick_period
  in
  let method_index = Hashtbl.create 32 in
  Array.iteri
    (fun i (m : Method.t) -> Hashtbl.replace method_index m.name i)
    program.Program.methods;
  {
    program;
    cost;
    globals = Array.make (max 1 program.Program.n_globals) 0;
    heap = Array.make program.Program.heap_size 0;
    prng = Prng.create ~seed;
    cycles = 0;
    yield_flag = false;
    next_tick = first_tick;
    tick_pending = false;
    depth = 0;
    methods;
    method_index;
  }

let index t name =
  match Hashtbl.find_opt t.method_index name with
  | Some i -> i
  | None -> raise Not_found

let cmeth t i = t.methods.(i)

let recompile t i ?(no_yieldpoint = [||]) meth =
  let cm = compile_method t.cost t.program meth in
  Array.iteri
    (fun b suppress -> if suppress then cm.yieldpoint.(b) <- false)
    no_yieldpoint;
  (* frames still running the superseded form must see it as changed:
     the hook layers' sites now describe the new body *)
  t.methods.(i).gen <- next_gen ();
  t.methods.(i) <- cm

let set_speed t i ~percent =
  let cm = t.methods.(i) in
  cm.speed_percent <- percent;
  cm.block_cost <-
    Array.map (fun c -> max 1 (c * percent / 100)) cm.raw_block_cost;
  cm.gen <- next_gen ()

let clear_edge_extra t i =
  let cm = t.methods.(i) in
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) cm.edge_extra

let add_cycles t c = t.cycles <- t.cycles + c

let rearm_timer t =
  t.yield_flag <- false;
  t.next_tick <- t.cycles + t.cost.Cost_model.tick_period
