type frame = { fmeth : int; fparent : int }
type edge_step = { add : int; count : bool; reset : int }
type block_event = { badd : int; breset : int }

type path_layer = {
  edge_step : int -> src:int -> idx:int -> edge_step option;
  block_event : int -> Cfg.block_id -> block_event option;
  reg : int array ref;
  count_charge : Cost_model.t -> int;
  live : bool ref option;
  on_path_end : Machine.t -> frame -> path_id:int -> unit;
}

type layer = {
  on_entry : (Machine.t -> frame -> unit) option;
  on_exit : (Machine.t -> frame -> unit) option;
  on_edge : (Machine.t -> frame -> src:int -> idx:int -> dst:int -> unit) option;
  edge_site : (int -> src:int -> idx:int -> bool) option;
  on_tick : (Machine.t -> frame -> unit) option;
  on_yieldpoint : (Machine.t -> frame -> Cfg.block_id -> unit) option;
  path : path_layer option;
}

type hooks = layer list

let layer =
  {
    on_entry = None;
    on_exit = None;
    on_edge = None;
    edge_site = None;
    on_tick = None;
    on_yieldpoint = None;
    path = None;
  }

let no_hooks = []

(* Each hook point's callbacks in composition order, taken from the
   layers once per [call]: a hook point runs only the callbacks it has,
   and one without any costs a match. *)
type points = {
  entries : (Machine.t -> frame -> unit) list;
  exits : (Machine.t -> frame -> unit) list;
  ticks : (Machine.t -> frame -> unit) list;
  yieldpoints : (Machine.t -> frame -> Cfg.block_id -> unit) list;
  edges : (Machine.t -> frame -> src:int -> idx:int -> dst:int -> unit) list;
}

let points hooks =
  let get f = List.filter_map f hooks in
  {
    entries = get (fun l -> l.on_entry);
    exits = get (fun l -> l.on_exit);
    ticks = get (fun l -> l.on_tick);
    yieldpoints = get (fun l -> l.on_yieldpoint);
    edges = get (fun l -> l.on_edge);
  }

let rec each st frame = function
  | [] -> ()
  | f :: fs ->
      f st frame;
      each st frame fs

let rec each_yp st frame blk = function
  | [] -> ()
  | f :: fs ->
      f st frame blk;
      each_yp st frame blk fs

let rec each_edge st frame ~src ~idx ~dst = function
  | [] -> ()
  | f :: fs ->
      f st frame ~src ~idx ~dst;
      each_edge st frame ~src ~idx ~dst fs

exception Runtime_error of string

let max_depth = 100_000

let heap_index heap i =
  let n = Array.length heap in
  let m = i mod n in
  if m < 0 then m + n else m

(* [src.(pos .. pos+argc-1)] are the arguments: callers pass a slice of
   their operand stack directly, so a call allocates no argument array. *)
let rec exec_method p (st : Machine.t) ~parent midx (src : int array) pos
    argc =
  if st.depth >= max_depth then raise (Runtime_error "call stack overflow");
  st.depth <- st.depth + 1;
  let frame = { fmeth = midx; fparent = parent } in
  (* on_entry runs before the compiled form is fetched: a lazy compiler
     hook may install or replace the method body and this invocation will
     execute the fresh code, as in a JIT compiling at first invocation *)
  (match p.entries with [] -> () | fs -> each st frame fs);
  let cm = st.methods.(midx) in
  let m = cm.meth in
  let locals = Array.make (max 1 m.nlocals) 0 in
  Array.blit src pos locals 0 argc;
  let stack = Array.make (cm.max_stack + 1) 0 in
  let sp = ref 0 in
  let enter_block b =
    st.cycles <- st.cycles + cm.block_cost.(b);
    if cm.yieldpoint.(b) then begin
      st.cycles <- st.cycles + st.cost.Cost_model.yieldpoint_poll;
      if st.cycles >= st.next_tick then st.yield_flag <- true;
      (if st.yield_flag then
         match p.ticks with [] -> () | fs -> each st frame fs);
      match p.yieldpoints with [] -> () | fs -> each_yp st frame b fs
    end
  in
  (* the oracle ignores [edge_site]: calling [on_edge] everywhere is what
     lets the differential suite check every layer's site declaration *)
  let take_edge ~src ~idx ~dst =
    st.cycles <- st.cycles + cm.edge_extra.(src).(idx);
    match p.edges with
    | [] -> ()
    | fs -> each_edge st frame ~src ~idx ~dst fs
  in
  let exec_instr (ins : Instr.t) =
    match ins with
    | Const k ->
        stack.(!sp) <- k;
        incr sp
    | Load l ->
        stack.(!sp) <- locals.(l);
        incr sp
    | Store l ->
        decr sp;
        locals.(l) <- stack.(!sp)
    | Inc (l, k) -> locals.(l) <- locals.(l) + k
    | Binop op ->
        decr sp;
        let b = stack.(!sp) in
        stack.(!sp - 1) <- Instr.eval_binop op stack.(!sp - 1) b
    | Cmp c ->
        decr sp;
        let b = stack.(!sp) in
        stack.(!sp - 1) <- (if Instr.eval_cmp c stack.(!sp - 1) b then 1 else 0)
    | Neg -> stack.(!sp - 1) <- -stack.(!sp - 1)
    | Not -> stack.(!sp - 1) <- (if stack.(!sp - 1) = 0 then 1 else 0)
    | Dup ->
        stack.(!sp) <- stack.(!sp - 1);
        incr sp
    | Pop -> decr sp
    | GLoad g ->
        stack.(!sp) <- st.globals.(g);
        incr sp
    | GStore g ->
        decr sp;
        st.globals.(g) <- stack.(!sp)
    | AGet -> stack.(!sp - 1) <- st.heap.(heap_index st.heap stack.(!sp - 1))
    | ASet ->
        sp := !sp - 2;
        st.heap.(heap_index st.heap stack.(!sp)) <- stack.(!sp + 1)
    | Call _ ->
        (* calls are handled in the block loop below, where the callee
           index comes from the compiled form's [call_target] memo *)
        assert false
    | Rand n ->
        stack.(!sp) <- Prng.below st.prng n;
        incr sp
  in
  let cur = ref m.entry in
  enter_block !cur;
  let result = ref 0 in
  let running = ref true in
  while !running do
    let blk = m.blocks.(!cur) in
    let body = blk.body in
    let targets = cm.call_target.(!cur) in
    for i = 0 to Array.length body - 1 do
      match body.(i) with
      | Instr.Call (_, argc) ->
          let cidx = targets.(i) in
          sp := !sp - argc;
          let v = exec_method p st ~parent:midx cidx stack !sp argc in
          stack.(!sp) <- v;
          incr sp
      | ins -> exec_instr ins
    done;
    match blk.term with
    | Method.Ret ->
        decr sp;
        result := stack.(!sp);
        running := false
    | Method.Jmp d ->
        take_edge ~src:!cur ~idx:0 ~dst:d;
        cur := d;
        enter_block d
    | Method.Br { on_true; on_false; _ } ->
        decr sp;
        let cond = stack.(!sp) <> 0 in
        let dst = if cond then on_true else on_false in
        take_edge ~src:!cur ~idx:(if cond then 0 else 1) ~dst;
        cur := dst;
        enter_block dst
  done;
  (match p.exits with [] -> () | fs -> each st frame fs);
  st.depth <- st.depth - 1;
  !result

let call hooks st name args =
  exec_method (points hooks) st ~parent:(-1)
    (Program.index st.program name)
    args 0 (Array.length args)

let run hooks st = call hooks st st.program.Program.main [||]
