(** Bytecode interpreter — the reference execution oracle.

    {!Codegen} is the production engine (closure-threaded code, inline
    caches); this interpreter stays deliberately simple and is the
    semantic oracle the threaded engine is differentially tested
    against: both must produce identical cycle counts, checksums, hook
    event sequences and profiles on every workload.

    Executes a program over a {!Machine.t}, accumulating virtual cycles
    (per-block base cost, yieldpoint polls, layout [edge_extra]) and
    invoking the caller's hooks.  The interpreter itself is policy-free:
    all profiling, sampling and instrumentation-cost accounting live in
    hook implementations supplied by the profiling and VM layers.

    Hooks are a list of layers ({!hooks}), and each hook point below
    calls every layer's callback in list order.  Hook order on a control
    transfer [src -> dst]: charge [edge_extra], call [on_edge]; then on
    entering [dst]: charge block cost, and if [dst] is a yieldpoint,
    charge the poll, raise the timer flag when the tick is due, call
    [on_tick] if the flag is set (read once: every layer's [on_tick]
    runs, even after one rearms the timer), then call [on_yieldpoint].
    [on_entry] runs with the fresh frame before the method's compiled
    form is even fetched — a lazy-compiler hook may install or replace
    the body and this invocation executes the fresh code; [on_exit] runs
    after the exit block's [Ret], while the frame is still live.

    {b Sparse edges.}  A layer's [edge_site] says where its [on_edge]
    acts, so an engine may skip the call elsewhere ({!Codegen} decides
    per transfer when it translates a compiled form; this oracle ignores
    [edge_site] and calls [on_edge] on every edge, which is what lets the
    differential suite check every declaration).  Wherever the site
    predicate is false, [on_edge] must change neither the machine nor the
    layer's own state.  A layer's set of acting edges may change only
    together with a generation bump of that method
    ({!Machine.set_speed}, {!Machine.recompile}): the driver calls
    [set_speed] before it touches the state its sites read.

    {b Lowered path layers.}  A path layer ([path = Some p], built by
    [Profile_hooks.path_hooks]) also describes its [on_edge] and
    [on_yieldpoint] work as data, and an engine may run that data in
    place of the two closures: on an edge, [r += add] then, for a count
    step, a path end, then [r = reset]; at a yieldpoint, a path end with
    [badd] and [breset].  Every register operation charges
    [Cost_model.r_update], and a path end is [r += badd] (charged),
    [p.count_charge] cycles, [on_path_end] with the register, then
    [r = breset] (charged) — so [on_path_end] sees [Machine.cycles] with
    every charge of the layers before it and its own [badd] and count
    charges, and none of its reset.  An engine may skip [on_path_end]
    where [p.live] says it cannot act; the layer guarantees that the
    call would then change nothing.  The register is [!(p.reg)],
    indexed by the live call depth; the layer's [on_entry] (always a
    closure) zeroes it and keeps it long enough.  The steps an engine
    lowers are read when it translates a compiled form, so [edge_step]
    and [block_event] may change only together with a generation bump
    of the method, like a layer's sites.  A frame whose compiled form
    changes under it (a hook bumped its generation) runs the rest of its
    hook points through the closures, which read the live plans and act
    on the same register; this oracle always calls the closures. *)

(** Per-invocation frame view exposed to hooks: the method index and
    the calling method's index (-1 for the root invocation).  A path
    layer keeps its own path register per call depth. *)
type frame = { fmeth : int; fparent : int }

(** A path layer's work on one edge: [r += add] (0 = absent), a path
    end when [count], then [r = reset] (-1 = absent). *)
type edge_step = { add : int; count : bool; reset : int }

(** A path end at a block's yieldpoint: [r += badd] (0 = absent), the
    path end, then [r = breset] (-1 = absent). *)
type block_event = { badd : int; breset : int }

(** A path layer's edge and yieldpoint work as data (see "Lowered path
    layers" above). *)
type path_layer = {
  edge_step : int -> src:int -> idx:int -> edge_step option;
      (** [edge_step meth ~src ~idx] under [meth]'s current plan *)
  block_event : int -> Cfg.block_id -> block_event option;
      (** the path end at a block's yieldpoint, if any *)
  reg : int array ref;  (** the path register, per call depth *)
  count_charge : Cost_model.t -> int;  (** cycles charged at every path end *)
  live : bool ref option;
      (** [Some l]: [on_path_end] acts only while [Machine.tick_pending]
          or [!l] holds (PEP: a tick is pending or a sampling burst is
          live); [None]: it may act at every path end *)
  on_path_end : Machine.t -> frame -> path_id:int -> unit;
}

(** One hook layer: a profiler, the timer driver or one of the VM's own
    layers.  Build one as [{ Interp.layer with ... }]. *)
type layer = {
  on_entry : (Machine.t -> frame -> unit) option;
  on_exit : (Machine.t -> frame -> unit) option;
  on_edge : (Machine.t -> frame -> src:int -> idx:int -> dst:int -> unit) option;
      (** [idx] is the successor index: 0 for jump/taken, 1 for not-taken *)
  edge_site : (int -> src:int -> idx:int -> bool) option;
      (** [edge_site meth ~src ~idx]: whether [on_edge] acts on that edge
          under [meth]'s current compiled form; [None] means every edge.
          Meaningless without [on_edge]. *)
  on_tick : (Machine.t -> frame -> unit) option;
      (** at a yieldpoint whose poll finds the timer flag set, before
          [on_yieldpoint] *)
  on_yieldpoint : (Machine.t -> frame -> Cfg.block_id -> unit) option;
  path : path_layer option;
      (** on a path layer: its [on_edge] and [on_yieldpoint] work as data *)
}

(** The layer without any callback. *)
val layer : layer

(** A composition of layers, in order: at every hook point each layer's
    callback runs in list order (so [a @ b] runs [a]'s before [b]'s),
    and the composition acts on an edge wherever one of its layers
    does. *)
type hooks = layer list

(** [[]]: no layer. *)
val no_hooks : hooks

exception Runtime_error of string

(** Call-stack depth at which {!Runtime_error} is raised; shared with
    every alternative execution engine over the same machine. *)
val max_depth : int

(** [call hooks machine name args] invokes method [name].
    @raise Runtime_error on call-stack overflow (depth > 100_000). *)
val call : hooks -> Machine.t -> string -> int array -> int

(** Run the program's main method. *)
val run : hooks -> Machine.t -> int
