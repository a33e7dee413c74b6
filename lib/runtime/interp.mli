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

    Hook order on a control transfer [src -> dst]: charge [edge_extra],
    call [on_edge]; then on entering [dst]: charge block cost, and if
    [dst] is a yieldpoint, charge the poll, raise the timer flag when
    the tick is due, call [on_tick] if the flag is set, then call
    [on_yieldpoint].  [on_entry] runs with the fresh frame
    before the method's compiled form is even fetched — a lazy-compiler
    hook may install or replace the body and this invocation executes the
    fresh code; [on_exit] runs after the exit block's [Ret], while the
    frame is still live.

    {b Sparse edges.}  A layer's [edge_site] says where its [on_edge]
    acts, so an engine may skip the call elsewhere ({!Codegen} decides
    per transfer when it translates a compiled form; this oracle ignores
    [edge_site] and calls [on_edge] on every edge, which is what lets the
    differential suite check every declaration).  Wherever the site
    predicate is false, [on_edge] must change neither the machine nor the
    layer's own state.  A layer's set of acting edges may change only
    together with a generation bump of that method
    ({!Machine.set_speed}, {!Machine.recompile}): the driver calls
    [set_speed] before it touches the state its sites read. *)

(** Per-invocation frame view exposed to hooks: the method index, the
    calling method's index (-1 for the root invocation), and the
    Ball-Larus path register. *)
type frame = { fmeth : int; fparent : int; mutable r : int }

type hooks = {
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
}

val no_hooks : hooks

(** [compose a b] runs [a]'s callback before [b]'s at every hook point;
    the composed [edge_site] is the union of the two layers' sites. *)
val compose : hooks -> hooks -> hooks

exception Runtime_error of string

(** Call-stack depth at which {!Runtime_error} is raised; shared with
    every alternative execution engine over the same machine. *)
val max_depth : int

(** [call hooks machine name args] invokes method [name].
    @raise Runtime_error on call-stack overflow (depth > 100_000). *)
val call : hooks -> Machine.t -> string -> int array -> int

(** Run the program's main method. *)
val run : hooks -> Machine.t -> int
