(** Machine state: a loaded program plus the mutable execution context the
    interpreter and the VM layers share.

    Each method has a compiled form ({!cmeth}) holding its CFG, loop
    analysis, yieldpoint placement and per-block virtual-cycle costs.  The
    VM layers mutate the compiled form when they "recompile" a method:
    {!set_speed} models moving between baseline and optimizing-compiler
    code quality, and [edge_extra] carries code-layout penalties assigned
    by the optimizer. *)

type cmeth = {
  meth : Method.t;
  cfg : Cfg.t;
  loops : Loops.t;
  max_stack : int;
  raw_block_cost : int array;  (** per block, at 100% speed *)
  call_target : int array array;
      (** per block, per body position: the dense method index of the
          call's callee, resolved once at compile time; -1 for non-call
          instructions.  Linked programs ({!Program.create}) guarantee
          every callee resolves. *)
  mutable gen : int;
      (** compiled-form generation stamp, unique across all compiled
          forms of a machine's lifetime.  Bumped by {!recompile}
          (a fresh form, and the superseded one marked stale) and
          {!set_speed} (code-quality change), so
          execution engines can validate cached generated code and
          call-site inline caches with one integer compare. *)
  mutable speed_percent : int;
      (** cost multiplier in percent: 100 = optimized, larger = slower *)
  mutable block_cost : int array;  (** [raw * speed_percent / 100] *)
  mutable yieldpoint : bool array;
  mutable edge_extra : int array array;
      (** per block, per successor index (0 = taken/jump, 1 = not-taken):
          extra cycles charged when the edge is traversed *)
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
      (** one-shot token a tick driver raises for downstream samplers *)
  mutable depth : int;  (** live call depth *)
  methods : cmeth array;
  method_index : (string, int) Hashtbl.t;
}

(** [create ?cost ?tick_offset ~seed program] loads [program].  Methods
    start at 100% speed with yieldpoints on entry, exit and loop headers
    (none for uninterruptible methods).  The first timer tick fires at
    [tick_offset] (default one period) virtual cycles. *)
val create :
  ?cost:Cost_model.t -> ?tick_offset:int -> seed:int -> Program.t -> t

val cmeth : t -> int -> cmeth

(** Dense index of a method name.
    @raise Not_found for unknown names. *)
val index : t -> string -> int

(** Change a method's code quality; recomputes its block costs and bumps
    the compiled form's generation stamp. *)
val set_speed : t -> int -> percent:int -> unit

(** [recompile t i ?no_yieldpoint meth] installs a new body for method
    [i] (e.g. after inlining): a fresh compiled form at 100% speed with
    default yieldpoints, minus the blocks flagged in [no_yieldpoint]
    (per new-method block id — loop headers copied from uninterruptible
    inlinees carry no yieldpoint, paper §4.3).  Frames already executing
    the old body keep running it, like activations of replaced code in a
    real VM; new invocations use the new body.  The superseded form's
    generation stamp is bumped too, so an engine sees that such frames
    run code whose hook sites may have changed under them. *)
val recompile : t -> int -> ?no_yieldpoint:bool array -> Method.t -> unit

(** Zero all layout penalties of a method. *)
val clear_edge_extra : t -> int -> unit

val add_cycles : t -> int -> unit

(** Rearm the timer: clear the flag and schedule the next tick one period
    after the current cycle count. *)
val rearm_timer : t -> unit
