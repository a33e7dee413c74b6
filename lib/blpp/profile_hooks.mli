(** Interpreter hooks that execute instrumentation plans.

    The hook layer applies a per-method {!Instrument.t} against the live
    machine: it keeps a path register per call depth, charges the cost
    model for every executed instrumentation operation, and calls the
    caller's [on_path_end] at every path-end point with the completed
    path number.  Every path layer builds on this: the perfect and
    classic BLPP profilers ({!Profiler}), PEP's sampler, the hardware
    path profiler and the back-edge instrumentation. *)

type plans = Instrument.t option array

(** Why a method did or did not get an instrumentation plan.  The failure
    reasons are surfaced (rather than collapsed into [None]) so the VM
    driver can report unprofilable methods as diagnostics instead of
    silently dropping them. *)
type plan_outcome =
  | Planned of Instrument.t
  | Uninterruptible  (** no yieldpoints anywhere in the method *)
  | Too_many_paths of { n_paths : int; limit : int }
      (** path count exceeds the numbering limit *)
  | Truncation_unsupported of string
      (** {!Dag.build} cannot truncate the graph in this mode *)

(** Build the plan of one method: truncate in [mode] (sample points
    follow the machine's yieldpoint placement, so loop headers whose
    yieldpoint was suppressed — inlined uninterruptible loops — are cut
    silently, paper §4.3), number with [number], place instrumentation. *)
val plan_outcome :
  mode:Dag.mode ->
  number:(int -> Dag.t -> Numbering.t) ->
  Machine.t ->
  int ->
  plan_outcome

(** [plan_outcome] collapsed to an option: [None] for uninterruptible
    methods, methods whose path count exceeds the numbering limit, and
    graphs the truncation cannot handle. *)
val plan_for :
  mode:Dag.mode ->
  number:(int -> Dag.t -> Numbering.t) ->
  Machine.t ->
  int ->
  Instrument.t option

val make_plans :
  mode:Dag.mode -> number:(int -> Dag.t -> Numbering.t) -> Machine.t -> plans

(** [count_cost] is charged at every path-count/path-end point:
    [`Hash] for the paper's perfect profiler (inserted hash call),
    [`Array] for classic BLPP's array-indexed counter, [`None] for PEP,
    which charges sampling costs itself in [on_path_end].

    The result is one layer.  Its closures are what the oracle runs; its
    [path] field hands an engine the same plans, register and charges as
    data ({!Interp.path_layer}).  With [live], [on_path_end] acts only while
    [Machine.tick_pending] or [!live] holds, and must change nothing
    otherwise; without it, it may act at every path end.  So {!Codegen}
    runs the register updates inside its transfers and calls
    [on_path_end] only at path ends where it can act; a yieldpoint
    without a path end costs the layer nothing there.  The layer's
    [edge_site] is the edges whose plan has a step.  Steps and sites
    are read when a method is translated, so [plans] may only change
    together with a generation bump of the method, as the driver
    does. *)
val path_hooks :
  ?live:bool ref ->
  plans:plans ->
  count_cost:[ `Hash | `Array | `None ] ->
  on_path_end:(Machine.t -> Interp.frame -> path_id:int -> unit) ->
  unit ->
  Interp.hooks

(** Per method, per block: the branch id of the block's conditional
    branch, -1 where the block ends otherwise — read from the bodies the
    machine holds now. *)
val branch_table : Machine.t -> int array array

(** Hooks of baseline-style edge instrumentation: bump the taken or
    not-taken counter of every executed conditional branch, charging
    [edge_count] cycles each.  The {!branch_table} is taken when the
    hooks are made; block ids beyond it (a body recompiled later by
    inlining or unrolling) count nothing.  [edge_site] is the table's
    branch edges. *)
val edge_count_hooks : Machine.t -> table:Edge_profile.table -> Interp.hooks
