(** Static verification of bytecode, CFGs, path numberings and profiles.

    PEP's correctness rests on invariants the rest of the system assumes
    but never checks mechanically: every method body must respect the
    operand-stack discipline the interpreter relies on, CFG/DAG
    truncation must leave the derived graph acyclic and consistent with
    the loop analysis, Ball-Larus edge values must put the DAG's
    entry-to-exit paths in bijection with [0, n_paths), and collected
    edge profiles must conserve flow at every block.  Each pass here
    re-derives one of those invariants from first principles and reports
    violations as structured {!diagnostic}s instead of booleans or
    exceptions, so callers (the VM driver, the experiment harness, the
    [pepsim check] subcommand) can locate a miscompile at the pass that
    introduced it.

    Unlike {!Verify}, which raises on the first violation and guards
    parsed input, these passes keep going and are meant to audit {e every}
    stage of the pipeline — including optimizer-transformed bodies that
    never went through {!Program.create}'s link checks. *)

type severity = Error | Warning | Info

(** Where a diagnostic points.  Method names key all locations; block,
    instruction, edge and node ids follow the conventions of the layer
    the pass inspects. *)
type location =
  | Program_loc
  | Method_loc of string
  | Block_loc of string * int  (** method, block id *)
  | Instr_loc of string * int * int  (** method, block id, instruction index *)
  | Edge_loc of string * int * int  (** method, source block, destination block *)
  | Node_loc of string * int  (** method, DAG node *)
  | Branch_loc of string * Cfg.branch_id
  | Path_loc of string * int  (** method, Ball-Larus path id *)

type diagnostic = {
  severity : severity;
  pass : string;  (** which pass produced it: ["bytecode"], ["cfg"], ["dag"], ["numbering"], ["profile"], or a caller-supplied relabel *)
  loc : location;
  message : string;
}

val pp_severity : severity Fmt.t
val pp_location : location Fmt.t
val pp_diagnostic : diagnostic Fmt.t

(** One diagnostic per line, then an error/warning count line. *)
val pp_report : diagnostic list Fmt.t

val errors : diagnostic list -> diagnostic list
val has_errors : diagnostic list -> bool

(** Relabel the [pass] field, e.g. [with_pass "bytecode@inline"] to record
    which optimization stage the verified body came from. *)
val with_pass : string -> diagnostic list -> diagnostic list

(** {1 Pass 1 — bytecode verifier}

    Abstract interpretation over {!Instr.stack_effect}: a forward
    dataflow computes the operand-stack depth at entry to every block and
    demands agreement at join points, no underflow at any instruction, a
    condition value available at every [Br], and depth 1 at the exit
    block's [Ret].  Structural checks ride along: jump targets in range,
    local / global indices in bounds, [Rand] bounds positive, every
    [Call] resolving in [program]'s method table with matching arity, the
    exit block holding the only [Ret], and every block reachable.
    [program] supplies the linking context ([n_globals], the method
    table); [meth] itself need not be a member — the VM driver verifies
    inlined and unrolled bodies that exist only inside the machine. *)

val verify_method : Program.t -> Method.t -> diagnostic list

val verify_program : Program.t -> diagnostic list

(** {1 Pass 2 — CFG / DAG invariant checker} *)

(** Re-derives well-formedness from the accessor surface: a single
    [Return] terminator located at the exit block, distinct branch arms,
    at most one edge per ordered block pair, successor / predecessor /
    edge-list consistency, every block reachable from the entry and
    co-reachable from the exit, and loop-analysis agreement (every
    reported back edge's target dominates its source, headers are exactly
    the deduplicated back-edge targets, irreducibility is reported iff
    non-back retreating edges exist). *)
val check_cfg : Cfg.t -> diagnostic list

(** Checks the truncation result against its CFG and mode: acyclicity
    (every edge goes forward in the topological order, which visits each
    node exactly once, entry first and exit last), the entry node has no
    incoming and the exit node no outgoing edges, every node lies on an
    entry-to-exit path, the [Real] edges are exactly the CFG's edges
    minus the [Cut_edge] truncations, dummy edges are shared (at most one
    [From_entry] per target and one [To_exit] per source) and anchored at
    the entry / exit nodes, every truncation resolves to its dummy pair,
    and mode consistency — [Back_edge] mode cuts every back and
    irreducible edge and splits no header; [Loop_header] mode gives each
    split header distinct in/out nodes and accounts for every back edge
    either via its split header or a cut. *)
val check_dag : Dag.t -> diagnostic list

(** {1 Pass 3 — numbering auditor} *)

(** Audits edge values against an independent DP over the DAG: recomputed
    path counts must match {!Numbering.num_paths_from} at every node,
    every edge value is non-negative, and each node's out-edge intervals
    [value e, value e + num_paths_from (dst e)) exactly partition
    [0, num_paths_from v) — the interval property {!Reconstruct} depends
    on, and (by induction over the DP) a proof that path sums form a
    bijection onto [0, n_paths).  When [n_paths <= enumerate_limit]
    (default 1024) the bijection is additionally witnessed explicitly:
    every id is reconstructed via {!Reconstruct.dag_path} and its edge
    values summed back with {!Reconstruct.id_of_dag_path}. *)
val audit_numbering : ?enumerate_limit:int -> Numbering.t -> diagnostic list

(** Core of {!audit_numbering} over an arbitrary value assignment — lets
    tests audit deliberately corrupted values without forging an abstract
    {!Numbering.t} (the explicit-enumeration stage is skipped, as
    reconstruction is only defined for the real numbering). *)
val audit_values : Dag.t -> value:(Dag.edge -> int) -> diagnostic list

(** [audit_zero_arms ~zero ~freq numbering] checks smart numbering's
    placement promise: at every node with at least two out-edges, the
    unique out-edge carrying value 0 has the extremal [freq] among the
    node's arms — maximal under [`Hottest], minimal under [`Coldest]. *)
val audit_zero_arms :
  zero:[ `Hottest | `Coldest ] ->
  freq:(Dag.edge -> int) ->
  Numbering.t ->
  diagnostic list

(** {1 Pass 4 — profile lint} *)

(** Kirchhoff flow conservation for a per-method edge profile: every
    counter non-negative and keyed by a branch id the CFG contains; and,
    when [exact] (default — set it false for sampled profiles, which
    conserve flow only approximately), the counters embed into a
    consistent whole-method flow.  The lint propagates the linear system
    "block frequency = in-flow = out-flow" (branch blocks' out-flow is
    [taken + not_taken]; jump blocks forward their frequency; the entry's
    surplus is the invocation count, which must be non-negative and match
    the exit block's frequency) to a fixpoint and reports every violated
    equation.  Methods in which several blocks share one branch id
    (inlined or unrolled bodies) cannot be attributed per block; the flow
    stage is skipped with an [Info] diagnostic. *)
val lint_edge_profile : ?exact:bool -> Cfg.t -> Edge_profile.t -> diagnostic list

(** Path-profile lint against the numbering that produced the ids: every
    id within [0, n_paths), counts non-negative, memoized expansions
    equal to the reconstruction from the P-DAG (edge list and branch
    count), and — when [expected_total] is given, e.g. the sampler's
    taken-sample count — no more recorded path executions than samples
    taken. *)
val lint_path_profile :
  ?expected_total:int -> Numbering.t -> Path_profile.t -> diagnostic list

(** {1 Whole-program driver}

    Passes 1–3 over every method of a program: bytecode verification,
    CFG checks, and — for both truncation modes — DAG checks and a
    numbering audit.  Methods whose path count exceeds the numbering
    limit, or that loop-header truncation cannot handle, are reported as
    unprofilable ([Warning]) exactly as the VM treats them.  [Error]-free
    output means the program is safe for the whole profiling pipeline. *)
val check_program_static : Program.t -> diagnostic list

(** {1 Pass 5 — dataflow lints}

    Clients of the {!Dataflow} framework, reported as passes
    ["liveness"], ["interval"] and ["effects"].  All three assume bodies
    that pass {!verify_method}; on an unverifiable body they report a
    single [Error] and stop. *)

(** Dead stores and increments ({!Liveness.dead_stores}), as [Warning]s:
    legal code, but each one is wasted work the optimizer may remove. *)
val lint_liveness : Method.t -> diagnostic list

(** Interval findings ({!Intervals.findings}) as [Info]: provably
    constant branch conditions, heap indices that may wrap, divisors
    that may be zero. *)
val lint_intervals : Program.t -> Method.t -> diagnostic list

(** Independent justification of the unchecked array operations the
    threaded engine emits (see [lib/runtime/codegen.ml]): re-derives by
    abstract interpretation that the operand stack never underflows nor
    exceeds [max_stack] (default: the same bound {!Machine} compiles)
    and that every local/global index is in bounds.  Any [Error] here
    means the unchecked accesses are NOT justified. *)
val justify_unsafe :
  Program.t -> ?max_stack:int -> Method.t -> diagnostic list

(** Per-method transitive effect summaries ({!Effects.summarize}) as
    [Info] — the superinstruction-fusion precondition, surfaced so
    [pepsim check --deep] documents what the fusion planner may assume. *)
val lint_effects : Program.t -> diagnostic list

(** {1 Pass 6 — translation validation}

    Wraps {!Transval}: checks a transform's output against its source
    via the witness the transform emitted, reporting every point where
    the simulation relation breaks as an [Error] (pass ["transval"])
    located in the transformed body.  An empty report is a proof of
    semantic preservation — see {!Transval} for the argument. *)

val validate_inline :
  Program.t ->
  source:Method.t ->
  witness:Transval.inline_witness ->
  Method.t ->
  diagnostic list

val validate_unroll :
  source:Method.t ->
  witness:Transval.unroll_witness ->
  Method.t ->
  diagnostic list

val validate_layout :
  Cfg.t ->
  pos:int array ->
  predict_taken:bool array ->
  edge_extra:(int -> int -> int) ->
  taken_penalty:int ->
  mispredict_penalty:int ->
  diagnostic list

(** {1 Pass 7 — superinstruction fusion validation}

    Validates an engine-v2 fusion table ({!Fusion.witness}) against the
    body it claims to fuse, re-deriving every invariant the flat-code
    compiler relies on instead of trusting the planner: entries in
    bounds, ordered and disjoint; only blocks whose
    independently-derived {!Effects.block_summary} admits fusion; each
    entry's pattern / length / terminator flag reproducible by
    {!Fusion.match_at}; stack neutrality of each replacement; and the
    whole table equal to a deterministic re-plan of the body.  Errors report under pass ["fusion"]; a valid table gets one
    [Info] line with its entry count. *)
val validate_fusion :
  witness:Fusion.witness -> Method.t -> diagnostic list

(** {1 Whole-program deep driver}

    {!check_program_static} plus, for every method whose body verifies,
    the pass-5 dataflow lints and the unsafe-op justification, an
    audit of the fusion table the engine compiles ({!validate_fusion}
    on {!Fusion.plan}), and the whole-program effect summary.  This is what
    [pepsim check --deep] runs before the transform-validation replay
    sweep. *)
val check_program_deep : Program.t -> diagnostic list
