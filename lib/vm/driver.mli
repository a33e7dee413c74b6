(** The adaptive virtual machine (paper §4.1-§4.3, §5).

    The driver models Jikes RVM's two-compiler adaptive system over the
    simulated machine:

    - Methods are compiled lazily.  The {e baseline} compiler runs at
      first invocation: cheap to compile, slow code, and it carries the
      one-time edge instrumentation of paper §4.2.
    - Timer ticks sample the executing method ({!Tick}); when a method's
      samples cross a threshold it is recompiled by the {e optimizing}
      compiler at the next level (0..2): expensive to compile, faster
      code, profile-guided layout and speculation ({!Layout}), no edge
      instrumentation — and, when configured, PEP instrumentation with
      smart path numbering driven by the same edge profile the optimizer
      used (paper §4.3).
    - {e Replay} mode applies an {!Advice} deterministically: each method
      is compiled to its advised level at first invocation.

    Run the application once per "iteration" with {!run}; replay
    methodology measures the first iteration for compile+execution
    overhead (paper Fig. 7) and the second for execution alone
    (Fig. 6). *)

type opt_profile_source =
  | From_baseline  (** the one-time profile collected by baseline code *)
  | Fixed of Edge_profile.table  (** e.g. a perfect or flipped profile *)
  | From_pep
      (** PEP's continuous profile when it has data for the method,
          falling back to the one-time profile (paper §6.5, Fig. 11) *)

type pep_opts = {
  sampling : Sampling.config;
  zero : [ `Hottest | `Coldest ];  (** smart-numbering ablation axis *)
  numbering : [ `Smart | `Ball_larus ];
}

type mode =
  | Adaptive of { thresholds : int array }
      (** samples needed to reach opt level 0, 1, 2 *)
  | Replay of Advice.t

(** Which execution engine carries the application's instructions.
    [`Threaded] is {!Codegen}'s flat threaded code (the default);
    [`Oracle] is the {!Interp} reference interpreter.  Both are
    bit-identical in cycle counts, checksums and collected profiles —
    the differential test suite holds them to that. *)
type engine = [ `Oracle | `Threaded ]

type options = {
  mode : mode;
  opt_profile : opt_profile_source;
  pep : pep_opts option;
  inline : bool;
      (** inline tiny callees at every opt level, and mid-size callees
          the sampled call graph has seen at the caller at the top
          level; inlined uninterruptible loops lose their header
          yieldpoints (paper §4.3) *)
  unroll : bool;
      (** unroll small innermost loops at opt levels >= 1; duplicated
          branches share their bytecode branch ids *)
  verify : bool;
      (** run {!Pep_check.verify_method} on every body an optimization
          pass produces (after inlining, after unrolling, and after
          layout), plus translation validation of each transform against
          the witness it emitted ({!Pep_check.validate_inline} /
          [validate_unroll] / [validate_layout], pass fields
          ["transval@inline"] etc.), recording the diagnostics — see
          {!checks}.  On by default; verification is host-side and
          charges no simulated cycles. *)
  deep_verify : bool;
      (** additionally run the dataflow lints (liveness, intervals) and
          the unsafe-array-op justification on every body the optimizing
          compiler installs — including adaptive mid-flight recompiles
          and fault-injected retries.  Off by default: the lints cost
          real host time per compile.  Also validates the fusion table
          the engine compiles for every optimized body
          ({!Pep_check.validate_fusion}, pass ["fusion"]). *)
  engine : engine;
  telemetry : Telemetry.t option;
      (** host-side metrics/trace sink.  When present the driver
          registers the [vm.*] metrics (yieldpoint polls, ticks,
          compiles and recompiles per level, compile units/cycles,
          verifier diagnostics, unprofilable plans), the engine its
          [engine.*] counters, and PEP its [pep.*] counters; with
          tracing on, compile/recompile and iteration spans plus
          sample / plan-failure / set_speed instants are recorded
          against virtual time.  All of it is host-side only:
          simulated cycles, checksums and profiles are bit-identical
          with the sink attached or absent. *)
  faults : Fault_injector.t option;
      (** deterministic fault injection ({!Fault_plan}).  When present:
          the PEP profile tables are bounded by the plan's
          [path-cap]/[edge-cap] (overflow drops counted, never crashes);
          a [compile-fail] fault makes an optimizing compile burn its
          budget and leave the method at its current tier, re-queued
          with virtual-cycle exponential backoff
          ([retry_at = now + compile-backoff * 2^(attempt-1)]) until
          [compile-retries] consecutive failures make the driver give
          up on the method for good — in adaptive mode the retry rides
          the promotion check, in replay mode the tick hook; a
          [sample-overrun] fault drops the PEP sample after its handler
          cycles are charged.  Every decision is a pure function of
          (plan seed, fault site, event ordinal) — deterministic and
          engine-independent.  An injector with an empty or [noop]
          plan changes nothing: cycles, checksums and profiles are
          bit-identical to a run with [faults = None]. *)
}

val default_thresholds : int array

(** Adaptive mode with default thresholds, one-time profile, no PEP,
    threaded engine, no telemetry. *)
val default_options : options

type t

(** [create ?extra_hooks options machine].  [extra_hooks] (e.g. a perfect
    profiler's) are composed after the driver's own. *)
val create : ?extra_hooks:Interp.hooks -> options -> Machine.t -> t

(** Execute one iteration of the application (its main method); returns
    the virtual cycles consumed by this iteration (including any
    compilation it triggered) and main's result, a workload checksum
    that must not depend on the profiling configuration. *)
val run : t -> int * int

val machine : t -> Machine.t
val pep : t -> Pep.t option

(** Cycles spent compiling so far. *)
val compile_cycles : t -> int

(** Methods recompiled by the optimizing compiler so far. *)
val recompilations : t -> int

(** The one-time edge profile collected by baseline-compiled code. *)
val baseline_profile : t -> Edge_profile.table

(** Advice capturing this run's final compilation decisions; meaningful
    after at least one {!run} in adaptive mode. *)
val advice : t -> Advice.t

(** Per-method timer samples (method sampling of paper §4.1). *)
val method_samples : t -> int array

(** The dynamic call graph sampled at timer ticks (paper §4.1). *)
val dcg : t -> Dcg.t

(** Force-compile every method now (per advice in replay mode, baseline
    in adaptive mode), charging compilation as usual.  Lets callers
    build profiling hooks against post-compilation method bodies — e.g.
    a perfect profiler over inlined code. *)
val precompile : t -> unit

(** Diagnostics accumulated so far, oldest first: bytecode
    re-verification after each optimization pass (pass fields
    ["bytecode@inline"], ["bytecode@unroll"], ["bytecode@layout"], when
    [options.verify] is on), translation validation of each transform
    (["transval@inline"], ["transval@unroll"], ["transval@layout"]),
    the [deep_verify] dataflow lints (["liveness"], ["interval"]) and
    PEP planning failures (pass ["plan"], [Warning] marking the method
    unprofilable — a path count over the numbering limit or an
    unsupported truncation; always recorded).  Any [Error] here means an
    optimization pass miscompiled a method. *)
val checks : t -> Pep_check.diagnostic list

(** Call sites expanded by the inliner so far. *)
val inlined_sites : t -> int

(** Loops unrolled so far. *)
val unrolled_loops : t -> int

(** Append more layers after the driver's (for hooks that must be
    built after {!precompile}).  The engine drops its translations,
    which mark their transfers under the hooks they were made with. *)
val add_hooks : t -> Interp.hooks -> unit

(** The layers the driver runs with, in order: its own (tick, lazy
    compilation, baseline edge counter, PEP), [extra_hooks],
    telemetry's poll counter, then every layer added since.
    [Interp.run (hooks d) (machine d)] is one oracle {!run} without the
    telemetry span. *)
val hooks : t -> Interp.hooks

(** The flat engine the driver runs on, with its translations and
    inline caches; [Codegen.set_hooks (engine d)
    Interp.no_hooks] turns it into a bare engine over the same compiled
    bodies (the engine benchmark's third variant). *)
val engine : t -> Codegen.t
