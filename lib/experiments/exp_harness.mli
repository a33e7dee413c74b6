(** Experiment harness: prepares benchmarks and executes the paper's two
    methodologies (paper §5).

    An {!env} fixes a workload, its compiled program and the advice file
    produced by a preparatory adaptive run (the warmup).  The warmup is
    deferred: {!make_env} only builds and verifies the program, and the
    advice is computed when first forced ({!advice}), or supplied by a
    run cache that recalls it from disk ([Exp_cache]).  OCaml 5 raises
    when two domains force one lazy value at once, so an env's advice is
    resolved on one domain — the main one, before a job pool shares the
    env among workers.  {!replay} then performs
    deterministic replay-compilation runs under a chosen profiling
    configuration: two iterations of the application, the first carrying
    compilation (paper Fig. 7), the second execution only (Fig. 6).
    Because time is virtual and the workload PRNG is seeded, the
    application's dynamic behaviour — and its checksum — is identical
    across profiling configurations; only the profiling work differs. *)

type env = {
  workload : Workload.t;
  program : Program.t;
  advice : Advice.t Lazy.t;
      (** the warmup's advice, deferred: read it with {!advice} *)
  cost : Cost_model.t;  (** the cost model the warmup runs under *)
  size : int;
  seed : int;
}

(** The env's advice, running its warmup if nothing has yet.  Force it
    on one domain only (see the module comment). *)
val advice : env -> Advice.t

type measurement = {
  iter1 : int;  (** first-iteration cycles, compilation included *)
  iter2 : int;  (** second-iteration cycles, application only *)
  compile : int;  (** cycles spent compiling *)
  checksum : int;
}

type profiling =
  | Base  (** no profiling beyond the always-present tick driver *)
  | Pep_profiled of {
      sampling : Sampling.config;
      zero : [ `Hottest | `Coldest ];
      numbering : [ `Smart | `Ball_larus ];
    }
  | Perfect_path  (** §5.1 instrumentation-based path profiling *)
  | Perfect_edge  (** §5.1 instrumentation-based edge profiling *)
  | Classic_blpp  (** §2.2 Ball-Larus with counts on back edges *)
  | Instr_back_edge
      (** r-maintenance only under back-edge truncation — the §3.2
          path-ending ablation *)

(** The paper's standard configuration: [PEP(64,17)], hottest-arm-zero
    smart numbering. *)
val pep_default : profiling

(** One run configuration — the single record every harness entry point
    takes (update {!default} with the fields you care about).  Distinct
    configurations never alias: {!config_key} derives a deterministic
    identifying string from every field, which is also what
    [Exp_cache] memoizes by. *)
type config = {
  profiling : profiling;
  opt_profile : Driver.opt_profile_source;
      (** what drives the optimizing compiler (default: the advice's
          one-time profile) *)
  inline : bool;  (** enable the optimizer's inliner *)
  unroll : bool;  (** enable the optimizer's loop unroller *)
  deep : bool;
      (** run the driver with {!Driver.options.deep_verify}: dataflow
          lints and unsafe-op justification on every compiled body, on
          top of the always-on translation validation.  Part of
          {!config_key} (["+deep"]); [pepsim check --deep] flips it on *)
  engine : Driver.engine;
      (** [`Threaded] by default — pass [`Oracle] to run the reference
          interpreter, as the differential tests do for both *)
  telemetry : Telemetry.t option;
      (** host-side metrics/trace sink, threaded through the driver,
          engine and PEP; measurements are bit-identical with or
          without it *)
  faults : Fault_plan.t;
      (** deterministic fault plan ({!Fault_plan.empty} by default).  A
          non-empty plan builds one fresh {!Fault_injector} per run and
          threads it through the driver and PEP; the run degrades per
          the plan's policies but never crashes, and its checksum is
          unchanged (faults perturb profiling and compilation, never
          application semantics).  The plan is part of {!config_key};
          [Exp_cache] never persists faulted runs. *)
}

(** [Base] profiling, one-time opt profile, no transforms, threaded
    engine, no telemetry. *)
val default : config

(** Deterministic human-readable key identifying a configuration, e.g.
    ["PEP(64,17)-hot-smart+opt=pep+oracle"] or
    ["base+v2-flat"].  Fixed opt-profile tables are digested into the
    key, so e.g. a continuous and a flipped table cannot alias. *)
val config_key : config -> string

(** The default cost model with the timer period divided by
    [tick_shrink] (at least one cycle), so short runs still sample every
    hot method: the fleet's and the drift experiment's compressed
    timer. *)
val compressed_cost : tick_shrink:int -> Cost_model.t

(** Compile and verify the workload; its advice comes from a
    two-iteration adaptive warmup under [cost] (default
    {!Cost_model.default}), run by {!warmup} with [config] when the
    advice is first forced.  Only [config.engine] and
    [config.telemetry] matter here; the advice must be identical under
    either engine. *)
val make_env :
  ?cost:Cost_model.t -> ?size:int -> ?config:config -> seed:int -> Workload.t -> env

(** Run [env]'s warmup now and return its advice, whatever [env.advice]
    holds: a fresh machine under [env.cost] and [env.seed], two
    iterations of the adaptive system, its final decisions.  Only
    [config.engine] and [config.telemetry] matter (default
    {!default}). *)
val warmup : ?config:config -> env -> Advice.t

type run = {
  meas : measurement;
  pep : Pep.t option;
  ppaths : Profiler.path_profiler option;
  pedges : Profiler.edge_profiler option;
  driver : Driver.t;
  faults : Fault_injector.t option;
      (** the run's injector when [config.faults] was non-empty; read
          {!Fault_injector.counts} for its degradation accounting *)
  checks : Pep_check.diagnostic list;
      (** {!Driver.checks} plus a {!Pep_check} lint of every profile the
          run collected (PEP's sampled edge and path profiles, the
          perfect profilers' tables, the one-time baseline profile); any
          [Error] means a profile is internally inconsistent *)
}

(** Lint PEP's collected profiles (pass field ["profile@pep"]): the
    sampled edge profile shape-checked per method, each path profile
    checked against the numbering of the plan that produced its ids and
    bounded by the sampler's taken-sample count.  [expected_samples]
    overrides the sampler's live count as that bound — for runs rebuilt
    from disk, whose fresh sampler has taken nothing. *)
val lint_pep : ?expected_samples:int -> Machine.t -> Pep.t -> Pep_check.diagnostic list

(** The full lint a {!replay} stores in [run.checks]; exposed for runs
    built directly against a {!Driver.t}. *)
val lint_run : ?expected_samples:int -> run -> Pep_check.diagnostic list

(** One fresh {!Fault_injector} for [config.faults] ([None] when the
    plan is empty), wired to [config.telemetry].  {!replay}/{!rebuild}
    call it when no injector is passed; callers that fire host-side
    faults of their own (e.g. [Exp_cache]'s store corruption) build the
    injector here and pass it down so all accounting lands in one
    place. *)
val injector_of : config -> Fault_injector.t option

(** One replay experiment under [config] (two deterministic iterations;
    see the module comment).  With a non-empty fault plan, corrupt
    advice/DCG inputs are quarantined and recomputed from the warmup
    before the driver is built. *)
val replay : ?faults:Fault_injector.t -> env -> config -> run

(** Rebuild the {!run} that [replay env config] would produce, from a
    persisted payload, without executing the application: the driver is
    {!Driver.precompile}d (replay compilation is independent of
    execution order, so compiled bodies, plans and transforms are
    identical to a live run's), the profile tables restored from their
    serialized lines, and [checks] re-linted from scratch — raw counts
    are the only thing taken from disk.  [Error reason] means the
    payload does not fit the configuration; callers fall back to
    executing.  Not supported (by construction never persisted) for
    [From_pep] opt-profiles, whose compilation consults live sampler
    state. *)
val rebuild :
  ?faults:Fault_injector.t -> env -> config -> Exp_store.payload -> (run, string) result

(** [observe ~name env config observer] is a replay of [config] with
    one more profiler watching: [observer machine] builds the profiler
    over the replay's fresh machine and returns its hooks and whatever
    the caller reads afterwards; both iterations then run, and the
    driver comes back with it (its {!Driver.checks}, transform counts
    and PEP state).  The driver is {!replay}'s — same options, same
    fault plan, PEP on when [config.profiling] is [Pep_profiled] — but
    the run is not linted, measured or cached.  With [~precompile:true]
    every method is compiled before [observer] runs, so the profiler
    instruments the transformed bodies (a truth profiler over inlined
    or unrolled code); otherwise its hooks are composed when the driver
    is created.  [name] labels the telemetry run.  This is how the
    comparator figures run their hardware, one-time and truth
    replays. *)
val observe :
  ?precompile:bool ->
  name:string ->
  env ->
  config ->
  (Machine.t -> Interp.hooks * 'a) ->
  Driver.t * 'a

(** Smart numbering keyed to the advice's one-time profile — the
    numbering every replay configuration shares, so path ids from
    different runs are comparable. *)
val advice_number : env -> int -> Dag.t -> Numbering.t

(** Null out plans of methods the advice leaves at baseline, so a custom
    profiler covers the same method set PEP does. *)
val mask_plans : env -> Profile_hooks.plans -> unit

(** Total cycles (two iterations, compilation included) of one adaptive
    trial; [trial] perturbs the timer phase, modelling the paper's
    run-to-run variation.  A [Pep_profiled] config has PEP collect
    profiles and drive optimization (paper Fig. 11); any other
    [config.profiling] runs the plain adaptive system.
    [config.inline]/[unroll]/[opt_profile] are fixed by the methodology
    and ignored. *)
val adaptive_total : ?config:config -> trial:int -> env -> int

(** @raise Failure if the runs' checksums disagree (a profiling
    configuration perturbed application behaviour — a harness bug). *)
val check_consistent : run list -> unit
