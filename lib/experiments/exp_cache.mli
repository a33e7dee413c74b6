(** Memoized experiment runs and derived values, with an optional
    persistent on-disk layer.

    Several figures share configurations (the PEP(64,17) replay run feeds
    Fig. 6 overhead, Fig. 8 path accuracy and Fig. 9 edge accuracy); the
    cache executes each distinct configuration once per benchmark,
    memoizing by {!Exp_harness.config_key} — every configuration field
    is part of the key, so distinct configurations never alias.

    A {e derived} entry is a value computed from the benchmark rather
    than read off one replay's run, memoized under the configuration key
    plus a tag: Fig. 11's adaptive trials, one entry per (configuration,
    trial count) series ({!adaptive}, tag [|adaptive=<trials>]), and
    any list of floats ({!values}) — the comparator figures keep all of
    a benchmark's comparator values in one such entry (tag
    [|comparators]).  Derived entries are computed serially, on the
    calling domain, when a figure first asks; they are not job-pool
    tasks.

    Every run replays the benchmark's {e advice}, the outcome of its
    adaptive warmup ({!Exp_harness.env}); the cache holds it as one more
    entry.  With a [cache_dir], {!create} reads a valid advice entry
    when it opens the cache; otherwise the advice stays deferred until
    first needed — the first {!compute} or {!run}, a figure reading
    {!env}'s advice, or a job pool's advice stage — and is then
    computed by the warmup and saved.  A deferred advice is resolved on
    the main domain only (see {!resolve_advice}).  It is accounted like
    a run: computed, it counts once as [executed]; recalled, once as
    [disk_hits].

    With [cache_dir], completed runs, derived entries and the advice are
    additionally persisted through {!Exp_store} under a composite
    identity (workload, size, seed, digests of the compiled program and
    cost model, and the configuration key, plus the tag of a derived
    entry; for the advice, the warmup's cost digest and engine and the
    tag [|advice]).  An entry embeds that key's MD5 (format v3).  Runs
    are recalled on later sweeps by {!Exp_harness.rebuild} — zero
    application execution — derived entries by reading their numbers
    back, and the advice by reading its rows back, checked against the
    program as {!Advice.of_lines} checks text.  Stale, damaged or
    foreign-format entries (an entry written by an older store format,
    or another kind of entry where a series or values were expected,
    included) surface as {!diagnostics} and are recomputed and
    overwritten, never trusted or crashed on.  An unusable [cache_dir]
    (unwritable, or a path component that is not a directory) is
    reported the same way, once, at {!create} — runs still execute,
    they just are not persisted.

    Fault plans: a configuration whose plan
    {!Fault_plan.perturbs_execution} is never persisted (a rebuild's
    precompile order would re-order the live run's fault-decision
    stream); a [corrupt=P] plan additionally makes loads of persisted
    entries observe deliberate corruption with probability [P] — the
    entry is quarantined with a diagnostic and the run, derived value
    or advice recomputed, exercising exactly the real digest-mismatch
    path.  The advice is loaded under the base configuration's plan. *)

type t

(** [config] is the base configuration the convenience runs below (and
    {!config}-derived callers) build on — e.g. pass one carrying a
    telemetry sink to have every figure's runs traced; the advice's
    warmup runs on its engine.  [cache_dir] (default: none, memory
    only) enables the persistent layer; it is prepared with
    {!Exp_store.prepare_dir}, any failure becoming the cache's first
    diagnostic, and the advice entry is read: a valid one is a disk
    hit, one that cannot be used a diagnostic (the advice is then
    computed on first need and overwrites it).  [env]'s own deferred
    advice is never forced. *)
val create : ?config:Exp_harness.config -> ?cache_dir:string -> Exp_harness.env -> t

(** The cache's env: the one given to {!create}, its advice replaced by
    the recalled one or by the cache's deferred one (forcing it
    resolves through the cache, as {!resolve_advice} does). *)
val env : t -> Exp_harness.env

(** The base configuration given to {!create} (default
    {!Exp_harness.default}); derive per-run configurations from it with
    record update. *)
val config : t -> Exp_harness.config

(** The directory given to {!create}, if any. *)
val cache_dir : t -> string option

(** Run (or recall) a configuration. *)
val run : t -> Exp_harness.config -> Exp_harness.run

(** The memoized run, if this configuration has one (never computes;
    does not count as a hit). *)
val find_run : t -> Exp_harness.config -> Exp_harness.run option

(** {2 Split compute/install — the job-pool protocol}

    [run t c] is [install t c (compute t c)] plus memo lookup.  A pool
    shards the [compute]s (worker domains: execute or load from disk —
    touches no shared mutable state) and then [install]s every outcome
    from the main domain in deterministic key order.  A [compute] whose
    cache's advice is still pending resolves it first, with its
    accounting ({!resolve_advice}); that is main-domain work, so a pool
    resolves every pending advice before it shards any [compute]. *)

type outcome

val compute : t -> Exp_harness.config -> outcome
val install : t -> Exp_harness.config -> outcome -> Exp_harness.run

(** {2 The advice}

    A deferred advice is a lazy value, and OCaml 5 raises when two
    domains force one lazy value at once: it is resolved on exactly one
    domain.  [resolve_advice t] is [install_advice t (compute_advice t
    (config t))] when pending; a pool shards the [compute_advice]s of
    several caches, each worker on its own sink, and installs them on
    the main domain in cache order. *)

(** Whether {!env}'s advice is still deferred: not recalled at open and
    not computed since. *)
val advice_pending : t -> bool

(** {!env}'s advice, computed now (and saved, and counted as
    [executed]) if it is pending.
    @raise Invalid_argument if it is pending and the caller is not the
    main domain. *)
val resolve_advice : t -> Advice.t

type advice_outcome

(** The worker half: the warmup ({!Exp_harness.warmup}) on the base
    configuration's engine, tracing to [config]'s sink (only the sink
    is read), written to the advice's store slot.  Touches no shared
    mutable state. *)
val compute_advice : t -> Exp_harness.config -> advice_outcome

(** The main-domain half: the outcome's advice becomes {!env}'s and is
    counted once as [executed] (a no-op once the advice is resolved). *)
val install_advice : t -> advice_outcome -> unit

(** Like {!store_slot}, for the advice: [None] without a [cache_dir],
    or when the base configuration's fault plan
    {!Fault_plan.perturbs_execution} (such a cache persists nothing). *)
val advice_slot : t -> (string * string) option

(** {2 Derived entries} *)

(** [adaptive t config ~trials] is
    [List.init trials (fun trial -> Exp_harness.adaptive_total ~config
    ~trial (env t))]: the per-trial totals of the adaptive methodology
    (paper Fig. 11), computed once per (configuration, [trials]) and
    persisted as one series entry under the same rules as a run. *)
val adaptive : t -> Exp_harness.config -> trials:int -> int list

(** Like {!store_slot}, for the series {!adaptive} persists. *)
val adaptive_slot :
  t -> Exp_harness.config -> trials:int -> (string * string) option

(** [values t config ~tag ~arity compute] is the [arity] floats
    [compute ()] returns, computed once per (configuration, [tag]) and
    persisted as one values entry (every float's exact bits) under the
    same rules as a run; a recalled entry with another count is
    rejected and recomputed.  [compute] also returns the verification
    diagnostics of the replays behind the values, each paired with the
    name of what it verified (e.g. ["tab-hardware"]).  Any [Error] among
    them becomes a {!diagnostics} entry naming the benchmark, that name
    and the pass, and keeps the values off disk: the checks are not
    stored with the values, so a recalled entry would hide them.  The
    values are returned either way. *)
val values :
  t ->
  Exp_harness.config ->
  tag:string ->
  arity:int ->
  (unit -> float list * (string * Pep_check.diagnostic) list) ->
  float list

(** Like {!store_slot}, for the entry {!values} persists under [tag]. *)
val values_slot :
  t -> Exp_harness.config -> tag:string -> (string * string) option

(** {2 Accounting}

    A derived entry counts like a run: computed, recalled from disk, or
    recalled from memory.  The advice counts once: computed or recalled
    from disk. *)

type stats = {
  memory_hits : int;  (** recalled from the in-process memo table *)
  disk_hits : int;  (** rebuilt from a persisted entry, no execution *)
  executed : int;
      (** actually simulated: one per run replayed, one per derived
          entry computed (all of a series' trials, all of a values
          entry's replays), and one for the advice's warmup *)
  store_errors : int;
      (** one per {!diagnostics} entry: stale, corrupt or unwritable
          entries, and values kept off disk by a failed verification *)
  migrated : int;
      (** always 0: the store has one format, so nothing is migrated
          (kept for source compatibility; an entry in an older format
          counts as a store error and is recomputed) *)
}

val stats : t -> stats

(** Structured reports for every store entry that had to be recomputed
    (stale key, corrupt content, unreadable file), could not be written,
    or was not written because a replay behind it failed verification
    (see {!values}); oldest first.  Same shape as [Advice.of_lines]
    errors. *)
val diagnostics : t -> Dcg.parse_error list

(** The accounting of a suite's caches: one
    [[exp-cache] exp.cache_hit=… exp.cache_miss=… memory_hits=…
    disk_hits=… executed=… store_errors=…] line on stdout (hits are
    memory plus disk hits, misses are executions), then every
    {!diagnostics} entry on stderr, prefixed [cache: ]. *)
val print_report : t list -> unit

(** Where [config] would be persisted ([None] if no [cache_dir], or the
    configuration is not persistable — [From_pep] opt-profiles consult
    live sampler state, and execution-perturbing fault plans re-order
    the decision stream under rebuild; both are always re-executed). *)
val store_file : t -> Exp_harness.config -> string option

(** Like {!store_file}, but also the composite identity key the entry
    is (or would be) persisted under — e.g. to forge or inspect entries
    in tests. *)
val store_slot : t -> Exp_harness.config -> (string * string) option

(** {2 The shared convenience runs, derived from the base configuration} *)

val base : t -> Exp_harness.run
val pep : t -> samples:int -> stride:int -> Exp_harness.run
val instr_only : t -> Exp_harness.run
val perfect_path : t -> Exp_harness.run

(** Ground-truth edge profile derived from the perfect path profile
    (computed once). *)
val perfect_edges_of_paths : t -> Edge_profile.table

(** Every run executed so far with its configuration key, sorted by key —
    e.g. to sweep their {!Exp_harness.run.checks} after an experiment. *)
val all_runs : t -> (string * Exp_harness.run) list
