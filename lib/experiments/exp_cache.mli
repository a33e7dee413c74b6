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

    With [cache_dir], completed runs and derived entries are
    additionally persisted through {!Exp_store} under a composite
    identity (workload, size, seed, digests of the compiled program and
    cost model, and the configuration key, plus the tag of a derived
    entry).  An entry embeds that key's MD5 (format v3).  Runs are
    recalled on later sweeps by {!Exp_harness.rebuild} — zero
    application execution — and derived entries by reading their
    numbers back.  Stale, damaged or foreign-format entries (an entry
    written by an older store format, or another kind of entry where a
    series or values were expected, included) surface as {!diagnostics}
    and are recomputed and overwritten, never trusted or crashed on.  An
    unusable [cache_dir] (unwritable, or a path component that is not a
    directory) is reported the same way, once, at {!create} — runs still
    execute, they just are not persisted.

    Fault plans: a configuration whose plan
    {!Fault_plan.perturbs_execution} is never persisted (a rebuild's
    precompile order would re-order the live run's fault-decision
    stream); a [corrupt=P] plan additionally makes loads of persisted
    entries observe deliberate corruption with probability [P] — the
    entry is quarantined with a diagnostic and the run or derived value
    recomputed, exercising exactly the real digest-mismatch path. *)

type t

(** [config] is the base configuration the convenience runs below (and
    {!config}-derived callers) build on — e.g. pass one carrying a
    telemetry sink to have every figure's runs traced.  [cache_dir]
    (default: none, memory only) enables the persistent layer; it is
    prepared with {!Exp_store.prepare_dir}, any failure becoming the
    cache's first diagnostic. *)
val create : ?config:Exp_harness.config -> ?cache_dir:string -> Exp_harness.env -> t

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
    from the main domain in deterministic key order. *)

type outcome

val compute : t -> Exp_harness.config -> outcome
val install : t -> Exp_harness.config -> outcome -> Exp_harness.run

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
    recalled from memory. *)

type stats = {
  memory_hits : int;  (** recalled from the in-process memo table *)
  disk_hits : int;  (** rebuilt from a persisted entry, no execution *)
  executed : int;
      (** actually simulated: one per run replayed, and one per derived
          entry computed (all of a series' trials, all of a values
          entry's replays) *)
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
