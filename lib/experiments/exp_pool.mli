(** Domain-based job pool for experiment sweeps.

    Shards independent (workload × configuration) runs across [jobs]
    worker domains and merges results deterministically — ordered by
    cache position and configuration key, never by completion time — so
    a parallel sweep produces bit-identical figures to the serial run.
    Telemetry from parallel jobs goes to a private sink per worker
    (each opening a ["worker N"] trace thread), folded into the main
    sink in worker order after the join.

    [jobs <= 1] never spawns a domain and behaves exactly like the
    serial code paths it replaces. *)

(** [map ~jobs ~telemetry f xs] applies [f sink x] to every element,
    sharding round-robin across workers; results come back in input
    order and the first exception (in input order) is re-raised.  [f]
    receives the worker's private sink ([telemetry] itself when
    serial); it must not touch shared mutable state when [jobs > 1]. *)
val map :
  ?jobs:int ->
  ?telemetry:Telemetry.t ->
  (Telemetry.t option -> 'a -> 'b) ->
  'a list ->
  'b list

(** One run to ensure: a configuration on a benchmark's cache. *)
type task = { cache : Exp_cache.t; config : Exp_harness.config }

(** Deduplicate [tasks] (by cache and configuration key), drop those
    already memoized, execute the rest — {!Exp_cache.compute} on the
    workers, {!Exp_cache.install} on the main domain in sorted order —
    so later figure builds recall every run from memory.  Pass as
    [telemetry] the sink the task configurations carry, if any: workers
    substitute private sinks for it (carried sinks are stripped in
    workers if [telemetry] is omitted — a sink is never shared across
    domains). *)
val run_tasks : ?jobs:int -> ?telemetry:Telemetry.t -> task list -> unit

(** Envs for the whole suite, each warmed up by {!Exp_harness.make_env}
    at the workload's default size times [scale] (at least 1; use a
    small scale in tests), with the warmup runs (the expensive part of
    preparation) sharded across [jobs] workers. *)
val suite_envs :
  ?scale:float ->
  ?jobs:int ->
  ?config:Exp_harness.config ->
  seed:int ->
  unit ->
  Exp_harness.env list

(** Run every cacheable configuration the given figure ids need, on
    every cache: first the {!Exp_figures.prefetch_configs} sets, then
    the {!Exp_figures.derived_configs} second stage.  After this,
    building those figures recalls runs from memory and computes or
    recalls only their derived entries (fig11's series, the comparator
    entry), serially. *)
val prefetch :
  ?jobs:int -> ?telemetry:Telemetry.t -> Exp_cache.t list -> string list -> unit

(** The figure sweep: build the suite's envs at [scale] under [config]
    (default {!Exp_harness.default}), open one run cache per benchmark
    (on disk under [cache_dir], if given), {!prefetch} the figures
    [ids] need, print each figure in order, then the cache report when
    there is a [cache_dir].  Returns the caches, holding every run the
    figures used. *)
val figures :
  ?jobs:int ->
  ?config:Exp_harness.config ->
  ?cache_dir:string ->
  scale:float ->
  seed:int ->
  string list ->
  Exp_cache.t list
