(** The fleet collector: continuous profile ingestion from N simulated
    VM instances.

    One {!run} drives every cohort's instances through [windows]
    collection windows (one application iteration each) and lands one
    raw {!Fleet_store.segment} per (instance, window) — the per-window
    {e delta} of the PEP path table, PEP edge table and tick-sampled
    DCG — then compacts raws into per-window merged segments.

    Instances execute in {e replay} mode against advice from a shared
    two-iteration adaptive warmup, so cumulative profiles are monotone
    and window deltas exact.  The warmup runs on the main domain before
    the instances are sharded, and only when some cohort has windows
    left to collect: a rerun over a fully covered store simulates
    nothing, warmup included.  The simulated timer is compressed by
    [tick_shrink] so short windows still sample every hot method.
    Everything is deterministic: reruns and any [?jobs] produce
    byte-identical segments. *)

type spec = {
  workload : Workload.t;
  size : int option;  (** [None] = the workload's default size *)
  seed : int;  (** base seed; instance [i] derives its own from it *)
  samples : int;  (** PEP sampling burst length *)
  stride : int;  (** PEP sampling stride *)
  cohorts : (string * Fleet.Drift.t) list;
  instances : int;  (** instances per cohort *)
  windows : int;  (** collection windows per instance *)
  tick_shrink : int;  (** timer-period compression factor, >= 1 *)
  keep_raw : bool;  (** skip compaction (keep per-instance segments) *)
  retain_windows : int option;  (** keep only the newest N windows *)
  faults : Fault_plan.t;
      (** fleet fault plan ({!Fault_plan.perturbs_fleet} sites): crashes
          and stragglers draw per-instance keyed streams in the
          workers, write damage draws per-file streams on the main
          domain — so injection preserves jobs-N byte-identity, and a
          converging plan heals to the healthy store's exact bytes *)
}

(** A steady control plus a cohort whose workload phase shifts halfway
    through the run — the standard drift-detection pair. *)
val default_cohorts : windows:int -> (string * Fleet.Drift.t) list

(** [PEP(64,17)], seed 42, 8 instances x 4 windows, [default_cohorts],
    tick compression 8, compaction on, no retention. *)
val default_spec :
  ?size:int ->
  ?seed:int ->
  ?samples:int ->
  ?stride:int ->
  ?instances:int ->
  ?windows:int ->
  ?tick_shrink:int ->
  ?keep_raw:bool ->
  ?retain_windows:int ->
  ?cohorts:(string * Fleet.Drift.t) list ->
  ?faults:Fault_plan.t ->
  Workload.t ->
  spec

type report = {
  cohorts : int;
  instances : int;  (** total instances across cohorts *)
  windows : int;
  simulated : int;  (** instances actually executed this run *)
  skipped : int;  (** instances already covered by stored segments *)
  snapshots : int;  (** raw snapshots written *)
  samples_taken : int;  (** PEP samples across new snapshots *)
  merged : int;  (** merged segments written by compaction *)
  retained_deleted : int;  (** segments dropped by retention *)
  store_bytes : int;  (** store size after this run *)
  healed_open : int;
      (** torn files the recovery scan removed when the store opened *)
  counts : Fault_injector.counts option;
      (** full fault/degradation accounting (workers absorbed), when a
          fault plan was active *)
  degraded : (string * int * string) list;
      (** the degraded-data log after this run: (cohort, window,
          reason) for every window rebuilt from quarantine or lost *)
  diags : Dcg.parse_error list;  (** store I/O diagnostics, if any *)
}

(** The cohort identity {!run} derives for a spec entry (exposed so
    queries can address the same store keys). *)
val cohort_of : spec -> string * Fleet.Drift.t -> Fleet.Cohort.t

(** Run the fleet into store [dir].  A cohort whose windows are already
    fully covered by merged segments (same instance count) is skipped
    entirely — a warm rerun reports [simulated = 0].  [jobs] shards
    instances across domains ({!Exp_pool.map}); results are
    byte-identical for any job count. *)
val run :
  ?jobs:int -> dir:string -> spec -> (report, Dcg.parse_error) result
