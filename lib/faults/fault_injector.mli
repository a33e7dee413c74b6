(** Runtime half of a {!Fault_plan}: deterministic decision streams plus
    the [fault.*] / [degrade.*] accounting every degradation must pass
    through.

    Each injection site draws from its own counter-indexed stream — a
    SplitMix64 hash of (plan seed, site salt, event ordinal) — so
    decisions depend only on the plan and on how many times the site was
    consulted, never on wall-clock time, allocation addresses or domain
    scheduling.  Two runs with the same plan and the same event order
    fault identically; the empty stream (probability 0) never hashes at
    all.

    Faults ([fault.*]) are the injected events; degradations
    ([degrade.*]) are the system's graceful responses.  The chaos sweep
    holds them to an accounting identity: every fault must be matched by
    a recorded degradation (e.g. [fault.compile_fail =
    degrade.compile_backoff + degrade.compile_gaveup]).  All recording
    is host-side: with a telemetry sink attached the counters and trace
    instants appear, without one only the internal {!counts} are kept —
    simulated cycles are identical either way. *)

type t

val create : ?telemetry:Telemetry.t -> Fault_plan.t -> t
val plan : t -> Fault_plan.t

(** {1 Decision streams}

    Each consult consumes one slot of the site's stream.  A [true]
    return has already been counted as the corresponding [fault.*]
    event (with a trace instant at [ts] when tracing). *)

val fire_compile_fail : t -> ts:int -> meth:string -> bool
val fire_sample_overrun : t -> ts:int -> meth:string -> bool

(** Host-side (no virtual timestamp): did this load of input kind
    [what] ("advice", "dcg", "store") observe a corrupted record?  Each
    kind draws from its own stream.  The caller must quarantine and
    recompute on [true] — {!accounted} holds [fault.store_corrupt] to
    [degrade.input_quarantined]. *)
val fire_corrupt : t -> what:string -> bool

(** {1 Fleet decision streams}

    Fleet sites are keyed per instance or per segment file: each key
    owns a private counter-indexed stream, so decisions are independent
    of domain scheduling and store write order — the property that
    keeps jobs-N byte-identity alive under injection.  All are
    host-side (no virtual timestamp): fleet faults never touch the
    simulated machines. *)

(** Does this instance crash while collecting [window]?  The ordinal
    stream persists across restart attempts, so a restarted instance
    re-draws (and may crash at a different window). *)
val fire_instance_crash : t -> instance:string -> window:int -> bool

(** Is this segment write torn (partial bytes on disk, no journal
    commit)?  [Some draw] carries the deterministic cut-offset seed. *)
val fire_torn_write : t -> file:string -> int option

(** Does this finished window miss its write deadline?  [Some delay]
    is the number of windows (1..straggler-timeout) it arrives late. *)
val fire_straggler : t -> instance:string -> window:int -> int option

(** Is this completed segment write silently corrupted (byte flip that
    only the digest check can see)?  [Some draw] seeds the flip
    position. *)
val fire_segment_corrupt : t -> file:string -> int option

(** {1 Fleet degradation accounting} *)

(** A crashed instance was restarted from scratch (seeded, attempt-th
    try); the replayed windows are byte-identical by construction. *)
val note_instance_restart : t -> instance:string -> attempt:int -> unit

(** The restart cap is exhausted: windows collected before the final
    crash survive, the rest of the instance's data is lost. *)
val note_instance_lost : t -> instance:string -> unit

(** A torn write was detected (journal intent without commit) and the
    partial file discarded; the segment will be re-collected. *)
val note_write_recovered : t -> file:string -> unit

(** A straggler's window arrived after its deadline and was folded into
    the store out of order (catch-up write). *)
val note_window_catchup : t -> instance:string -> window:int -> unit

(** A corrupt segment failed its digest, was quarantined
    ([*.quarantined]) and queued for bounded re-collection. *)
val note_segment_quarantined : t -> file:string -> reason:string -> unit

(** {1 Degradation accounting} *)

(** A failed optimizing compile was re-queued: the method retries no
    earlier than virtual cycle [until] (exponential in [attempt]). *)
val note_backoff : t -> ts:int -> meth:string -> until:int -> attempt:int -> unit

(** The retry cap is exhausted: the method is pinned at baseline. *)
val note_gaveup : t -> ts:int -> meth:string -> unit

(** A sample was dropped (handler budget overrun); the path register
    was still reset by the instrumentation. *)
val note_sample_dropped : t -> ts:int -> meth:string -> unit

(** A bounded profile table dropped an update (capacity reached). *)
val note_table_overflow : t -> ts:int -> kind:[ `Path | `Edge ] -> meth:string -> unit

(** A corrupt/truncated input (advice, DCG, store entry) was quarantined
    with a structured diagnostic and the work recomputed. *)
val note_quarantine : t -> what:string -> reason:string -> unit

(** {1 Read-back for invariant checks} *)

type counts = {
  compile_fail : int;
  sample_overrun : int;
  store_corrupt : int;
  backoffs : int;
  gaveups : int;
  samples_dropped : int;
  path_overflow : int;
  edge_overflow : int;
  quarantined : int;
  instance_crash : int;
  torn_write : int;
  straggler : int;
  seg_corrupt : int;
  restarts : int;
  lost_instances : int;
  writes_recovered : int;
  catchups : int;
  seg_quarantined : int;
}

val counts : t -> counts

(** Every count zero: what {!counts} reads on a fresh injector. *)
val zero_counts : counts

(** Fold a worker injector's {!counts} into this injector's cells (and
    its metrics, when a sink is attached).  Fleet workers run private
    injectors over disjoint keyed streams; the main domain absorbs
    their read-backs so the run-level accounting identity covers every
    injection regardless of sharding. *)
val absorb : t -> counts -> unit

(** [fault.compile_fail = degrade.compile_backoff + degrade.compile_gaveup],
    [fault.sample_overrun = degrade.sample_dropped],
    [fault.store_corrupt = degrade.input_quarantined],
    [fault.instance_crash = degrade.instance_restart + degrade.instance_lost],
    [fault.torn_write = degrade.write_recovered],
    [fault.straggler = degrade.window_catchup] and
    [fault.seg_corrupt = degrade.seg_quarantined]: every injected
    fault is matched by a recorded graceful response.  [Error] describes
    the first violated identity. *)
val accounted : counts -> (unit, string) result
