(** Deterministic fault plans (the degrade-don't-crash axis).

    PEP is explicitly a graceful-degradation design: methods whose CFGs
    exceed the path limit fall back to edge profiling, fixed-size
    profile tables drop updates on overflow, and samples that cannot be
    stored are lost (paper §3.2, §4.3).  A fault plan makes the rest of
    that story injectable and provable: it is a {e pure description} of
    which faults fire, parsed from a [--faults] spec, with every
    decision derived from the plan's seed and a per-site event counter —
    never from wall-clock time or I/O — so a faulted run is exactly as
    reproducible as a healthy one.

    The spec is a comma-separated list of clauses:

    {v
    seed=N               decision-stream seed (default 0)
    noop                 mark the plan active without injecting anything
    path-cap=N           per-method path-table capacity (distinct paths)
    edge-cap=N           per-method edge-table capacity (distinct branches)
    compile-fail=P       probability in [0,1] that an optimizing compile fails
    compile-retries=N    failed-compile retry cap (default 3)
    compile-backoff=N    base virtual-cycle backoff before a retry (default 50000)
    sample-overrun=P     probability the sample handler overruns its budget
    corrupt=P            probability a persisted run-cache entry is written corrupted
    crash=P              probability a fleet instance crashes in a given window
    crash-restarts=N     seeded-restart cap before an instance is declared lost (default 4)
    torn-write=P         probability a segment write is torn (a prefix in a temp file, no rename)
    straggler=P          probability a finished window misses its write deadline
    straggler-timeout=N  windows of delay before a straggler is force-collected (default 2)
    seg-corrupt=P        probability a completed segment write is silently corrupted
    seg-retries=N        re-collection rounds (injection live) before a forced clean write (default 3)
    v}

    A spec starting with [@] names a file holding clauses (one per line
    or comma-separated; [#] comments allowed).  The empty spec is
    {!empty}: no injection machinery is created at all, and the run is
    bit-identical to a build without the fault subsystem.  The [noop]
    plan creates the full machinery but never fires — the cheap way to
    prove the threading itself costs no simulated cycles. *)

type t = {
  seed : int;
  noop : bool;  (** active but inert (see above) *)
  path_capacity : int option;
  edge_capacity : int option;
  compile_fail : float;
  compile_retries : int;
  compile_backoff : int;
  sample_overrun : float;
  corrupt : float;
  crash : float;
  crash_restarts : int;
  torn_write : float;
  straggler : float;
  straggler_timeout : int;
  seg_corrupt : float;
  seg_retries : int;
}

val empty : t

(** No clause beyond [seed] is set: no injector is built, the run takes
    the exact pre-fault code paths. *)
val is_empty : t -> bool

(** The plan can change what the simulated machine does (table bounds,
    compile failures, sample overruns) — as opposed to plans that only
    perturb host-side input handling ([corrupt], [noop]).  Runs under a
    perturbing plan are never persisted to the run cache: a rebuild
    precompiles in method-index order, which would re-order the
    fault-decision stream relative to the live run's lazy compilation. *)
val perturbs_execution : t -> bool

(** The plan injects fleet-collector faults (instance crashes, torn or
    corrupt segment writes, stragglers).  These are host-side only: the
    simulated machines stay byte-deterministic, so a converging fleet
    plan must heal back to the exact healthy store. *)
val perturbs_fleet : t -> bool

(** Parse a spec string ([@file] indirection included).
    [Error reason] pinpoints the offending clause. *)
val parse : string -> (t, string) result

(** {!parse}, raising [Invalid_argument] — for trusted callers
    (curated chaos plans). *)
val parse_exn : string -> t

(** Canonical compact rendering: [parse (key t)] round-trips, distinct
    plans have distinct keys, and the key is stable for use inside
    {!Exp_harness.config_key}-style cache identities. *)
val key : t -> string

val pp : t Fmt.t
