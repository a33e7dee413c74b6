(** Standard timer-tick driver.

    Jikes RVM's interrupt handler sets a flag that every yieldpoint polls;
    the yieldpoint handler then runs system work (method sampling, GC
    checks) and rearms the timer (paper §4.1).  This module is that
    handler, as one [on_tick] layer ({!Interp.layer}), so a yieldpoint
    whose poll finds the flag clear runs no hook of it: at the first
    yieldpoint that observes the flag, it charges the handler cost,
    raises the machine's one-shot [tick_pending] token for downstream
    samplers (PEP consumes it to start a sampling burst), invokes
    [on_tick] (the adaptive system's method sampler), and rearms the
    timer.

    The driver belongs in {e every} configuration, including the base
    one: its costs are part of the unprofiled system, so profiling
    overheads are measured net of it. *)

val hooks : ?on_tick:(Machine.t -> Interp.frame -> unit) -> unit -> Interp.hooks

(** Method-sample counters filled by {!sampling_hooks}. *)
type method_samples = int array

(** Tick driver whose [on_tick] counts one sample for the executing
    method, as Jikes RVM's adaptive system does. *)
val sampling_hooks : Machine.t -> Interp.hooks * method_samples
