(** Fleet-level chaos sweep: the collector under {!Exp_chaos}'s curated
    fleet fault plans, checked against a healthy run of the same spec.

    The oracle is byte-level recovery convergence.  For each case the
    sweep asserts:

    - the run completes (faults degrade, never crash the collector);
    - {!Fault_injector.accounted}: every injection has a matching
      recorded response;
    - a plan with fleet fault sites actually fired; a plan without
      ([noop]) recorded nothing and left the store byte-identical;
    - a converging plan's store fingerprint — sorted (file, md5) over
      [*.seg] — equals the healthy run's, with no "lost" records in
      the degraded log;
    - a data-losing plan ([doomed]) diverged and accounted every lost
      window in the degraded log;
    - one clean rerun over the faulted store converges it to the
      healthy bytes (a no-op warm rerun when it already converged, a
      full re-collection of lost windows otherwise). *)

type report = {
  flabel : string;
  converges : bool;  (** the case's declared expectation *)
  identical : bool;
      (** faulted store was byte-identical to healthy before the heal
          rerun *)
  counts : Fault_injector.counts option;
  lost : int;  (** "lost" records in the degraded log *)
  rebuilt : int;  (** "rebuilt" records in the degraded log *)
  violations : string list;  (** empty means every invariant held *)
}

(** Sorted (basename, md5 hex) of every [*.seg] in [dir] — the identity
    the convergence invariants compare. *)
val fingerprint : string -> (string * string) list

(** Run the healthy baseline into [dir/healthy], then each case into
    [dir/<label>], returning one report per case in case order. *)
val sweep :
  ?jobs:int ->
  ?cases:Exp_chaos.fleet_case list ->
  dir:string ->
  Fleet_collector.spec ->
  report list

val passed : report list -> bool

(** One line per case (fault and degradation accounting, convergence
    verdict), plus one indented line per violation. *)
val pp_report : report Fmt.t
