(** Accuracy over time: windowed PEP accuracy against ground truth
    under drifting traffic.

    The paper evaluates accuracy once, at end of run — which cannot
    distinguish a {e continuous} profiler from a one-shot one.  This
    module drives a single replay instance through [windows] collection
    windows (one application iteration each, fleet-style compressed
    timer), advancing the workload's phase global per a traffic
    [schedule] between windows, and scores every window twice:

    - {e fresh} accuracy — this window's PEP path/edge delta against
      this window's ground-truth delta (both collected concurrently:
      a masked perfect path profiler rides the same driver, edge truth
      is derived from it per paper §6.4);
    - {e stale} accuracy — the {e previous} window's PEP delta against
      this window's truth, i.e. what a consumer acting on the latest
      published profile would experience.

    At a phase shift the stale score collapses (the published profile
    describes paths that no longer run) and then recovers within a
    window once PEP has re-sampled the new regime; [recovered] reports
    whether that recovery reached [threshold] after every shift, which
    is what the regression suite pins.  Everything is deterministic:
    same spec, seed and schedule give a byte-identical series. *)

type point = {
  window : int;
  phase : int;  (** phase in effect while this window ran *)
  samples : int;  (** PEP samples taken this window *)
  path_acc : float;  (** fresh: Wall path accuracy, this window *)
  edge_acc : float;  (** fresh: relative edge overlap, this window *)
  stale_path_acc : float;  (** previous window's profile vs this truth *)
  stale_edge_acc : float;
}

type series = {
  workload : string;
  windows : int;
  threshold : float;
  schedule : int list;  (** phase per window *)
  shifts : int list;  (** windows whose phase differs from their predecessor *)
  points : point list;
  recovered : bool;
      (** after every shift there is a later window, before the next
          shift, whose stale path {e and} edge accuracy are both at or
          above [threshold] *)
}

(** The stated recovery threshold (0.80). *)
val default_threshold : float

(** Run the windowed series over a generated spec: PEP(64,17) under a
    sampling timer compressed 8x, like the fleet collector's, for
    [windows] windows (default {!Wgen.default_windows}) of the spec's
    canonical {!Wgen.schedule}.  [size]/[seed] default to the
    workload's default size and 42. *)
val run_spec :
  ?windows:int ->
  ?threshold:float ->
  ?size:int ->
  ?seed:int ->
  Wgen.spec ->
  series

val to_json : series -> string

(** The series as a printable figure: one row per window, fresh and
    stale scores as columns. *)
val figure : series -> Exp_figures.figure
