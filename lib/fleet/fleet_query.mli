(** Queries over the fleet's segment store: hotspots, folded-stack
    export, and rule-based diff triage.

    Every function is a pure function of the segments it is given, and
    every result is deterministically ordered — reruns, job counts and
    store layouts never change query output. *)

(** Segment selection: by cohort name and/or an inclusive window-index
    range (a segment qualifies when its window overlaps the range). *)
type filter = { cohort : string option; lo : int option; hi : int option }

(** No constraints. *)
val any : filter

(** Filtered segments, with raw segments shadowed by any same-cohort
    merged segment covering their window. *)
val select : Fleet_store.segment list -> filter -> Fleet_store.segment list

(** Aggregated profile over a segment list, rows re-keyed through a
    unified method-name table (segments may disagree on dense
    indexes).  Rows are flat int arrays as in {!Fleet_store.rows}, one
    row per distinct key (first two ints), in ascending key order. *)
type view = {
  methods : string array;
      (** names in order of first appearance in row order: each
          segment's path rows, then edge rows, then DCG rows (callee
          before caller) *)
  paths : int array;  (** stride 3: method idx, path id, count *)
  edges : int array;
      (** stride 4: method idx, branch, taken, not-taken *)
  dcg : int array;  (** stride 3: caller idx (-1 root), callee, weight *)
  samples : int;
  segments : int;
  span : Fleet.Window.t option;
}

(** Decodes each segment's rows ({!Fleet_store.rows}) and sums them;
    method index [i] outside a segment's table stands for the name
    ["m#i"], and every negative DCG caller for the root. *)
val view : Fleet_store.segment list -> view

val name_of : view -> int -> string

type kind = Profile_export.kind

(** Top-[n] hotspots, scored with per-window exponential decay
    ([count * decay^(latest_window - window)]): recent windows
    dominate, sustained heat still beats a one-window spike.  Labels
    are ["method/path#id"], ["method/br#id"] or ["caller->callee"];
    ordered by score descending, ties by label. *)
val top :
  ?decay:float ->
  n:int ->
  kind ->
  Fleet_store.segment list ->
  (string * float) list

(** Folded stacks over a view, in [pepsim top]'s exact frame
    vocabulary ({!Profile_export.paths_of} and friends).  Only DCG rows
    with a positive weight enter the call graph the stacks are built
    on: a row whose summed weight is zero or negative is left out of
    the hot chains and of the [`Dcg] stacks, though {!top} counts it.
    Path and edge rows of a method index outside [methods] are left
    out. *)
val folded : kind -> view -> Folded.t

(** Triage thresholds. *)
type thresholds = {
  new_share : float;
      (** share of current path executions making an unseen path hot *)
  edge_shift : float;  (** taken-bias delta flagging a flow shift *)
  min_edge : int;  (** branch traffic below this is noise *)
  min_dcg : int;  (** callee weight below this is noise *)
}

val default_thresholds : thresholds

type finding =
  | New_hot_path of { meth : string; path_id : int; share : float }
      (** a path never recorded in the baseline now carries a
          non-trivial share of all path executions *)
  | Edge_shift of {
      meth : string;
      branch : int;
      from_bias : float;
      to_bias : float;
    }  (** a branch's taken-bias moved by at least [edge_shift] *)
  | Caller_change of {
      callee : string;
      from_caller : string;
      to_caller : string;
    }  (** a callee's dominant sampled caller moved *)

val render_finding : finding -> string

(** A baseline view indexed for triage: its path and edge rows and
    its callees' dominant callers, keyed by method name.  Index a
    baseline once to diff many current views against it. *)
type indexed

val index : view -> indexed

(** Rule-based triage of [current] against an indexed baseline; joins
    are by method name.  Each finding comes with its {!render_finding},
    rendered once, and the list is sorted by it. *)
val diff_indexed :
  ?thresholds:thresholds -> indexed -> current:view -> (string * finding) list

(** The findings of [diff_indexed] against [index baseline]. *)
val diff :
  ?thresholds:thresholds ->
  baseline:view ->
  current:view ->
  unit ->
  finding list
