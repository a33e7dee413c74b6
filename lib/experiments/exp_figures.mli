(** The paper's evaluation, one function per table/figure.

    Each function runs (via the shared {!Exp_cache}) whatever
    configurations it needs and returns a {!figure}: per-benchmark rows
    of values plus the summary statistics the paper quotes.  DESIGN.md's
    per-experiment index and EXPERIMENTS.md's paper-vs-measured record
    are keyed by the same ids. *)

type figure = {
  id : string;
  title : string;
  unit_ : string;  (** what the values mean, e.g. "% overhead" *)
  header : string list;  (** value-column labels *)
  rows : (string * float list) list;  (** benchmark name, values *)
  summary : (string * float) list;
  paper : string;  (** the paper's corresponding numbers, for comparison *)
}

val print : figure -> unit

val fig6 : Exp_cache.t list -> figure
val fig7 : Exp_cache.t list -> figure
val fig8 : Exp_cache.t list -> figure
val fig9 : Exp_cache.t list -> figure
val fig10 : Exp_cache.t list -> figure
val fig11 : ?trials:int -> Exp_cache.t list -> figure
val tab_absolute : Exp_cache.t list -> figure
val tab_perfect : Exp_cache.t list -> figure
val tab_blpp : Exp_cache.t list -> figure
val tab_smart : Exp_cache.t list -> figure
val tab_ag : Exp_cache.t list -> figure
val tab_header : Exp_cache.t list -> figure
val tab_onetime : Exp_cache.t list -> figure

(** §6.4's alternate ground truth: PEP's edge profile compared against
    direct edge instrumentation (which also sees code PEP cannot sample). *)
val tab_edgetruth : Exp_cache.t list -> figure

(** Extension: the optimizer's inliner on, measuring its performance
    effect and PEP's accuracy over inlined code (shared branch counters,
    suppressed yieldpoints in inlined uninterruptible loops). *)
val tab_inline : Exp_cache.t list -> figure

(** Extension: loop unrolling on, measuring its performance effect and
    PEP's accuracy over duplicated loop bodies. *)
val tab_unroll : Exp_cache.t list -> figure

(** Comparator (ref [7]): hot paths predicted from a perfect edge
    profile under branch independence vs PEP's sampled paths. *)
val tab_showdown : Exp_cache.t list -> figure

(** Comparator (§2.4, ref [28]): a hardware hot-path table of varying
    size, no counting cost, accuracy limited by capacity; one replay
    feeds every size. *)
val tab_hardware : Exp_cache.t list -> figure

(** Comparator (§2.1, ref [30]): path instrumentation active only during
    initial execution, then dropped. *)
val tab_onetime_paths : Exp_cache.t list -> figure

(** The run-cache slot (file and identity key) of a benchmark's
    comparator entry, [None] when it is not persisted.  The entry holds
    every value tab-hardware, tab-onetime-paths, tab-inline and
    tab-unroll take from replays of their own — the hardware table
    accuracies, the one-time accuracy, and each truth replay's accuracy
    and transform count — under the cache configuration's identity key
    plus [|comparators] ({!Exp_cache.values}).  Whichever of those
    figures is built first computes all of them. *)
val comparators_slot : Exp_cache.t -> (string * string) option

(** All experiment ids, in report order. *)
val ids : string list

(** @raise Not_found for unknown ids. *)
val by_id : string -> Exp_cache.t list -> figure

(** The cacheable runs figure [id] consults, enumerated so a job pool
    ({!Exp_pool}) can compute them up front; a comparator figure also
    lists the base and perfect-path runs its comparator entry is
    computed from.  Derived entries are cached too but are not listed:
    fig11's adaptive series ({!Exp_cache.adaptive}) and the comparator
    entry ({!comparators_slot}) are computed or recalled serially when
    their figure is built.  Nothing else executes when a figure is
    built, so a warm sweep simulates nothing (tab-header's static path
    counts number plans without running a driver).  Unknown ids
    yield []. *)
val prefetch_configs : Exp_cache.t -> string -> Exp_harness.config list

(** Second-stage configurations derivable only from first-stage results
    (fig10's Fixed-table replays, built from the perfect path profile).
    Call after the {!prefetch_configs} runs are installed. *)
val derived_configs : Exp_cache.t -> string -> Exp_harness.config list
