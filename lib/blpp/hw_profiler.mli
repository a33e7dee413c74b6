(** A programmable hardware path profiler (paper §2.4, ref [28]).

    Models Vaswani et al.'s design: the processor computes path numbers
    itself and updates a fixed-size on-chip {e hot path table} at every
    path end; accuracy is limited only by table capacity.  The table is
    direct-mapped on a hash of (method, path id); on a miss the resident
    entry's count decays and is evicted when it reaches zero (the
    standard frequent-items policy), so hot paths survive collisions
    with cold ones.

    One profiler feeds several tables of different sizes from one path
    register hook layer, so a single replay measures every size over
    the same stream of path ends; a single size is the one-element
    case.

    Runtime cost charged: what the path register costs and nothing
    more.  The hook layer is {!Profile_hooks.path_hooks} with
    [count_cost:`None], so every register add and reset it executes
    charges [r_update] cycles, exactly as PEP's own register does; the
    table updates at path ends charge nothing (they are hardware).
    However many tables there are, a replay charges what a
    single-table profiler charges.  The comparator isolates the
    accuracy question "how large must the table be?", which the paper
    cites as >90% accuracy for sufficiently large tables. *)

type t

(** [create ~table_sizes ~number machine], every size a power of two
    and the list non-empty. *)
val create :
  table_sizes:int list ->
  number:(int -> Dag.t -> Numbering.t) ->
  Machine.t ->
  t

val hooks : t -> Interp.hooks
val plans : t -> Profile_hooks.plans

(** Snapshot of each table's surviving entries as a path profile, in
    [table_sizes] order. *)
val to_path_profiles : t -> Path_profile.table list

(** Per table, in [table_sizes] order: path ends seen (the same for
    every table) and table misses that evicted an entry. *)
val stats : t -> (int * int) list
