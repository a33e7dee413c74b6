(** Edge profiles: taken/not-taken counters per bytecode branch.

    This is the profile shape Jikes RVM's baseline compiler collects and
    its optimizing compiler consumes (paper §4.2): one pair of counters
    per bytecode-level conditional branch.  A per-program profile is a
    {!table} indexed by dense method index. *)

type counter = { mutable taken : int; mutable not_taken : int }

(** Per-method edge profile. *)
type t

val create : unit -> t
val incr : t -> Cfg.branch_id -> taken:bool -> unit
val add : t -> Cfg.branch_id -> taken:bool -> int -> unit
val counter : t -> Cfg.branch_id -> counter option

(** {2 Bounded tables (degrade-don't-crash, paper §3.2)}

    A capacity bounds the {e distinct branches} counted, modelling the
    fixed-size profile tables of a production VM.  {!add}/{!incr}/
    {!parse_line} on a full table drop updates that would create a new
    counter (counted in {!overflow}); updates to present counters
    always land.  Default: unbounded.  {!copy} preserves capacity and
    overflow; {!clear} resets the overflow count. *)

val set_capacity : t -> int option -> unit
val capacity : t -> int option

(** Updates dropped because the table was full. *)
val overflow : t -> int

(** Executions of the branch (taken + not-taken); 0 when never seen. *)
val freq : t -> Cfg.branch_id -> int

(** Fraction of executions that took the branch; [None] when never seen. *)
val bias : t -> Cfg.branch_id -> float option

val branch_ids : t -> Cfg.branch_id list

(** [(branch, (taken, not_taken))] for every branch seen, sorted by
    branch id — the deterministic bulk accessor the fleet collector
    diffs consecutive snapshots with. *)
val entries : t -> (Cfg.branch_id * (int * int)) list

val total : t -> int
val is_empty : t -> bool
val copy : t -> t
val clear : t -> unit

(** Swap every taken/not-taken pair (the "flipped" profile of paper §6.5). *)
val flip : t -> t

(** Per-program profile, one slot per method. *)
type table = t array

val create_table : n_methods:int -> table
val copy_table : table -> table
val flip_table : table -> table
val table_total : table -> int

(** Total dropped updates across the table. *)
val table_overflow : table -> int

(** One line per branch: ["<method-index> <branch> <taken> <not-taken>"].
    [of_lines] is its inverse.
    @raise Failure on malformed input. *)
val to_lines : table -> string list

val of_lines : n_methods:int -> string list -> table

(** Parse one serialized line into [tbl] (blank lines are ignored);
    [Error reason] leaves [tbl] unchanged.  Lets callers that track
    their own line numbers (e.g. [Advice.of_lines]) report structured
    errors instead of the [Failure] that {!of_lines} raises. *)
val parse_line : table -> string -> (unit, string) result

(** [add_row tbl mi b ~taken ~not_taken] adds one parsed line's counts:
    the checks and the update {!parse_line} applies to
    ["<mi> <b> <taken> <not-taken>"], for readers that hold the numbers
    already (the run cache's binary advice entries). *)
val add_row :
  table -> int -> Cfg.branch_id -> taken:int -> not_taken:int -> (unit, string) result

val pp : t Fmt.t
