(** Path profiles: per-method frequency tables keyed by Ball-Larus path
    number.

    Each entry memoizes, once known, the path's constituent CFG edges and
    its length in branches ([b_p] of the branch-flow metric, paper §6.3).
    PEP's sampler fills the memo the first time a path is sampled and
    reuses it afterwards (paper §4.3). *)

type entry = {
  path_id : int;
  mutable count : int;
  mutable edges : Cfg.edge list option;  (** memoized expansion *)
  mutable n_branches : int;
      (** branch edges on the path; -1 until the expansion is memoized *)
}

(** Per-method path profile. *)
type t

val create : unit -> t
val incr : t -> int -> unit
val add : t -> int -> int -> unit
val find : t -> int -> entry option

(** Entry, created with count 0 if absent — ignoring any capacity bound
    (ground-truth profilers are never bounded).  Bounded writers use
    {!entry_opt}. *)
val entry : t -> int -> entry

(** Like {!entry}, but respects the table's {!capacity}: [None] means
    the update was dropped and counted in {!overflow}. *)
val entry_opt : t -> int -> entry option

(** {2 Bounded tables (degrade-don't-crash, paper §3.2)}

    A capacity bounds the {e distinct paths} stored, modelling the
    fixed-size profile tables of a production VM.  {!add}/{!incr}/
    {!add_row} on a full table drop updates that would create a new
    entry (counted in {!overflow}); updates to present entries always
    land.  Default: unbounded. *)

val set_capacity : t -> int option -> unit
val capacity : t -> int option

(** Updates dropped because the table was full; {!clear} resets it. *)
val overflow : t -> int

val entries : t -> entry list

(** Total path executions recorded. *)
val total : t -> int

val n_distinct : t -> int
val is_empty : t -> bool
val clear : t -> unit
val iter : (entry -> unit) -> t -> unit

(** Per-program profile, one slot per method. *)
type table = t array

val create_table : n_methods:int -> table
val table_total : table -> int

(** Total dropped updates across the table. *)
val table_overflow : table -> int

(** Every path with a positive count as a flat stride-3 row (method
    index, path id, count), by method, then by path id: the table's
    contents as the run cache stores them and the fleet collector diffs
    them ({!Fleet_rows}). *)
val rows : table -> int array

(** [add_row tbl mi path_id ~count] adds one row's count to method
    [mi]'s table, after the checks every reader applies: [mi] names a
    method of [tbl], [path_id >= 0] and [count > 0].  [Error reason]
    leaves [tbl] unchanged.  A full table drops the update as {!add}
    does (still [Ok]). *)
val add_row : table -> int -> int -> count:int -> (unit, string) result

(** {!rows} rendered for people, one line per row: ["<method-index>
    <path-id> <count>"] (memoized expansions are not serialized; they
    are re-derivable from the P-DAG). *)
val to_lines : table -> string list

val pp : t Fmt.t
