(** Replay-compilation advice files (paper §5).

    An advice file records, from a previous well-performing adaptive run,
    (1) the final optimization level of every method and (2) the edge
    profile produced by baseline-compiled code.  Replay compilation
    applies the advice deterministically: each method is compiled to its
    advised level at first invocation, eliminating the timer-dependent
    variation of the adaptive system.  (The paper's advice also carries
    the dynamic call graph, which only feeds inlining decisions Jikes
    makes; our optimizer has no inliner-equivalent decision to replay,
    so it is omitted — see DESIGN.md.) *)

type t = {
  levels : int array;  (** per method: -1 = leave at baseline, else 0..2 *)
  profile : Edge_profile.table;  (** one-time baseline edge profile *)
  dcg : Dcg.t;  (** sampled dynamic call graph *)
}

val n_opt : t -> int

(** One entry of an advice: a method's level, one branch's baseline
    counters, or one sampled call edge — a line of {!to_lines} as
    numbers. *)
type row =
  | Level of { meth : int; level : int }
  | Edge of { meth : int; branch : int; taken : int; not_taken : int }
  | Call of { caller : int; callee : int; weight : int }

(** Every row, in {!to_lines} order: one level per method, the edge
    counters by method and branch, the call edges by weight. *)
val rows : t -> row list

(** Rebuild an advice from its rows, under the checks {!of_lines}
    applies to the same numbers in text: a level's method index is in
    range, edge counters name a method in range and are non-negative,
    call weights are positive.  An error's [line] is the 1-based row
    position and its [text] the row's {!to_lines} rendering. *)
val of_rows :
  ?file:string -> n_methods:int -> row list -> (t, Dcg.parse_error) result

(** Textual round-trip, for writing advice next to benchmark results. *)
val to_lines : t -> string list

(** Parse a serialized advice file.  Each non-blank line is exactly
    one {!row}: its keyword, then exactly that row's numbers ([edge]
    with no numbers, or with three, is malformed).  Every row then
    passes the checks {!of_rows} applies.  A malformed or rejected line
    yields a {!Dcg.parse_error} naming the file (when given), the
    1-based line number, the offending text and the reason. *)
val of_lines :
  ?file:string -> n_methods:int -> string list -> (t, Dcg.parse_error) result
