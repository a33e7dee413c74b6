(** Keyed tables of flat profile rows.

    Profile rows are flat int arrays: row [k] of a
    stride-[s] array is [a.(k*s) .. a.(k*s + s - 1)], and its {e key} is
    its first two ints (method and path id, method and branch, caller
    and callee).  A [t] holds distinct keys, each with a row of [stride]
    ints, numbered densely in insertion order; finding a key hashes two
    ints and allocates nothing.  Segments and views store rows in
    ascending key order, which {!sorted} produces.

    The profile tables ({!Path_profile.rows}, {!Edge_profile.rows}),
    the run cache's payloads and the fleet's segments and views all
    hold their rows in this form. *)

type t

val create : stride:int -> t

(** Distinct keys held. *)
val length : t -> int

(** The number of [key]'s row, or [-1] when absent. *)
val find : t -> int -> int -> int

(** The number of [key]'s row, appending a row of zeros under it when
    absent (its number is then the previous {!length}). *)
val slot : t -> int -> int -> int

(** [get t row col] and [set t row col x]: column [col] of row [row]
    (columns 0 and 1 hold the key). *)
val get : t -> int -> int -> int

val set : t -> int -> int -> int -> unit

(** [sum t a b src o] adds columns [2 .. stride - 1] of the row at
    offset [o] of [src] into key [(a, b)]'s row. *)
val sum : t -> int -> int -> int array -> int -> unit

(** Every row, back to back, in ascending key order (first int, then
    second, as signed ints). *)
val sorted : t -> int array

(** [delta t rows] is the growth of a cumulative table since the last
    call: [rows] holds rows of [t]'s stride with distinct keys, and [t]
    the last cumulative row seen per key (zeros for a key not seen).
    Returns, in [rows]' order, each row in which some count (a column
    past the key) grew, with every count replaced by its growth — a
    count that fell contributes 0 — and records [rows] in [t].  Over a
    monotone sequence of cumulative tables, the deltas sum to the last
    table: the windowed deltas of the fleet collector and of
    [Exp_drift]. *)
val delta : t -> int array -> int array
