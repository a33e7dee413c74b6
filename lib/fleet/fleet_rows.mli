(** Keyed tables of flat profile rows.

    The fleet keeps its profile rows in flat int arrays: row [k] of a
    stride-[s] array is [a.(k*s) .. a.(k*s + s - 1)], and its {e key} is
    its first two ints (method and path id, method and branch, caller
    and callee).  A [t] holds distinct keys, each with a row of [stride]
    ints, numbered densely in insertion order; finding a key hashes two
    ints and allocates nothing.  Segments and views store rows in
    ascending key order, which {!sorted} produces. *)

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
