(** Sampled dynamic call graph (paper §4.1: Jikes RVM's yieldpoint
    handler "examines the stack ... and updates the dynamic call graph").

    On each timer tick the adaptive system records the (caller, callee)
    pair of the executing frame; the resulting weighted call graph drives
    inlining decisions and travels in the advice file, like Jikes RVM's
    dynamic call graph does. *)

type t

val create : unit -> t

(** [record t ~caller ~callee] adds one sample; [caller] is -1 when the
    callee is the root invocation. *)
val record : t -> caller:int -> callee:int -> unit

(** [add t ~caller ~callee w] adds [w] samples at once. *)
val add : t -> caller:int -> callee:int -> int -> unit

val weight : t -> caller:int -> callee:int -> int

(** Total samples accumulated for calls from [caller] to [callee]...
    summed over all callers. *)
val callee_weight : t -> callee:int -> int

(** All sampled edges as [(caller, callee, weight)], sorted by weight
    descending (ties by ids). *)
val edges : t -> (int * int * int) list

val total : t -> int
val copy : t -> t

(** One line per edge: ["<caller> <callee> <weight>"]. *)
val to_lines : t -> string list

(** Where and why parsing a serialized profile failed.  Shared with
    {!Advice.of_lines}, whose line numbers refer to the advice file. *)
type parse_error = {
  file : string option;  (** source file, when parsing one *)
  line : int;  (** 1-based position in the input *)
  text : string;  (** the offending line, trimmed *)
  reason : string;
}

val pp_parse_error : parse_error Fmt.t

(** Parse one ["<caller> <callee> <weight>"] line into [t] (blank lines
    are ignored); [Error reason] leaves [t] unchanged. *)
val parse_line : t -> string -> (unit, string) result

(** [set_row t ~caller ~callee w] stores one parsed line's edge: the
    check and the update {!parse_line} applies to
    ["<caller> <callee> <w>"], for readers that hold the numbers
    already. *)
val set_row : t -> caller:int -> callee:int -> int -> (unit, string) result

val of_lines : ?file:string -> string list -> (t, parse_error) result
