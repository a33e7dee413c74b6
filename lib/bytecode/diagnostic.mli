(** Located diagnostics: what the bytecode verifier ({!Verify}) and the
    static-analysis passes ({!Pep_check}) report instead of booleans or
    exceptions, so a caller can say which pass rejected what, and where. *)

type severity = Error | Warning | Info

(** Where a diagnostic points.  Method names key all locations; block,
    instruction, edge and node ids follow the conventions of the layer
    the pass inspects. *)
type location =
  | Program_loc
  | Method_loc of string
  | Block_loc of string * int  (** method, block id *)
  | Instr_loc of string * int * int  (** method, block id, instruction index *)
  | Edge_loc of string * int * int  (** method, source block, destination block *)
  | Node_loc of string * int  (** method, DAG node *)
  | Branch_loc of string * Cfg.branch_id
  | Path_loc of string * int  (** method, Ball-Larus path id *)

type diagnostic = {
  severity : severity;
  pass : string;  (** which pass produced it: ["bytecode"], ["cfg"], ["dag"], ["numbering"], ["profile"], or a caller-supplied relabel *)
  loc : location;
  message : string;
}

val pp_severity : severity Fmt.t
val pp_location : location Fmt.t
val pp_diagnostic : diagnostic Fmt.t

(** One diagnostic per line, then an error/warning count line. *)
val pp_report : diagnostic list Fmt.t

val errors : diagnostic list -> diagnostic list
val has_errors : diagnostic list -> bool

(** Relabel the [pass] field, e.g. [with_pass "bytecode@inline"] to record
    which optimization stage the verified body came from. *)
val with_pass : string -> diagnostic list -> diagnostic list
