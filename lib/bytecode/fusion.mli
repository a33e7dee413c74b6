(** Superinstruction planning.

    The execution engine fuses adjacent instruction pairs/triples into
    single dispatched superinstructions (ROADMAP: Engine v2).  The
    planner here is deliberately dumb and deterministic: given a method
    body, it scans every block {!block_fusable} admits left to right,
    greedily matching the longest catalog pattern at each position, and
    emits a {!witness} — the exact fusion table the engine compiles.

    Fusion never crosses a block boundary and never touches a block
    containing a call (a call needs its own frame mid-sequence), so a
    superinstruction can only reorder work {e within} one block — and
    virtual cycles are charged per block, never per instruction, which
    is why fusion is observationally neutral: cycle counts, hook events
    and results are bit-identical to unfused code.  The witness exists
    so that neutrality does not rest on this argument alone:
    {!Pep_check.validate_fusion} re-derives every entry independently
    (effect summaries via {!Effects}, pattern shapes from the bytecode)
    and rejects tables this planner could never have produced. *)

type pattern =
  | LL of Instr.binop  (** [Load a; Load b; Binop op] — push [a op b] *)
  | LK of Instr.binop  (** [Load a; Const k; Binop op] — push [a op k] *)
  | KStore  (** [Const k; Store l] *)
  | LStore  (** [Load a; Store l] *)
  | LRet  (** [Load a; Ret] — folds the block terminator *)
  | CmpBr of Instr.cmp  (** [Cmp c; Br] — folds the block terminator *)
  | LLCmpBr of Instr.cmp  (** [Load a; Load b; Cmp c; Br] *)
  | LKCmpBr of Instr.cmp  (** [Load a; Const k; Cmp c; Br] *)
  | KCmpBr of Instr.cmp  (** [Const k; Cmp c; Br] — top of stack vs [k] *)
  | LJmp  (** [Load a; Jmp] — push then transfer *)
  | StJmp  (** [Store l; Jmp] — pop into a local then transfer *)
  | IncJmp  (** [Inc (l, k); Jmp] — the classic loop latch *)

(** One fused sequence: [flen] body instructions of block [fblock]
    starting at [fstart], plus the block terminator when [fterm]. *)
type entry = {
  fblock : int;
  fstart : int;
  flen : int;
  fterm : bool;
  fpattern : pattern;
}

(** A fusion table for one compiled form: the generation stamp it was
    planned against and the entries in ascending (block, start) order,
    non-overlapping. *)
type witness = { fgen : int; fentries : entry list }

(** Binops with a fused implementation in the engine (total operators
    only — [Div]/[Rem]/[Shl]/[Shr] keep their guarded generic form). *)
val supported_binop : Instr.binop -> bool

(** May this block be fused at all?  Syntactic: no call instruction.
    {!Effects.fusable} derives the same predicate from effect summaries;
    the validator cross-checks the two. *)
val block_fusable : Method.block -> bool

(** [match_at blk i] — the longest catalog pattern starting at body
    index [i] of [blk], as [(pattern, len, term)].  Deterministic; the
    validator re-runs it to audit planned tables. *)
val match_at : Method.block -> int -> (pattern * int * bool) option

(** [plan ~gen m] — greedy left-to-right plan over every block
    {!block_fusable} admits. *)
val plan : gen:int -> Method.t -> witness

(** Net operand-stack effect of a fused sequence (e.g. [LL _] pushes
    one; [LLCmpBr _] pushes nothing and consumes the branch condition
    internally). *)
val stack_delta : pattern -> int

val pattern_name : pattern -> string
val pp_entry : entry Fmt.t
