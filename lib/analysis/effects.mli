(** Per-block and per-method effect / purity summaries.

    An effect set over-approximates what executing a piece of code can
    observe or change beyond its own frame: global scalar reads/writes,
    heap reads/writes, PRNG draws, and calls.  Block summaries are
    syntactic; method summaries close the call graph to a fixpoint, so
    [writes_global (method_summary s m) = false] is a proof that running
    method [m] (including everything it transitively calls) leaves every
    global scalar untouched — the property the fuzz suite checks against
    {!Interp} runs.

    The block-level summary is the safety precondition for
    superinstruction fusion (ROADMAP: Engine v2): a
    fused sequence must not contain a call (it needs its own frame), and
    motion across a yieldpoint additionally requires the moved suffix to
    be {!observable}-free, or a sampler could observe a state the
    unfused code never exposes. *)

type t = {
  reads_global : bool;
  writes_global : bool;
  reads_heap : bool;
  writes_heap : bool;
  draws_rand : bool;
  calls : bool;
}

val pure : t
(** The empty effect: touches nothing beyond locals and the stack. *)

val union : t -> t -> t
val equal : t -> t -> bool
val pp : t Fmt.t

(** [observable e] — can code with effect [e] be noticed by the rest of
    the system without running to the method's return?  True on any
    global/heap write or PRNG draw. *)
val observable : t -> bool

(** [fusable e] — may a block with effect [e] be folded into a single
    superinstruction?  Requires no call; everything else folds. *)
val fusable : t -> bool

(** Syntactic effect of one block in isolation — no program context, so
    it works on optimizer-transformed bodies that exist only inside the
    machine.  Agrees with {!block_effect} on program members. *)
val block_summary : Method.block -> t

type summary

val summarize : Program.t -> summary

(** Syntactic effect of one block of one method (calls not resolved). *)
val block_effect : summary -> int -> int -> t

(** Transitive effect of invoking the method: its blocks' effects joined
    with every transitively-called method's.  [calls] is true iff the
    method can make any call at all. *)
val method_effect : summary -> int -> t

(** Blocks of a method that satisfy {!fusable}. *)
val fusable_blocks : summary -> int -> int list
