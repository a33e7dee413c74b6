(** The bytecode verifier: the one implementation of the checks every
    method body must pass before anything executes or analyses it.

    One pass per method ({!check}) computes the operand-stack depth at
    every block entry by forward dataflow over {!Instr.stack_effect} and
    demands agreement at join points, no underflow at any instruction, a
    condition for every [Br], and depth 1 at the exit block's [Ret].
    Structural checks ride along: entry and exit blocks and jump targets
    in range, [nparams] within [nlocals], local and global indices in
    bounds, [Rand] bounds positive, every [Call] resolving in the
    program's method table with matching arity, the exit block holding
    the only [Ret], and every block reachable.  The pass keeps going after
    a violation and reports each one as a ["bytecode"] {!Diagnostic.diagnostic}
    at its method, block or instruction.

    Two interfaces share that pass.  Loaders and the machine use the
    raise-first one ({!program}, {!block_depths}, {!max_stack}): the
    first error, worded as its location and message, becomes {!Error}.
    Audits use the keep-going one ({!check}, {!check_program}), which is
    what {!Pep_check} reports as pass 1 and what the VM driver runs on
    inlined, unrolled and laid-out bodies; those bodies need not be
    members of the program, which supplies only the linking context
    ([n_globals], the method table).  {!Compile} output always
    verifies. *)

exception Error of string

(** Callee arities by method name, built once per program and shared by
    the checks of all its methods. *)
type arities

val arities : Program.t -> arities

type result = {
  depths : int array;
      (** stack depth at entry to each block; -1 where never reached *)
  max_stack : int;
      (** deepest operand stack after any instruction of a reached block:
          the bound the machine compiles into the method *)
  diagnostics : Diagnostic.diagnostic list;
      (** every violation, in the order the pass found it *)
}

(** The pass over one method.  [arities] defaults to [arities program]. *)
val check : ?arities:arities -> Program.t -> Method.t -> result

(** Program-level checks (heap and global sizes, duplicate method names,
    a parameterless [main]) followed by {!check} of every method. *)
val check_program : Program.t -> Diagnostic.diagnostic list

(** Stack depth at entry to each block of a verified method.
    @raise Error on the method's first error. *)
val block_depths : Program.t -> Method.t -> int array

(** The method's [max_stack] ({!result}).
    @raise Error on the method's first error. *)
val max_stack : ?arities:arities -> Program.t -> Method.t -> int

(** {!check_program}, then CFG construction of every method, which
    enforces the single-exit / reaches-exit shape.
    @raise Error on the first error of either. *)
val program : Program.t -> unit
