(** Bytecode instructions.

    The VM is an integer stack machine with per-frame locals, a global
    scalar area, and one global heap array.  Arithmetic is 63-bit OCaml
    [int] arithmetic; division and remainder by zero yield 0 so workloads
    never fault.  [Rand] draws from the VM's deterministic PRNG, which is
    how synthetic workloads obtain realistic (but reproducible) branch
    behaviour. *)

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of int  (** push constant *)
  | Load of int  (** push local *)
  | Store of int  (** pop into local *)
  | Inc of int * int  (** [Inc (l, k)]: local [l] += [k]; stack untouched *)
  | Binop of binop  (** pop b, pop a, push [a op b] *)
  | Cmp of cmp  (** pop b, pop a, push 1 if [a cmp b] else 0 *)
  | Neg
  | Not  (** pop v, push 1 if v = 0 else 0 *)
  | Dup  (** pop v, push v twice: net effect one deeper *)
  | Pop  (** discard the top of stack *)
  | GLoad of int  (** push global scalar *)
  | GStore of int  (** pop into global scalar *)
  | AGet  (** pop index, push heap[index mod heap size] *)
  | ASet  (** pop value, pop index, heap[index mod heap size] := value *)
  | Call of string * int
      (** [Call (callee, argc)]: pop [argc] arguments (last on top), push
          the callee's single result — net effect [argc - 1] shallower *)
  | Rand of int  (** push a deterministic pseudo-random value in [0, n) *)

(** Stack effect [(pops, pushes)] of an instruction, as the interpreter
    executes it.  Total over every constructor — [Call (_, argc)] is
    [(argc, 1)], [Dup] is [(1, 2)], [Pop] is [(1, 0)], [Inc] is [(0, 0)].
    The bytecode verifier's dataflow ({!Verify.check}) is
    abstract interpretation over exactly this function, and a test
    cross-checks it against the interpreter on every opcode. *)
val stack_effect : t -> int * int

val eval_binop : binop -> int -> int -> int
val eval_cmp : cmp -> int -> int -> bool
val pp_binop : binop Fmt.t
val pp_cmp : cmp Fmt.t
val pp : t Fmt.t
