(** Flat-code execution engine (engine v2).

    The production counterpart of the {!Interp} oracle.  Each compiled
    form ({!Machine.cmeth}) is translated once into flat, preallocated
    arrays — an int-coded opcode array plus parallel operand arrays —
    and executed by one tight tail-recursive loop over a program
    counter.  No per-instruction closures exist and recompiles rebuild
    nothing but the arrays.

    {b Superinstructions.}  Adjacent instruction pairs/triples are
    fused into single dispatched opcodes in every block that
    {!Fusion.block_fusable} admits (no call).  The fusion table for each
    translation is the deterministic {!Fusion.witness} planned for the
    method's generation, auditable with [Pep_check.validate_fusion].
    Virtual cycles are charged per block, so fusion is observationally
    neutral by construction.

    {b Inline caches.}  Every call site caches the callee's translation
    under the generation stamp ({!Machine.cmeth.gen}) it was made from;
    a miss refills the entry.  A site's callee is fixed and stamps are
    never reused, so one entry per site is all a cache could use.
    Steady-state calls never consult the method table and allocate
    nothing in bare (hook-free) execution.

    {b Sparse hooks, lowered path layers.}  The engine keeps the
    composition as its list of layers ({!Interp.hooks}).  A translation
    lists, per block transfer and in list order, what each layer does
    there: a layer's [on_edge] where its [Interp.layer.edge_site] says
    it acts, its [on_yieldpoint] at every yieldpoint, and a path layer's
    plan ([Interp.layer.path]) as flat operations on its path register.  A
    transfer with nothing to do, or whose only work is one path layer's
    [r += add] and at most one path end at the destination's yieldpoint,
    takes one fast path in hooked and bare runs alike, with the
    destination's cost and the add's [r_update] baked, the poll inline,
    and [on_path_end] called only where the layer says it can act; the
    timer's [on_tick] runs only at a poll that finds the tick due.  Any
    other transfer is observed and runs its list in the oracle's order.
    Every hooked call runs the layers' [on_entry] and [on_exit], and a
    due tick their [on_tick], each sequenced once per {!set_hooks}.  A
    frame whose compiled form changes under it (a hook runs
    {!Machine.set_speed} or {!Machine.recompile} on its method) runs the
    rest of that hook point, and then every transfer, through the
    layers' closures from the first layer on, which read the live plans
    and act on the same registers, so layers whose sites or plans change
    with a generation bump see exactly what the oracle shows them.

    Semantics are bit-identical to the oracle: same virtual cycle
    counts, same yieldpoint firings, same hook event order (minus
    [on_edge] calls where no layer acts, which the site contract makes
    inert, and minus a path layer's [on_edge]/[on_yieldpoint] calls,
    whose work runs lowered, and its [on_path_end] calls where it says
    they cannot act), same results.  Layout penalties are read through the
    captured compiled form at execution time, so in-place mutation by
    [Layout.apply] and {!Machine.clear_edge_extra} affects even frames
    currently executing, exactly as in the oracle. *)

type t

(** [create ?telemetry ?fuse ?hooks machine] builds an engine over
    [machine].  Nothing is translated until first dispatch; methods are
    translated lazily, at most once per generation stamp.  [fuse]
    (default [true]) compiles superinstructions; [false] is the unfused
    ablation.

    With [telemetry], the engine registers and maintains the
    [engine.translations], [engine.ic.hits] / [engine.ic.misses] and
    [engine.fuse.blocks] / [engine.fuse.sites] counters (host-side
    only: no simulated cycles, no allocation on the hot path).  Without
    it no counters exist and execution is identical to a pre-telemetry
    engine. *)
val create :
  ?telemetry:Telemetry.t -> ?fuse:bool -> ?hooks:Interp.hooks -> Machine.t -> t

(** Replace the engine's hooks.  Drops every translation (and with them
    their inline caches): each lowered its transfers' work under the old
    hooks.
    Must not be called while the engine is executing. *)
val set_hooks : t -> Interp.hooks -> unit

(** The fusion table a translation of method [midx]'s current form
    compiles (empty when the engine was created with [~fuse:false]):
    pure planning, no translation side effects.  Feed this to
    [Pep_check.validate_fusion]. *)
val fusion_witness : t -> int -> Fusion.witness

(** [call engine name args] invokes method [name], like {!Interp.call}.
    @raise Interp.Runtime_error on call-stack overflow. *)
val call : t -> string -> int array -> int

(** Run the program's main method. *)
val run : t -> int
