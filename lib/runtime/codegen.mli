(** Flat-code execution engine (engine v2).

    The production counterpart of the {!Interp} oracle.  Each compiled
    form ({!Machine.cmeth}) is translated once into flat, preallocated
    arrays — an int-coded opcode array plus parallel operand arrays —
    and executed by one tight tail-recursive loop over a program
    counter.  No per-instruction closures exist and recompiles rebuild
    nothing but the arrays.  Two profile-guided tiers sit on top:

    {b Superinstructions.}  Hot adjacent instruction pairs/triples are
    fused into single dispatched opcodes.  Hot blocks come from the
    VM's own PEP edge profile (the driver feeds per-method hot masks in
    via {!set_hot_blocks}); the fusion table for each translation is a
    deterministic {!Fusion.witness} emitted per method generation,
    restricted to blocks {!Effects} marks fusable, and auditable with
    [Pep_check.validate_fusion].  Virtual cycles are charged per block,
    so fusion is observationally neutral by construction.

    {b Polymorphic inline caches.}  Every call site carries an inline
    cache keyed on the callee compiled form's generation stamp
    ({!Machine.cmeth.gen}) that climbs a mono → poly(4-way) →
    megamorphic tier ladder: misses promote (counters per site), a long
    stable run in the megamorphic tier demotes back to monomorphic.
    Steady-state calls never consult the method table and allocate
    nothing in bare (hook-free) execution.

    Semantics are bit-identical to the oracle: same virtual cycle
    counts, same yieldpoint firings, same hook event order, same
    results.  Hooks are consulted dynamically (absent hooks cost one
    predictable test), so {!set_hooks} invalidates nothing.  Block
    costs and layout penalties are read through the captured compiled
    form at execution time, so in-place mutation by
    {!Machine.set_speed}, [Layout.apply] and {!Machine.clear_edge_extra}
    affects even frames currently executing, exactly as in the oracle. *)

type t

(** Tier policy: which profile-guided tiers are active.  The PIC ladder
    is always on; it promotes after 4 mono misses and after 4 poly
    misses, and demotes after 64 stable megamorphic hits. *)
type tiers = {
  fuse : bool;  (** compile superinstructions for profiled-hot blocks *)
}

val default_tiers : tiers

(** Short engine-tier label for bench/result names: ["v2-flat"], or
    ["v2-flat-nofuse"] with fusion off. *)
val tier_name : tiers -> string

(** [create ?telemetry ?tiers ?hooks machine] builds an engine over
    [machine].  Nothing is translated until first dispatch; methods are
    translated lazily, at most once per generation stamp.

    With [telemetry], the engine registers and maintains the
    [engine.translations], [engine.ic.hits] / [engine.ic.misses],
    [engine.fuse.blocks] / [engine.fuse.sites] and
    [engine.pic.promote_poly] / [engine.pic.promote_mega] /
    [engine.pic.demote] counters (host-side only: no simulated cycles,
    no allocation on the hot path).  Without it no counters exist and
    execution is identical to a pre-telemetry engine. *)
val create :
  ?telemetry:Telemetry.t -> ?tiers:tiers -> ?hooks:Interp.hooks -> Machine.t -> t

(** Replace the engine's hooks.  Hooks are consulted dynamically, so no
    translated code is invalidated.  Must not be called while the
    engine is executing. *)
val set_hooks : t -> Interp.hooks -> unit

val hooks : t -> Interp.hooks
val tiers : t -> tiers

(** [set_hot_blocks engine midx hot] installs the per-block hot mask
    the fusion planner uses for method [midx] (typically block
    frequencies derived from the VM's own PEP edge profile).  Drops the
    method's cached translation so the next dispatch re-plans fusion; a
    mask whose length does not match the current body is ignored by the
    planner (all-cold). *)
val set_hot_blocks : t -> int -> bool array -> unit

(** The fusion table the engine would compile for method [midx] right
    now (current generation stamp, current hot mask): pure planning, no
    translation side effects.  Feed this to [Pep_check.validate_fusion]. *)
val fusion_witness : t -> int -> Fusion.witness

(** Fusion entries actually compiled into the method's cached
    translation; [[]] if the method is not currently translated. *)
val fused_entries : t -> int -> Fusion.entry list

(** PIC tier of every call site in the method's cached translation, in
    bytecode order: ["mono"], ["poly"] or ["mega"].  [[]] if the method
    is not currently translated. *)
val ic_tiers : t -> string -> string list

(** [call engine name args] invokes method [name], like {!Interp.call}.
    @raise Interp.Runtime_error on call-stack overflow. *)
val call : t -> string -> int array -> int

(** Run the program's main method. *)
val run : t -> int
