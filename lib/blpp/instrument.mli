(** Instrumentation plans: where the path-register updates, path-count
    points and path-restart resets of a numbered method live.

    A plan is pure data; {!Profile_hooks} (and PEP's sampler on top of it)
    interprets plans against the running machine.

    Placement follows the paper:
    - [r = 0] on method entry;
    - [r += v] on every real CFG edge whose DAG value is nonzero;
    - on a cut back/irreducible edge: [r += v_to_exit]; a path-count
      point (classic BLPP only — in loop-header mode an irreducible cut
      is silent, mirroring uninterruptible loop headers); [r = v_restart];
    - at a split loop header's yieldpoint: [r += v_to_exit]; a path-end
      point; [r = v_restart];
    - at the exit block's yieldpoint: a path-end point. *)

type edge_step = Interp.edge_step = {
  add : int;  (** r += add (0 = absent) *)
  count : bool;  (** path-count point on this edge (classic BLPP back edge) *)
  reset : int;  (** r = reset after the count (-1 = absent) *)
}

type block_event = Interp.block_event = {
  badd : int;  (** r += badd before the path ends (0 = absent) *)
  breset : int;  (** r = breset to start the next path (-1 = absent) *)
}

type t = {
  numbering : Numbering.t;
  edge_steps : edge_step option array array;
      (** per block, per successor index (0 = jump/taken, 1 = not-taken) *)
  path_end : block_event option array;
      (** per block: path ends at this block's yieldpoint (split headers
          and the exit block) *)
}

val of_numbering : Numbering.t -> t

(** Successor index of a CFG edge attribute (0 = jump/taken, 1 = not-taken). *)
val succ_index : Cfg.edge_attr -> int

(** Static count of inserted operations (adds, resets, count points) —
    the quantity profile-guided placement minimizes, and a proxy for the
    instrumentation's compile-time footprint. *)
val static_ops : t -> int

(** Dynamic r-operations the plan would execute on one traversal of the
    given edge ([0..2]); used by tests. *)
val ops_on_edge : t -> src:int -> idx:int -> int
