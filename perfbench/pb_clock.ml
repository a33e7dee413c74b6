(* A stopwatch that reads a phase's time at the reference host speed.

   The host's speed drifts within a phase, so a phase is cut into
   segments at the benchmark's own call boundaries (between figures,
   between query rounds).  [lap] closes a segment: it probes the host
   and scales the segment's time, and every latency recorded in it, by
   [probe_ref] over the mean of the probes at the segment's two ends.
   The probes' own time is not counted. *)

open Pb_util

type t = {
  tr : Pb_trace.t;
  mutable t0 : float;  (** start of the open segment *)
  mutable p0 : float;  (** probe at its start *)
  mutable pending : float list;  (** latencies recorded in it, as measured *)
  mutable ref_s : float;  (** closed segments, at the reference speed *)
  mutable raw_s : float;  (** closed segments, as measured *)
  mutable ops : float list;  (** closed latencies at the reference speed, newest first *)
  mutable raw_ops : float list;  (** closed latencies as measured, newest first *)
}

(* Traced cycles are not scaled (their per-layer times are as measured)
   and take no probes, so the probes' time and allocation stay out of the
   layer accounting and the GC counts. *)
let sample tr = if Pb_trace.enabled tr then probe_ref else probe ()

let start tr =
  let p0 = sample tr in
  { tr; t0 = now (); p0; pending = []; ref_s = 0.; raw_s = 0.; ops = []; raw_ops = [] }

(* Record one operation's latency inside the open segment. *)
let record c x = c.pending <- x :: c.pending

let lap c =
  let dt = now () -. c.t0 in
  let p = sample c.tr in
  let f = probe_ref /. ((c.p0 +. p) /. 2.) in
  c.ref_s <- c.ref_s +. (dt *. f);
  c.raw_s <- c.raw_s +. dt;
  c.ops <- List.rev_append (List.rev_map (fun x -> x *. f) c.pending) c.ops;
  c.raw_ops <- c.pending @ c.raw_ops;
  c.pending <- [];
  c.p0 <- p;
  c.t0 <- now ()

(* Open a new segment after a pause that must not count. *)
let resume c =
  c.p0 <- sample c.tr;
  c.t0 <- now ()

type result = {
  ref_s : float;  (** the phase at the reference speed *)
  raw_s : float;  (** as measured *)
  ops : float list;  (** recorded latencies at the reference speed, in order *)
  raw_ops : float list;  (** as measured *)
}

(* The closed segments so far. *)
let read (c : t) =
  { ref_s = c.ref_s; raw_s = c.raw_s; ops = List.rev c.ops; raw_ops = List.rev c.raw_ops }

(* Close the open segment and read the phase. *)
let stop c =
  lap c;
  read c
