(* Host-time spans around the benchmark's calls into each layer.

   A span has a layer, a name, a request id (figure id, replay config
   key or query ordinal), its start and end, and the span open around
   it.  Spans stay in memory; [to_chrome] writes them at the end as a
   Chrome trace_event file through the program's own [Trace] writer,
   whose integer timestamps here carry host microseconds.  With tracing
   off, [span] just calls its function. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  layer : string;
  name : string;
  req : string;
  t0 : float;
  mutable t1 : float;
}

type t = {
  on : bool;
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next : int;
}

let create ~on = { on; origin = Pb_util.now (); spans = []; open_ = []; next = 0 }
let enabled t = t.on

let span t ~layer ?(name = layer) ~req f =
  if not t.on then f ()
  else begin
    let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
    let s = { id = t.next; parent; layer; name; req; t0 = Pb_util.now (); t1 = nan } in
    t.next <- t.next + 1;
    t.open_ <- s :: t.open_;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Pb_util.now ();
        t.open_ <- List.tl t.open_;
        t.spans <- s :: t.spans)
      f
  end

let spans t = List.rev t.spans
let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus the time its direct
   children cover (children of one span never overlap: one domain). *)
let self_times t =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    (spans t)

(* Spans at or below a root whose layer is [root_layer]; the rest were
   opened outside the accounted phases (sub-layer estimates). *)
let under t ~root_layer =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let rec root s =
    if s.parent < 0 then s else root (Hashtbl.find by_id s.parent)
  in
  fun s -> (root s).layer = root_layer

(* Per-layer totals of one tracer: [self t layer] sums the self time of
   the layer's spans inside the accounted phases; [outside t layer] the
   duration of its spans opened outside them (sub-layer estimates). *)
let self t layer =
  let in_phase = under t ~root_layer:"phase" in
  List.fold_left
    (fun acc (s, x) -> if s.layer = layer && in_phase s then acc +. x else acc)
    0. (self_times t)

let outside t layer =
  let in_phase = under t ~root_layer:"phase" in
  List.fold_left
    (fun acc s -> if s.layer = layer && not (in_phase s) then acc +. dur s else acc)
    0. t.spans

(* One Chrome trace_event document; each (thread name, tracer) is a
   thread row, its timestamps in microseconds from the tracer's start. *)
let to_chrome threads =
  let n = List.fold_left (fun acc (_, t) -> acc + List.length t.spans) 0 threads in
  let tr = Trace.create ~limit:(max 1 n) () in
  List.iter
    (fun (thread, t) ->
      ignore (Trace.begin_thread tr ~name:thread);
      let us x = int_of_float ((x -. t.origin) *. 1e6) in
      List.iter
        (fun s ->
          Trace.span tr ~ts:(us s.t0) ~dur:(us s.t1 - us s.t0) ~cat:s.layer ~name:s.name
            ~args:
              [
                ("req", s.req);
                ("id", string_of_int s.id);
                ("parent", string_of_int s.parent);
              ]
            ())
        (spans t))
    threads;
  Trace.to_json tr
