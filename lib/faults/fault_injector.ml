type counts = {
  compile_fail : int;
  sample_overrun : int;
  store_corrupt : int;
  backoffs : int;
  gaveups : int;
  samples_dropped : int;
  path_overflow : int;
  edge_overflow : int;
  quarantined : int;
  instance_crash : int;
  torn_write : int;
  straggler : int;
  seg_corrupt : int;
  restarts : int;
  lost_instances : int;
  writes_recovered : int;
  catchups : int;
  seg_quarantined : int;
}

(* Mirrored metric: a plain int always (for invariant read-back), a
   registry counter when a sink is attached. *)
type cell = { mutable n : int; metric : Metrics.counter option }

let cell metrics name =
  { n = 0; metric = Option.map (fun m -> Metrics.counter m name) metrics }

let bump c =
  c.n <- c.n + 1;
  match c.metric with Some m -> Metrics.incr m | None -> ()

let bump_by c k =
  if k <> 0 then begin
    c.n <- c.n + k;
    match c.metric with Some m -> Metrics.incr ~by:k m | None -> ()
  end

type t = {
  plan : Fault_plan.t;
  tel : Telemetry.t option;
  (* per-site decision-stream ordinals; corrupt streams are per input
     kind so e.g. "advice" and "store" decisions stay independent *)
  mutable n_compile : int;
  mutable n_sample : int;
  n_corrupt : (string, int ref) Hashtbl.t;
  (* fleet decision streams, keyed per (site, instance-or-file) so a
     decision depends only on the plan and on how often that particular
     key was consulted — never on domain scheduling or write order *)
  n_keyed : (int * string, int ref) Hashtbl.t;
  c_compile_fail : cell;
  c_sample_overrun : cell;
  c_store_corrupt : cell;
  c_backoff : cell;
  c_gaveup : cell;
  c_sample_dropped : cell;
  c_path_overflow : cell;
  c_edge_overflow : cell;
  c_quarantined : cell;
  c_instance_crash : cell;
  c_torn_write : cell;
  c_straggler : cell;
  c_seg_corrupt : cell;
  c_restart : cell;
  c_instance_lost : cell;
  c_write_recovered : cell;
  c_catchup : cell;
  c_seg_quarantined : cell;
}

let create ?telemetry plan =
  let metrics = Option.map Telemetry.metrics telemetry in
  {
    plan;
    tel = telemetry;
    n_compile = 0;
    n_sample = 0;
    n_corrupt = Hashtbl.create 4;
    n_keyed = Hashtbl.create 16;
    c_compile_fail = cell metrics "fault.compile_fail";
    c_sample_overrun = cell metrics "fault.sample_overrun";
    c_store_corrupt = cell metrics "fault.store_corrupt";
    c_backoff = cell metrics "degrade.compile_backoff";
    c_gaveup = cell metrics "degrade.compile_gaveup";
    c_sample_dropped = cell metrics "degrade.sample_dropped";
    c_path_overflow = cell metrics "degrade.path_overflow";
    c_edge_overflow = cell metrics "degrade.edge_overflow";
    c_quarantined = cell metrics "degrade.input_quarantined";
    c_instance_crash = cell metrics "fault.instance_crash";
    c_torn_write = cell metrics "fault.torn_write";
    c_straggler = cell metrics "fault.straggler";
    c_seg_corrupt = cell metrics "fault.seg_corrupt";
    c_restart = cell metrics "degrade.instance_restart";
    c_instance_lost = cell metrics "degrade.instance_lost";
    c_write_recovered = cell metrics "degrade.write_recovered";
    c_catchup = cell metrics "degrade.window_catchup";
    c_seg_quarantined = cell metrics "degrade.seg_quarantined";
  }

let plan t = t.plan

(* SplitMix64 over (seed, site salt, ordinal): the same triple always
   yields the same decision, independent of everything else in the
   process. *)
let mix seed salt n =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.add
         (Int64.mul (Int64.of_int salt) 0xBF58476D1CE4E5B9L)
         (Int64.mul (Int64.of_int (n + 1)) 0x94D049BB133111EBL))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float h =
  (* top 53 bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let fires t ~salt ~p n =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float (mix t.plan.Fault_plan.seed salt n) < p

let instant t ~ts ~cat ~name args =
  match t.tel with
  | None -> ()
  | Some tel -> Telemetry.instant tel ~ts ~cat ~name ~args ()

let fire_compile_fail t ~ts ~meth =
  let n = t.n_compile in
  t.n_compile <- n + 1;
  let hit = fires t ~salt:1 ~p:t.plan.Fault_plan.compile_fail n in
  if hit then begin
    bump t.c_compile_fail;
    instant t ~ts ~cat:"fault" ~name:"compile_fail" [ ("method", meth) ]
  end;
  hit

let fire_sample_overrun t ~ts ~meth =
  let n = t.n_sample in
  t.n_sample <- n + 1;
  let hit = fires t ~salt:2 ~p:t.plan.Fault_plan.sample_overrun n in
  if hit then begin
    bump t.c_sample_overrun;
    instant t ~ts ~cat:"fault" ~name:"sample_overrun" [ ("method", meth) ]
  end;
  hit

(* FNV-1a, so the per-kind salt does not depend on [Hashtbl.hash]'s
   implementation details. *)
let str_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let fire_corrupt t ~what =
  let counter =
    match Hashtbl.find_opt t.n_corrupt what with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.n_corrupt what r;
        r
  in
  let n = !counter in
  incr counter;
  let hit = fires t ~salt:(3 + (8 * str_hash what)) ~p:t.plan.Fault_plan.corrupt n in
  if hit then begin
    bump t.c_store_corrupt;
    instant t ~ts:0 ~cat:"fault" ~name:"store_corrupt" [ ("what", what) ]
  end;
  hit

(* One consult of a keyed fleet stream.  The site [base]s are distinct
   mod 8 from every other salt family (1 = compile, 2 = sample,
   3 + 8h = corrupt), so streams never collide.  On a hit the low hash
   bits come back as a deterministic draw — byte offset for torn and
   corrupt writes, delay for stragglers — so the *shape* of the damage
   is as reproducible as the decision itself. *)
let keyed_fire t ~base ~key ~p =
  let counter =
    match Hashtbl.find_opt t.n_keyed (base, key) with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.n_keyed (base, key) r;
        r
  in
  let n = !counter in
  incr counter;
  if p <= 0. then None
  else
    let h = mix t.plan.Fault_plan.seed (base + (8 * str_hash key)) n in
    if p >= 1. || unit_float h < p then
      Some (Int64.to_int (Int64.logand h 0x3FFFFFFFL))
    else None

let fire_instance_crash t ~instance ~window =
  match keyed_fire t ~base:4 ~key:instance ~p:t.plan.Fault_plan.crash with
  | Some _ ->
      bump t.c_instance_crash;
      instant t ~ts:0 ~cat:"fault" ~name:"instance_crash"
        [ ("instance", instance); ("window", string_of_int window) ];
      true
  | None -> false

let fire_torn_write t ~file =
  match keyed_fire t ~base:5 ~key:file ~p:t.plan.Fault_plan.torn_write with
  | Some draw ->
      bump t.c_torn_write;
      instant t ~ts:0 ~cat:"fault" ~name:"torn_write" [ ("file", file) ];
      Some draw
  | None -> None

let fire_straggler t ~instance ~window =
  match keyed_fire t ~base:6 ~key:instance ~p:t.plan.Fault_plan.straggler with
  | Some draw ->
      bump t.c_straggler;
      instant t ~ts:0 ~cat:"fault" ~name:"straggler"
        [ ("instance", instance); ("window", string_of_int window) ];
      let timeout = max 1 t.plan.Fault_plan.straggler_timeout in
      Some (1 + (draw mod timeout))
  | None -> None

let fire_segment_corrupt t ~file =
  match keyed_fire t ~base:7 ~key:file ~p:t.plan.Fault_plan.seg_corrupt with
  | Some draw ->
      bump t.c_seg_corrupt;
      instant t ~ts:0 ~cat:"fault" ~name:"seg_corrupt" [ ("file", file) ];
      Some draw
  | None -> None

let note_instance_restart t ~instance ~attempt =
  bump t.c_restart;
  instant t ~ts:0 ~cat:"degrade" ~name:"instance_restart"
    [ ("instance", instance); ("attempt", string_of_int attempt) ]

let note_instance_lost t ~instance =
  bump t.c_instance_lost;
  instant t ~ts:0 ~cat:"degrade" ~name:"instance_lost"
    [ ("instance", instance) ]

let note_write_recovered t ~file =
  bump t.c_write_recovered;
  instant t ~ts:0 ~cat:"degrade" ~name:"write_recovered" [ ("file", file) ]

let note_window_catchup t ~instance ~window =
  bump t.c_catchup;
  instant t ~ts:0 ~cat:"degrade" ~name:"window_catchup"
    [ ("instance", instance); ("window", string_of_int window) ]

let note_segment_quarantined t ~file ~reason =
  bump t.c_seg_quarantined;
  instant t ~ts:0 ~cat:"degrade" ~name:"seg_quarantined"
    [ ("file", file); ("reason", reason) ]

let note_backoff t ~ts ~meth ~until ~attempt =
  bump t.c_backoff;
  instant t ~ts ~cat:"degrade" ~name:"compile_backoff"
    [
      ("method", meth);
      ("until", string_of_int until);
      ("attempt", string_of_int attempt);
    ]

let note_gaveup t ~ts ~meth =
  bump t.c_gaveup;
  instant t ~ts ~cat:"degrade" ~name:"compile_gaveup" [ ("method", meth) ]

let note_sample_dropped t ~ts ~meth =
  bump t.c_sample_dropped;
  instant t ~ts ~cat:"degrade" ~name:"sample_dropped" [ ("method", meth) ]

let note_table_overflow t ~ts ~kind ~meth =
  let c, name =
    match kind with
    | `Path -> (t.c_path_overflow, "path_overflow")
    | `Edge -> (t.c_edge_overflow, "edge_overflow")
  in
  bump c;
  instant t ~ts ~cat:"degrade" ~name [ ("method", meth) ]

let note_quarantine t ~what ~reason =
  bump t.c_quarantined;
  instant t ~ts:0 ~cat:"degrade" ~name:"input_quarantined"
    [ ("what", what); ("reason", reason) ]

let counts t =
  {
    compile_fail = t.c_compile_fail.n;
    sample_overrun = t.c_sample_overrun.n;
    store_corrupt = t.c_store_corrupt.n;
    backoffs = t.c_backoff.n;
    gaveups = t.c_gaveup.n;
    samples_dropped = t.c_sample_dropped.n;
    path_overflow = t.c_path_overflow.n;
    edge_overflow = t.c_edge_overflow.n;
    quarantined = t.c_quarantined.n;
    instance_crash = t.c_instance_crash.n;
    torn_write = t.c_torn_write.n;
    straggler = t.c_straggler.n;
    seg_corrupt = t.c_seg_corrupt.n;
    restarts = t.c_restart.n;
    lost_instances = t.c_instance_lost.n;
    writes_recovered = t.c_write_recovered.n;
    catchups = t.c_catchup.n;
    seg_quarantined = t.c_seg_quarantined.n;
  }

let zero_counts = counts (create Fault_plan.empty)

(* Fold a worker injector's read-back into this (main-domain) injector.
   Workers each run their own injector over disjoint keyed streams, so
   summing counts is exact; the merge order only affects nothing. *)
let absorb t (c : counts) =
  bump_by t.c_compile_fail c.compile_fail;
  bump_by t.c_sample_overrun c.sample_overrun;
  bump_by t.c_store_corrupt c.store_corrupt;
  bump_by t.c_backoff c.backoffs;
  bump_by t.c_gaveup c.gaveups;
  bump_by t.c_sample_dropped c.samples_dropped;
  bump_by t.c_path_overflow c.path_overflow;
  bump_by t.c_edge_overflow c.edge_overflow;
  bump_by t.c_quarantined c.quarantined;
  bump_by t.c_instance_crash c.instance_crash;
  bump_by t.c_torn_write c.torn_write;
  bump_by t.c_straggler c.straggler;
  bump_by t.c_seg_corrupt c.seg_corrupt;
  bump_by t.c_restart c.restarts;
  bump_by t.c_instance_lost c.lost_instances;
  bump_by t.c_write_recovered c.writes_recovered;
  bump_by t.c_catchup c.catchups;
  bump_by t.c_seg_quarantined c.seg_quarantined

let accounted c =
  if c.compile_fail <> c.backoffs + c.gaveups then
    Error
      (Fmt.str
         "fault.compile_fail=%d but degrade.compile_backoff=%d + \
          degrade.compile_gaveup=%d"
         c.compile_fail c.backoffs c.gaveups)
  else if c.sample_overrun <> c.samples_dropped then
    Error
      (Fmt.str "fault.sample_overrun=%d but degrade.sample_dropped=%d"
         c.sample_overrun c.samples_dropped)
  else if c.store_corrupt <> c.quarantined then
    Error
      (Fmt.str "fault.store_corrupt=%d but degrade.input_quarantined=%d"
         c.store_corrupt c.quarantined)
  else if c.instance_crash <> c.restarts + c.lost_instances then
    Error
      (Fmt.str
         "fault.instance_crash=%d but degrade.instance_restart=%d + \
          degrade.instance_lost=%d"
         c.instance_crash c.restarts c.lost_instances)
  else if c.torn_write <> c.writes_recovered then
    Error
      (Fmt.str "fault.torn_write=%d but degrade.write_recovered=%d"
         c.torn_write c.writes_recovered)
  else if c.straggler <> c.catchups then
    Error
      (Fmt.str "fault.straggler=%d but degrade.window_catchup=%d" c.straggler
         c.catchups)
  else if c.seg_corrupt <> c.seg_quarantined then
    Error
      (Fmt.str "fault.seg_corrupt=%d but degrade.seg_quarantined=%d"
         c.seg_corrupt c.seg_quarantined)
  else Ok ()
