(* The repository benchmark: the [sweep] and [fleet] workloads, each a
   store write then read (see README.md in this directory).

     perfbench.exe --workload sweep|fleet [--seed N] [--seconds S]
                   [--trace 0|1] [--work-dir DIR] [--reference FILE]
     perfbench.exe --make-reference [--reference FILE]

   A run sets up [setup_reps] times, then repeats whole write+read
   cycles until [--seconds] are used, and prints a table of the
   workload's end-to-end metrics followed by one JSON result line.
   With [--trace 1] it alternates untraced and traced cycles and prints
   the per-layer metrics, the layer accounting of the traced cycles and
   the tracing overhead instead; the spans go to
   DIR/trace-<workload>.json. *)

open Pb_util

let default_seed = 42
let setup_reps = 11
let oracle_replays = 8

(* ---------------------------- reference ---------------------------- *)

(* Output digests at the default seed: "sweep <figure id> <md5>",
   "fleet store <md5>" and "fleet answer <ordinal> <md5>" lines. *)
type reference = {
  figures : (string * string) list;
  store : string option;
  answers : string list;
}

let load_reference file =
  let lines =
    String.split_on_char '\n' (read_file file)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (String.split_on_char ' ')
  in
  {
    figures = List.filter_map (function [ "sweep"; id; d ] -> Some (id, d) | _ -> None) lines;
    store = List.find_map (function [ "fleet"; "store"; d ] -> Some d | _ -> None) lines;
    answers = List.filter_map (function [ "fleet"; "answer"; _; d ] -> Some d | _ -> None) lines;
  }

(* ------------------------------ results ---------------------------- *)

(* Timings at the reference host speed, and as measured ([raw_]). *)
type run = {
  setup_s : float list;
  cycles : int;
  measured_s : float;
  write_s : float list;  (** per cycle *)
  raw_write_s : float list;
  read_s : float list;  (** per cycle *)
  raw_read_s : float list;
  read_ms : float list;  (** every read operation *)
  raw_read_ms : float list;
  totals : (bool * float) list;  (** traced?, both phases as measured, probes left out *)
  disk_kb : float;
  attempted : int;
  failures : string list;
  failed : int;
  layers : (string * float) list list;  (** one list per traced cycle *)
  tracers : Pb_trace.t list;  (** one per traced cycle *)
}

(* The read-latency tail is the p99, and an untraced run measures at
   least [min_reads] read operations so that at least ten lie beyond it. *)
let tail_p = 0.99
let min_reads = 1000

(* Repeat [cycle] until the next one would overrun [seconds] and, when
   untraced, [min_reads] reads are measured; with [trace], cycles
   alternate untraced / traced, starting untraced. *)
let measure ~seconds ~trace ~reads cycle =
  let t0 = now () in
  let rec go i n acc =
    let elapsed = now () -. t0 in
    let typical = if acc = [] then 0. else elapsed /. float_of_int (List.length acc) in
    let enough = if trace then List.length acc >= 2 else acc <> [] && n >= min_reads in
    if enough && elapsed +. typical > seconds then (List.rev acc, elapsed)
    else
      let traced = trace && i mod 2 = 1 in
      let tr = Pb_trace.create ~on:traced in
      let c = cycle tr in
      go (i + 1) (n + reads c) ((traced, tr, c) :: acc)
  in
  go 0 0 []

(* End-to-end timings come from the untraced cycles only. *)
let untraced cycles = List.filter_map (fun (traced, _, c) -> if traced then None else Some c) cycles

(* ------------------------------- sweep ----------------------------- *)

let run_sweep ~work ~seed ~seconds ~trace ~(reference : reference) ~setup_s =
  let expected = ref (if seed = default_seed then Some reference.figures else None) in
  let cycle tr =
    let traced = Pb_trace.enabled tr in
    let config =
      if traced then { Exp_harness.default with Exp_harness.telemetry = Some (Telemetry.create ()) }
      else Exp_harness.default
    in
    let dir = Filename.concat work (if traced then "cache-traced" else "cache") in
    (* the first cycle also re-runs a sample of replays under the oracle *)
    let oracle = if !expected = None then oracle_replays else 0 in
    let c =
      Pb_sweep.cycle tr ~config ~seed ~dir ~scratch:(Filename.concat work "scratch")
        ~expected:!expected ~oracle
    in
    if !expected = None then expected := Some c.Pb_sweep.digests;
    c
  in
  let reads c = List.length c.Pb_sweep.warm.Pb_clock.ops in
  let cycles, measured_s = measure ~seconds ~trace ~reads cycle in
  let cs = List.map (fun (_, _, c) -> c) cycles in
  let failures = List.concat_map (fun c -> c.Pb_sweep.failures) cs in
  let col f = List.map f (untraced cycles) in
  {
    setup_s;
    cycles = List.length cycles;
    measured_s;
    write_s = col (fun c -> c.Pb_sweep.cold.Pb_clock.ref_s);
    raw_write_s = col (fun c -> c.Pb_sweep.cold.Pb_clock.raw_s);
    read_s = col (fun c -> c.Pb_sweep.warm.Pb_clock.ref_s);
    raw_read_s = col (fun c -> c.Pb_sweep.warm.Pb_clock.raw_s);
    read_ms = List.concat (col (fun c -> c.Pb_sweep.warm.Pb_clock.ops));
    raw_read_ms = List.concat (col (fun c -> c.Pb_sweep.warm.Pb_clock.raw_ops));
    totals = List.map (fun (traced, _, c) -> (traced, c.Pb_sweep.totals)) cycles;
    disk_kb = (List.nth cs (List.length cs - 1)).Pb_sweep.disk_kb;
    attempted = List.fold_left (fun a c -> a + c.Pb_sweep.attempted) 0 cs;
    failures;
    failed = List.length failures;
    layers = List.filter_map (fun (traced, _, c) -> if traced then Some c.Pb_sweep.layers else None) cycles;
    tracers = List.filter_map (fun (traced, tr, _) -> if traced then Some tr else None) cycles;
  }

(* ------------------------------- fleet ----------------------------- *)

let run_fleet ~work ~seed ~seconds ~trace ~(reference : reference) ~setup_s =
  let inputs = Pb_fleet.setup ~seed in
  (* the store is the same at every seed, the answers only at one *)
  let store = Option.get reference.store in
  let answers = ref (if seed = default_seed then Some reference.answers else None) in
  let cycle tr =
    let c =
      Pb_fleet.cycle tr inputs ~dir:(Filename.concat work "store")
        ~scratch:(Filename.concat work "scratch") ~store ~answers:!answers
    in
    if !answers = None then answers := Some c.Pb_fleet.read.Pb_fleet.digests;
    c
  in
  let reads c = List.length c.Pb_fleet.read.Pb_fleet.time.Pb_clock.ops in
  let cycles, measured_s = measure ~seconds ~trace ~reads cycle in
  let cs = List.map (fun (_, _, c) -> c) cycles in
  let last = List.nth cs (List.length cs - 1) in
  let n_queries = Array.length inputs.Pb_fleet.queries in
  let col f = List.map f (untraced cycles) in
  let write c = c.Pb_fleet.write.Pb_fleet.time and read c = c.Pb_fleet.read.Pb_fleet.time in
  {
    setup_s;
    cycles = List.length cycles;
    measured_s;
    write_s = col (fun c -> (write c).Pb_clock.ref_s);
    raw_write_s = col (fun c -> (write c).Pb_clock.raw_s);
    (* the read phase is the sum of its queries' latencies *)
    read_s = col (fun c -> sum (read c).Pb_clock.ops /. 1e3);
    raw_read_s = col (fun c -> sum (read c).Pb_clock.raw_ops /. 1e3);
    read_ms = List.concat (col (fun c -> (read c).Pb_clock.ops));
    raw_read_ms = List.concat (col (fun c -> (read c).Pb_clock.raw_ops));
    totals =
      List.map
        (fun (traced, _, c) ->
          (traced, (write c).Pb_clock.raw_s +. (read c).Pb_clock.raw_s))
        cycles;
    disk_kb = last.Pb_fleet.disk_kb;
    attempted = List.length cs * (Pb_fleet.expected_snapshots + n_queries);
    failures = List.concat_map (fun c -> c.Pb_fleet.failures) cs;
    failed = List.fold_left (fun a c -> a + c.Pb_fleet.failed_ops) 0 cs;
    layers = List.filter_map (fun (traced, _, c) -> if traced then Some c.Pb_fleet.layers else None) cycles;
    tracers = List.filter_map (fun (traced, tr, _) -> if traced then Some tr else None) cycles;
  }

(* ------------------------------ report ----------------------------- *)

let quartiles xs = (quantile xs 0.25, quantile xs 0.75)

(* The end-to-end table, by the names and units the README gives:
   each timing at the reference speed, then as measured. *)
let print_end_to_end ~workload r =
  let row name unit_ v note = Printf.printf "  %-15s %12.4f %-6s %s\n" name v unit_ note in
  let spread ?raw xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "median of %d, quartiles %.4f..%.4f%s" (List.length xs) q1 q3
      (match raw with Some r -> Printf.sprintf "; measured %.4f" (median r) | None -> "")
  in
  let ms = r.read_ms in
  let n = List.length ms in
  let tail_v = quantile ms tail_p in
  let tail_note =
    Printf.sprintf "p%g of %d samples, %d beyond; measured %.4f" (100. *. tail_p) n
      (List.length (List.filter (fun x -> x > tail_v) ms))
      (quantile r.raw_read_ms tail_p)
  in
  Printf.printf "%s: %d cycles in %.1f s; timings at the reference speed (probe %.1f ms)\n"
    workload r.cycles r.measured_s (1e3 *. probe_ref);
  row "setup_s" "s" (median r.setup_s) (spread r.setup_s);
  (match workload with
  | "sweep" ->
      row "cold_s" "s" (median r.write_s) (spread ~raw:r.raw_write_s r.write_s);
      row "warm_s" "s" (median r.read_s) (spread ~raw:r.raw_read_s r.read_s);
      row "recall_p50_ms" "ms" (median ms)
        (Printf.sprintf "run-cache recalls, %d samples; measured %.4f" n (median r.raw_read_ms));
      row "recall_tail_ms" "ms" tail_v tail_note
  | _ ->
      let wps = List.map (fun s -> float_of_int Pb_fleet.expected_snapshots /. s) in
      row "ingest_wps" "1/s" (median (wps r.write_s)) (spread ~raw:(wps r.raw_write_s) (wps r.write_s));
      row "query_p50_ms" "ms" (median ms)
        (Printf.sprintf "%d queries; measured %.4f" n (median r.raw_read_ms));
      row "query_tail_ms" "ms" tail_v tail_note);
  row "peak_rss_mb" "MB" (peak_rss_mb ()) "";
  row "disk_kb" "kB" r.disk_kb "";
  row "fail_ratio" "ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    (Printf.sprintf "%d failed of %d attempted" r.failed r.attempted);
  [
    metric "setup_s" "s" (median r.setup_s);
    metric "write_s" "s" (median r.write_s);
    metric "read_s" "s" (median r.read_s);
    metric "read_p50_ms" "ms" (median ms);
    metric "read_tail_ms" "ms" tail_v;
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
    metric "disk_kb" "kB" r.disk_kb;
  ]

(* Every per-layer metric of either workload, with its unit; a layer
   the workload bypasses reads 0. *)
let per_layer_units =
  [
    ("harness.warmup_s", "s"); ("cache.replay_s", "s"); ("cache.replays", "count");
    ("cache.recall_s", "s"); ("cache.disk_hits", "count"); ("cache.memory_hits", "count");
    ("cache.hit_ratio", "ratio"); ("cache.store_errors", "count"); ("cache.install_s", "s");
    ("store.save_s", "s"); ("store.load_s", "s"); ("store.entries", "count"); ("store.kb", "kB");
    ("figures.build_s", "s"); ("figures.fig11_s", "s"); ("lint.run_s", "s");
    ("lint.errors", "count"); ("harness.check_s", "s"); ("exec.base_ms", "ms");
    ("exec.mcycles_per_s", "Mcycles/s"); ("hooks.host_overhead", "ratio");
    ("sampling.host_overhead", "ratio"); ("perfect.host_overhead", "ratio");
    ("sim.mcycles", "Mcycles"); ("vm.ticks", "count"); ("vm.yieldpoint.polls", "count");
    ("vm.compile.units", "count"); ("engine.translations", "count");
    ("engine.ic.hit_ratio", "ratio"); ("engine.fuse.blocks", "count");
    ("pep.samples.taken", "count"); ("pep.path.promotions", "count");
    ("collector.run_s", "s"); ("collector.snapshots", "count"); ("collector.samples", "count");
    ("collector.alloc_mw", "Mwords"); ("segstore.save_s", "s"); ("segstore.compact_s", "s");
    ("segstore.load_s", "s"); ("segstore.files", "count"); ("segstore.kb", "kB");
    ("query.select_s", "s"); ("query.view_s", "s"); ("query.top_s", "s");
    ("query.folded_s", "s"); ("query.diff_s", "s"); ("watch.run_s", "s");
    ("watch.alerts", "count"); ("gc.write.alloc_mw", "Mwords");
    ("gc.write.major_collections", "count"); ("gc.read.alloc_mw", "Mwords");
    ("gc.read.major_collections", "count"); ("trace.overhead", "ratio");
    ("trace.remainder_share", "ratio");
  ]

(* Counts a later change may cite: they must repeat exactly. *)
let exact_counts =
  [
    "sim.mcycles"; "cache.replays"; "cache.disk_hits"; "pep.samples.taken";
    "engine.translations"; "collector.snapshots"; "collector.samples"; "store.kb";
    "segstore.kb"; "gc.write.alloc_mw"; "gc.read.alloc_mw";
  ]

(* Layer self times of the traced cycles, summed over the spans of the
   accounted phases; the phases' own self time is the remainder. *)
let accounting tracers =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun tr ->
      let in_phase = Pb_trace.under tr ~root_layer:"phase" in
      List.iter
        (fun ((s : Pb_trace.span), self) ->
          if in_phase s then begin
            let l = s.Pb_trace.layer in
            if not (Hashtbl.mem tbl l) then order := l :: !order;
            Hashtbl.replace tbl l (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l))
          end)
        (Pb_trace.self_times tr))
    tracers;
  let total =
    sum
      (List.concat_map
         (fun tr ->
           List.filter_map
             (fun (s : Pb_trace.span) ->
               if s.Pb_trace.layer = "phase" then Some (Pb_trace.dur s) else None)
             (Pb_trace.spans tr))
         tracers)
  in
  (List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order, total)

let print_per_layer ~workload r =
  let n = float_of_int (List.length r.tracers) in
  let layers, total = accounting r.tracers in
  let remainder = Option.value ~default:0. (List.assoc_opt "phase" layers) in
  Printf.printf "%s traced: %d cycles of %d; layer self time per traced cycle\n" workload
    (List.length r.tracers) r.cycles;
  List.iter
    (fun (l, s) ->
      if l <> "phase" then
        Printf.printf "  %-22s %10.4f s %6.1f%%\n" l (s /. n) (100. *. s /. total))
    layers;
  let layer_sum = sum (List.map snd (List.filter (fun (l, _) -> l <> "phase") layers)) in
  Printf.printf "  %-22s %10.4f s %6.1f%%\n" "(remainder)" (remainder /. n) (100. *. remainder /. total);
  Printf.printf "  %-22s %10.4f s  layers + remainder = %.4f s (difference %.2g s)\n" "traced total"
    (total /. n) ((layer_sum +. remainder) /. n) ((total -. layer_sum -. remainder) /. n);
  let traced = List.filter_map (fun (t, x) -> if t then Some x else None) r.totals in
  let untraced = List.filter_map (fun (t, x) -> if t then None else Some x) r.totals in
  let overhead = (median traced /. median untraced) -. 1. in
  Printf.printf "  trace.overhead %.4f (median traced cycle %.3f s vs untraced %.3f s)\n" overhead
    (median traced) (median untraced);
  (* counts must repeat exactly from one traced cycle to the next *)
  let drifting =
    List.filter
      (fun name ->
        match List.filter_map (List.assoc_opt name) r.layers with
        | [] -> false
        | v :: vs -> List.exists (fun x -> x <> v) vs)
      exact_counts
  in
  Printf.printf "  exact counts: %s\n"
    (if drifting = [] then "repeat in every traced cycle"
     else "non-deterministic: " ^ String.concat ", " drifting);
  let mean_of name =
    match List.filter_map (List.assoc_opt name) r.layers with [] -> 0. | xs -> mean xs
  in
  List.map
    (fun (name, unit_) ->
      let v =
        match name with
        | "trace.overhead" -> overhead
        | "trace.remainder_share" -> remainder /. total
        | _ -> mean_of name
      in
      metric name unit_ v)
    per_layer_units

(* ------------------------------- main ------------------------------ *)

(* What a user pays before the first write: start the benchmark's
   process, read the reference and make the workload's inputs from the
   seed.  Done [setup_reps] times, each in a fresh process. *)
let setup_only ~workload ~seed ~reference_file =
  ignore (load_reference reference_file);
  match workload with
  | "sweep" -> Pb_sweep.setup ()
  | _ -> ignore (Pb_fleet.setup ~seed)

let setup_times ~workload ~seed ~reference_file =
  List.init setup_reps (fun _ ->
      let p0 = probe () in
      let argv =
        [| Sys.executable_name; "--setup-only"; "--workload"; workload; "--seed";
           string_of_int seed; "--reference"; reference_file |]
      in
      let t = now () in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 ->
          let t = now () -. t in
          at_ref_speed ~p:((p0 +. probe ()) /. 2.) t
      | _ -> failwith "set-up process failed")

let run_workload ~workload ~seed ~seconds ~trace ~work_dir ~reference_file =
  let work = Filename.concat work_dir workload in
  fresh_dir work;
  let setup_s = setup_times ~workload ~seed ~reference_file in
  let reference = load_reference reference_file in
  let run =
    match workload with
    | "sweep" -> run_sweep ~work ~seed ~seconds ~trace ~reference ~setup_s
    | _ -> run_fleet ~work ~seed ~seconds ~trace ~reference ~setup_s
  in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) run.failures;
  let e2e = print_end_to_end ~workload run in
  let metrics =
    if trace then begin
      let file = Filename.concat work_dir ("trace-" ^ workload ^ ".json") in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Pb_trace.to_chrome
               (List.mapi (fun i tr -> (Printf.sprintf "%s traced cycle %d" workload (i + 1), tr)) run.tracers)));
      Printf.printf "  spans: %s\n" file;
      print_per_layer ~workload run
    end
    else e2e
  in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then print_endline "FAILED: a metric is not a finite number";
  let correct = run.failures = [] && finite in
  print_endline (result_json ~correct ~attempted:run.attempted ~failed:run.failed metrics);
  correct

let make_reference ~work_dir ~file =
  let work = Filename.concat work_dir "reference" in
  fresh_dir work;
  let tr = Pb_trace.create ~on:false in
  let oracle = { Exp_harness.default with Exp_harness.engine = `Oracle } in
  let cold =
    Pb_sweep.run_phase tr ~name:"write" ~config:oracle ~seed:default_seed
      ~dir:(Filename.concat work "cache")
  in
  let inputs = Pb_fleet.setup ~seed:default_seed in
  let dir = Filename.concat work "store" in
  let write = Pb_fleet.ingest tr inputs ~dir ~scratch:(Filename.concat work "scratch") in
  let read = Pb_fleet.read_phase tr inputs ~dir in
  let problems = cold.Pb_sweep.problems @ Pb_fleet.check_ingest ~dir write @ read.Pb_fleet.errors in
  if problems <> [] then begin
    List.iter prerr_endline problems;
    exit 1
  end;
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc
        "# Output digests at seed %d, written by `perfbench.exe --make-reference`.\n\
         # sweep: each figure's rows and summary as float bits, scale %g, built\n\
         # with the reference interpreter (engine `Oracle).\n\
         # fleet: the segment files' bytes, and each query's answer text.\n"
        default_seed Pb_sweep.scale;
      List.iter (fun (id, d) -> Printf.fprintf oc "sweep %s %s\n" id d) cold.Pb_sweep.figures;
      Printf.fprintf oc "fleet store %s\n" write.Pb_fleet.md5;
      List.iteri (fun i d -> Printf.fprintf oc "fleet answer %d %s\n" i d) read.Pb_fleet.digests);
  Printf.printf "wrote %s\n" file

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 60. in
  let trace = ref 0 and work_dir = ref "_perfbench" in
  let reference = ref (Filename.concat "perfbench" "reference.txt") and make = ref false in
  let setup = ref false in
  Arg.parse
    [
      ("--workload", Arg.Symbol ([ "sweep"; "fleet" ], ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 60)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch stores and traces (default _perfbench)");
      ("--reference", Arg.Set_string reference, "FILE committed output digests");
      ("--make-reference", Arg.Set make, " regenerate the reference digests");
      ("--setup-only", Arg.Set setup, " only set up (timed by the parent run)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload sweep|fleet [options]";
  if !make then make_reference ~work_dir:!work_dir ~file:!reference
  else begin
    if !workload = "" then begin
      prerr_endline "perfbench: --workload sweep|fleet is required";
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    end;
    if !setup then setup_only ~workload:!workload ~seed:!seed ~reference_file:!reference
    else
      let ok =
        run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~work_dir:!work_dir ~reference_file:!reference
      in
      exit (if ok then 0 else 1)
  end
