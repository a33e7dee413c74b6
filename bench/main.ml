(* Benchmark harness.

   With no arguments: reproduce every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), then run the
   Bechamel microbenchmark suite over the library's hot operations.

   With arguments: run only the named experiments, e.g.
     dune exec bench/main.exe fig6 fig8
   Recognized extra flags: --scale F (resize workloads), --seed N,
   --jobs N (shard runs over N worker domains), --cache-dir DIR
   (persistent on-disk run cache), --no-cache (ignore --cache-dir),
   --micro (microbenchmarks only), --json-out FILE (where the engine
   comparison JSON goes; default BENCH_engine.json).  The micro pass
   also writes the execution engine comparison (interpreter oracle vs
   flat threaded code, fused and unfused) to that file. *)

let parse_args () =
  let ids = ref [] and scale = ref 1.0 and seed = ref 42 and micro = ref false in
  let jobs = ref 1 and cache_dir = ref None and no_cache = ref false in
  let json_out = ref "BENCH_engine.json" in
  let rec go = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        go rest
    | "--cache-dir" :: v :: rest ->
        cache_dir := Some v;
        go rest
    | "--no-cache" :: rest ->
        no_cache := true;
        go rest
    | "--micro" :: rest ->
        micro := true;
        go rest
    | "--json-out" :: v :: rest ->
        json_out := v;
        go rest
    | id :: rest ->
        if not (List.mem id Exp_figures.ids) then begin
          Printf.eprintf "unknown experiment %s (known: %s)\n" id
            (String.concat " " Exp_figures.ids);
          exit 1
        end;
        ids := id :: !ids;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  let cache_dir = if !no_cache then None else !cache_dir in
  (List.rev !ids, !scale, !seed, !jobs, cache_dir, !micro, !json_out)

let run_figures ids scale seed jobs cache_dir =
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "PEP reproduction: %d benchmarks, scale %.2f, seed %d, jobs %d\n%!"
    (List.length Suite.names) scale seed jobs;
  ignore (Exp_pool.figures ~jobs ?cache_dir ~scale ~seed ids);
  Printf.printf "\n[figures done in %.1fs]\n%!" (Unix.gettimeofday () -. t0)

(* ------------------------- microbenchmarks ------------------------- *)

open Bechamel
open Toolkit

(* Each micro is measured in its own Bechamel run, preceded by a major
   GC + compaction so one test's garbage never lands in another's
   measurement window.  Sub-100ns operations are additionally batched:
   the staged closure runs the operation [batch] times and the OLS
   estimate is divided back down, which pushes the per-run cost far
   above the clock/loop overhead that otherwise dominates the residue
   (prng-next used to report r² 0.03; batched it is ~1.0). *)
type micro = { mtest : Test.t; batch : int }

let one ?(batch = 1) ~name fn =
  if batch = 1 then { mtest = Test.make ~name (Staged.stage fn); batch }
  else
    {
      mtest =
        Test.make ~name
          (Staged.stage (fun () ->
               for _ = 1 to batch do
                 fn ()
               done));
      batch;
    }

let micro_tests () =
  (* a mid-sized method with loops and branches as the common subject *)
  let program = Workload.program ~size:4 (Suite.find "jython") in
  let exec = Program.find program "exec" in
  let cfg = To_cfg.cfg exec in
  let dag = Dag.build Dag.Loop_header cfg in
  let numbering = Numbering.ball_larus dag in
  let plan = Instrument.of_numbering numbering in
  let n_paths = Numbering.n_paths numbering in
  let freq (e : Dag.edge) = (e.Dag.idx * 37) land 255 in
  let profile_pair =
    let actual = Edge_profile.create_table ~n_methods:1 in
    let estimated = Edge_profile.create_table ~n_methods:1 in
    for br = 0 to 63 do
      Edge_profile.add actual.(0) br ~taken:true ((br * 13) land 1023);
      Edge_profile.add actual.(0) br ~taken:false ((br * 7) land 511);
      Edge_profile.add estimated.(0) br ~taken:true ((br * 11) land 1023);
      Edge_profile.add estimated.(0) br ~taken:false ((br * 5) land 511)
    done;
    (actual, estimated)
  in
  let tiny_program =
    Compile.program ~name:"tiny" ~main:"main"
      [
        Ast.mdef "main" ~params:[]
          Ast.
            [
              set "s" (i 0);
              for_ "k" (i 0) (i 100)
                [
                  if_ (eq (band (v "k") (i 3)) (i 0))
                    [ set "s" (add (v "s") (v "k")) ]
                    [ set "s" (add (v "s") (i 1)) ];
                ];
              ret (v "s");
            ];
      ]
  in
  let sampler = Sampling.create (Sampling.pep ~samples:64 ~stride:17) in
  [
    (* fig6/fig7 machinery: instrumentation plan construction per compile *)
    one ~batch:4 ~name:"pass/dag-build" (fun () -> ignore (Dag.build Dag.Loop_header cfg));
    one ~batch:64 ~name:"pass/ball-larus-numbering" (fun () ->
        ignore (Numbering.ball_larus dag));
    one ~batch:16 ~name:"pass/smart-numbering" (fun () ->
        ignore (Numbering.smart ~freq dag));
    one ~batch:32 ~name:"pass/instrument-plan" (fun () ->
        ignore (Instrument.of_numbering numbering));
    (* fig8/fig9 machinery: what a sample costs the runtime *)
    one ~batch:128 ~name:"sample/reconstruct-path" (fun () ->
        ignore (Reconstruct.cfg_edges numbering (n_paths / 2)));
    one ~batch:4096 ~name:"sample/sampler-step" (fun () ->
        if not (Sampling.active sampler) then Sampling.activate sampler;
        ignore (Sampling.step sampler));
    one ~batch:64 ~name:"sample/static-ops" (fun () ->
        ignore (Instrument.static_ops plan));
    (* the substrate itself *)
    one ~batch:4 ~name:"vm/interp-100-iter-loop" (fun () ->
        let st = Machine.create ~seed:1 tiny_program in
        ignore (Interp.run Interp.no_hooks st));
    (let prng = Prng.create ~seed:9 in
     one ~batch:4096 ~name:"vm/prng-next" (fun () -> ignore (Prng.next prng)));
    (* fig10/fig11 machinery: layout computation per opt-compile *)
    (let prof = (fst profile_pair).(0) in
     one ~batch:2 ~name:"opt/layout-compute" (fun () -> ignore (Layout.compute cfg prof)));
    (* the workload generator: spec codec and program synthesis *)
    (let s = Wgen.print Wgen.default in
     one ~batch:256 ~name:"gen/spec-parse" (fun () ->
         ignore (Result.get_ok (Wgen.parse s))));
    one ~batch:4 ~name:"gen/build-program" (fun () ->
        ignore (Workload.program ~size:5 (Wgen.workload Wgen.default)));
    (* accuracy metrics over a 64-branch profile *)
    (let actual, estimated = profile_pair in
     one ~batch:8 ~name:"metric/relative-overlap" (fun () ->
         ignore (Accuracy.relative_overlap ~actual ~estimated)));
    (let actual, estimated = profile_pair in
     one ~batch:4 ~name:"metric/absolute-overlap" (fun () ->
         ignore (Accuracy.absolute_overlap ~actual ~estimated)));
  ]

(* Oracle-vs-threaded engine comparison (DESIGN.md "Execution engine").
   Machines are created once, outside the staged closures, so the
   measured cost is steady-state execution: the interpreter's dispatch
   loop vs flat threaded code with warm inline caches, with and without
   superinstruction fusion. *)

(* The two gated engine micros.  call-heavy: ~1300 calls per run (a
   call every ~25 bytecode instructions) through recursive fib plus a
   polymorphic-helper loop whose leaves carry realistic branchy bodies;
   branch-heavy: a tight loop of data-dependent if/else and switch
   dispatch with no calls at all. *)
let call_heavy_program () =
  Compile.program ~name:"call_heavy" ~main:"main"
    Ast.
      [
        mdef "fib" ~params:[ "n" ]
          [
            if_ (lt (v "n") (i 2))
              [ ret (v "n") ]
              [
                ret
                  (add
                     (call "fib" [ sub (v "n") (i 1) ])
                     (call "fib" [ sub (v "n") (i 2) ]));
              ];
          ];
        mdef "clamp" ~params:[ "x"; "lo"; "hi" ]
          [
            if_ (lt (v "x") (v "lo")) [ ret (v "lo") ] [];
            if_ (gt (v "x") (v "hi")) [ ret (v "hi") ] [];
            ret (v "x");
          ];
        mdef "mix" ~params:[ "a"; "b" ]
          [
            set "x" (add (mul (v "a") (i 3)) (band (v "b") (i 1023)));
            switch
              (band (v "x") (i 15))
              [
                (0, [ set "x" (add (v "x") (v "b")) ]);
                (1, [ set "x" (bxor (v "x") (v "a")) ]);
                (2, [ set "x" (sub (v "x") (i 5)) ]);
                (3, [ set "x" (add (v "x") (i 9)) ]);
                (4, [ set "x" (bxor (v "x") (i 255)) ]);
                (5, [ set "x" (add (v "x") (v "a")) ]);
                (6, [ set "x" (sub (v "x") (v "a")) ]);
                (7, [ set "x" (bxor (v "x") (i 85)) ]);
                (8, [ set "x" (add (v "x") (i 17)) ]);
                (9, [ set "x" (bxor (v "x") (i 51)) ]);
                (10, [ set "x" (sub (v "x") (i 2)) ]);
                (11, [ set "x" (add (v "x") (i 33)) ]);
              ]
              [ set "x" (sub (v "x") (v "b")) ];
            switch
              (band (v "b") (i 3))
              [
                (0, [ set "x" (add (v "x") (i 1)) ]);
                (1, [ set "x" (bxor (v "x") (i 21)) ]);
                (2, [ set "x" (add (v "x") (i 3)) ]);
              ]
              [ set "x" (sub (v "x") (i 1)) ];
            if_ (eq (band (v "x") (i 1)) (i 0))
              [ set "x" (add (v "x") (v "b")) ]
              [ set "x" (bxor (v "x") (v "a")) ];
            ret (band (v "x") (i 0xFFFFF));
          ];
        mdef "main" ~params:[]
          [
            set "s" (call "fib" [ i 9 ]);
            for_ "k" (i 0) (i 300)
              [
                set "s" (call "mix" [ v "k"; v "s" ]);
                set "t" (call "mix" [ v "s"; v "k" ]);
                set "s" (add (v "s") (call "clamp" [ v "t"; i 0; i 65535 ]));
                set "s" (call "mix" [ v "s"; v "t" ]);
              ];
            ret (v "s");
          ];
      ]

let branch_heavy_program () =
  Compile.program ~name:"branch_heavy" ~main:"main"
    Ast.
      [
        mdef "main" ~params:[]
          [
            set "s" (i 0);
            for_ "k" (i 0) (i 500)
              [
                if_ (eq (band (v "k") (i 1)) (i 0))
                  [ set "s" (add (v "s") (v "k")) ]
                  [
                    if_ (lt (v "s") (i 100_000))
                      [ set "s" (mul (v "s") (i 2)) ]
                      [ set "s" (sub (v "s") (v "k")) ];
                  ];
                switch
                  (band (v "k") (i 3))
                  [
                    (0, [ set "s" (add (v "s") (i 1)) ]);
                    (1, [ set "s" (bxor (v "s") (i 21)) ]);
                    (2, [ set "s" (add (v "s") (i 3)) ]);
                  ]
                  [ set "s" (sub (v "s") (i 1)) ];
              ];
            ret (v "s");
          ];
      ]

(* Per-micro machines and engines, shared by the Bechamel rows and the
   speedup measurement.  [batches] are the Bechamel batching factors
   (oracle, fused, nofuse), sized so each staged call runs long enough
   for a clean OLS fit. *)
type engine_setup = {
  etag : string;
  oracle_st : Machine.t;
  e_fused : Codegen.t;
  e_nofuse : Codegen.t;
  batches : int * int * int;
}

let engine_setups () =
  List.map
    (fun (etag, program, batches) ->
      let engine_with fuse =
        let st = Machine.create ~seed:7 program in
        let eng = Codegen.create ~fuse st in
        ignore (Codegen.run eng) (* translate up front; caches warm *);
        eng
      in
      {
        etag;
        oracle_st = Machine.create ~seed:7 program;
        e_fused = engine_with true;
        e_nofuse = engine_with false;
        batches;
      })
    [
      ("call-heavy", call_heavy_program (), (1, 4, 2));
      ("branch-heavy", branch_heavy_program (), (4, 8, 4));
    ]

let engine_tests setups =
  List.concat_map
    (fun s ->
      let bo, bf, bn = s.batches in
      [
        one ~batch:bo
          ~name:(Printf.sprintf "engine/oracle-%s" s.etag)
          (fun () -> ignore (Interp.run Interp.no_hooks s.oracle_st));
        one ~batch:bf
          ~name:(Printf.sprintf "engine/v2-flat-%s" s.etag)
          (fun () -> ignore (Codegen.run s.e_fused));
        (* fusion ablation: same flat engine, superinstructions off *)
        one ~batch:bn
          ~name:(Printf.sprintf "engine/v2-flat-nofuse-%s" s.etag)
          (fun () -> ignore (Codegen.run s.e_nofuse));
      ])
    setups

(* The official speedup numbers.  Per-variant Bechamel runs happen in
   disjoint time windows, so host interference between windows lands
   directly in any ratio of their estimates.  Instead the variants are
   timed round-robin in small chunks inside the same window and the
   reported speedup is the ratio of per-variant minima: on a
   steal-noisy virtualized host the minimum chunk is each variant's
   uninterrupted cost, which is the quantity the ratio is about.  The
   median of per-round ratios is reported alongside as a
   drift-conservative second opinion. *)
let time_group iters fns =
  let k = Array.length fns in
  Array.iter (fun f -> ignore (f ()); ignore (f ())) fns;
  let rounds = 96 in
  let per = max 1 (iters / rounds) in
  let dts = Array.make_matrix rounds k infinity in
  for r = 0 to rounds - 1 do
    for j = 0 to k - 1 do
      let f = fns.(j) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to per do
        ignore (f ())
      done;
      dts.(r).(j) <- (Unix.gettimeofday () -. t0) /. float_of_int per
    done
  done;
  dts

let min_ratio dts num den =
  let best j =
    Array.fold_left (fun acc (row : float array) -> Float.min acc row.(j))
      infinity dts
  in
  best num /. best den

let median_ratio dts num den =
  let rs = Array.map (fun (row : float array) -> row.(num) /. row.(den)) dts in
  Array.sort compare rs;
  rs.(Array.length rs / 2)

(* (tag, fused speedup, nofuse speedup, fused median-of-ratios).
   Three independent passes per workload, minima pooled across all
   rounds: a steal burst long enough to taint one whole pass still
   leaves the others' minima intact. *)
let engine_speedups setups =
  List.map
    (fun s ->
      let fns =
        [|
          (fun () -> Interp.run Interp.no_hooks s.oracle_st);
          (fun () -> Codegen.run s.e_fused);
          (fun () -> Codegen.run s.e_nofuse);
        |]
      in
      let dts =
        Array.concat
          (List.init 3 (fun _ ->
               Gc.compact ();
               time_group 4800 fns))
      in
      (s.etag, min_ratio dts 0 1, min_ratio dts 0 2, median_ratio dts 0 1))
    setups

(* Suite rows: Base, PEP(64,17) and instrumentation-only (PEP's path
   register kept, never sampled) replays of every workload at scale
   0.05, the work the figure sweep executes, in three variants over the
   same precompiled bodies: the oracle as the driver runs it, the flat
   engine as the driver runs it (hooked), and the driver's flat engine
   with its hooks removed (bare: same translations' fusion masks, no
   observer).  One timed call is one application iteration; minima are
   taken over interleaved rounds, as for the micro speedups. *)
let suite_scale = 0.05

type suite_row = {
  workload : string;
  config : string;  (* "base", "pep" or "instr" *)
  blocks : float;  (* executed blocks per iteration *)
  oracle_s : float;  (* minimum seconds per iteration, per variant *)
  hooked_s : float;
  bare_s : float;
}

let suite_configs =
  let pep sampling = Some { Driver.sampling; zero = `Hottest; numbering = `Smart } in
  [
    ("base", None);
    ("pep", pep (Sampling.pep ~samples:64 ~stride:17));
    ("instr", pep Sampling.never);
  ]

let precompiled ~engine (env : Exp_harness.env) pep =
  let st = Machine.create ~seed:env.seed env.program in
  let d =
    Driver.create
      {
        Driver.default_options with
        Driver.mode = Driver.Replay env.advice;
        pep;
        engine;
      }
      st
  in
  Driver.precompile d;
  d

(* Every transfer and every invocation enters one block, and the oracle
   calls [on_edge] on every edge. *)
let blocks_per_iteration env pep =
  let d = precompiled ~engine:`Oracle env pep in
  let n = ref 0 in
  Driver.add_hooks d
    [
      {
        Interp.layer with
        on_entry = Some (fun _ _ -> incr n);
        on_edge = Some (fun _ _ ~src:_ ~idx:_ ~dst:_ -> incr n);
      };
    ];
  let iters = 3 in
  for _ = 1 to iters do
    ignore (Driver.run d)
  done;
  float_of_int !n /. float_of_int iters

let suite_rows ~seed =
  List.concat_map
    (fun (env : Exp_harness.env) ->
      List.map
        (fun (config, pep) ->
          let oracle = precompiled ~engine:`Oracle env pep in
          let hooked = precompiled ~engine:`Threaded env pep in
          let bare = Driver.engine (precompiled ~engine:`Threaded env pep) in
          Codegen.set_hooks bare Interp.no_hooks;
          let fns =
            [|
              (fun () -> snd (Driver.run oracle));
              (fun () -> snd (Driver.run hooked));
              (fun () -> Codegen.run bare);
            |]
          in
          Gc.compact ();
          let dts = time_group 96 fns in
          let best j =
            Array.fold_left
              (fun acc (row : float array) -> Float.min acc row.(j))
              infinity dts
          in
          {
            workload = env.workload.Workload.name;
            config;
            blocks = blocks_per_iteration env pep;
            oracle_s = best 0;
            hooked_s = best 1;
            bare_s = best 2;
          })
        suite_configs)
    (Exp_pool.suite_envs ~scale:suite_scale ~seed ())

(* Suite-wide ratio of two variants: total minimum time over every
   workload of [config], so heavier workloads weigh more, as in the
   sweep. *)
let suite_ratio rows config num den =
  let sum f =
    List.fold_left
      (fun acc r -> if r.config = config then acc +. f r else acc)
      0. rows
  in
  sum num /. sum den

let write_engine_json ~seed ~wall ~json_out ~speedups ~suite rows =
  let tier = "v2-flat" in
  let pick f tag =
    match List.find_opt (fun (t, _, _, _) -> t = tag) speedups with
    | Some s -> f s
    | None -> nan
  in
  let speedup = pick (fun (_, f, _, _) -> f) in
  let speedup_nofuse = pick (fun (_, _, n, _) -> n) in
  let speedup_median = pick (fun (_, _, _, m) -> m) in
  let oc = open_out json_out in
  Printf.fprintf oc "{\n  \"seed\": %d,\n  \"suite_wall_clock_s\": %.3f,\n"
    seed wall;
  Printf.fprintf oc "  \"engine_tier\": \"%s\",\n" tier;
  Printf.fprintf oc
    "  \"speedup\": { \"call_heavy\": %.2f, \"branch_heavy\": %.2f },\n"
    (speedup "call-heavy") (speedup "branch-heavy");
  Printf.fprintf oc
    "  \"speedup_nofuse\": { \"call_heavy\": %.2f, \"branch_heavy\": %.2f },\n"
    (speedup_nofuse "call-heavy")
    (speedup_nofuse "branch-heavy");
  Printf.fprintf oc
    "  \"speedup_median\": { \"call_heavy\": %.2f, \"branch_heavy\": %.2f },\n"
    (speedup_median "call-heavy")
    (speedup_median "branch-heavy");
  let ns r s = s *. 1e9 /. r.blocks in
  Printf.fprintf oc "  \"suite\": {\n    \"scale\": %.2f,\n" suite_scale;
  Printf.fprintf oc "    \"ratio\": {\n";
  List.iteri
    (fun j (config, _) ->
      Printf.fprintf oc
        "      \"%s\": { \"hooked_vs_bare\": %.3f, \"oracle_vs_hooked\": %.3f,          \"oracle_vs_bare\": %.3f }%s\n"
        config
        (suite_ratio suite config (fun r -> r.hooked_s) (fun r -> r.bare_s))
        (suite_ratio suite config (fun r -> r.oracle_s) (fun r -> r.hooked_s))
        (suite_ratio suite config (fun r -> r.oracle_s) (fun r -> r.bare_s))
        (if j = List.length suite_configs - 1 then "" else ","))
    suite_configs;
  Printf.fprintf oc "    },\n    \"rows\": [\n";
  List.iteri
    (fun j r ->
      Printf.fprintf oc
        "      { \"workload\": \"%s\", \"config\": \"%s\", \"blocks\": %.0f,          \"oracle_ns_per_block\": %.2f, \"hooked_ns_per_block\": %.2f,          \"bare_ns_per_block\": %.2f }%s\n"
        r.workload r.config r.blocks (ns r r.oracle_s) (ns r r.hooked_s)
        (ns r r.bare_s)
        (if j = List.length suite - 1 then "" else ","))
    suite;
  Printf.fprintf oc "    ]\n  },\n";
  Printf.fprintf oc "  \"results\": [\n";
  let rows = List.sort compare rows in
  List.iteri
    (fun j (name, estimate, r2) ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"ns_per_run\": %.1f, \"r_square\": %.4f }%s\n"
        name estimate r2
        (if j = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf
    "\n[engine: %s is %.2fx (call-heavy) / %.2fx (branch-heavy) vs oracle; \
     suite hooked/bare %.2f (Base) / %.2f (PEP) / %.2f (instr-only); %s \
     written]\n%!"
    tier (speedup "call-heavy") (speedup "branch-heavy")
    (suite_ratio suite "base" (fun r -> r.hooked_s) (fun r -> r.bare_s))
    (suite_ratio suite "pep" (fun r -> r.hooked_s) (fun r -> r.bare_s))
    (suite_ratio suite "instr" (fun r -> r.hooked_s) (fun r -> r.bare_s))
    json_out

let run_micro ~seed ~json_out () =
  let t0 = Unix.gettimeofday () in
  Printf.printf "\n=== microbenchmarks (Bechamel, ns/run) ===\n%!";
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let setups = engine_setups () in
  (* One Bechamel run per test, each from a compacted heap, so the
     allocation profile of one measurement never pollutes the next.  A
     run whose OLS fit comes back poor was interrupted by the host
     (steal time lands in the residuals, not the slope), so it is
     retried a few times and the best-fitting attempt kept. *)
  let measure m =
    Gc.compact ();
    let grouped = Test.make_grouped ~name:"pep" [ m.mtest ] in
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e /. float_of_int m.batch
          | Some [] | None -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
  in
  let rec best_of m tries best =
    let rows = measure m in
    let r2_of rows =
      List.fold_left (fun acc (_, _, r2) -> Float.min acc r2) infinity rows
    in
    let best =
      match best with
      | Some prev when r2_of prev >= r2_of rows -> Some prev
      | _ -> Some rows
    in
    if r2_of (Option.get best) >= 0.9 || tries >= 5 then Option.get best
    else best_of m (tries + 1) best
  in
  let rows =
    List.concat_map
      (fun m -> best_of m 1 None)
      (micro_tests () @ engine_tests setups)
  in
  List.iter
    (fun (name, estimate, r2) ->
      Printf.printf "%-40s %12.1f ns/run   r²=%.4f\n" name estimate r2)
    (List.sort compare rows);
  let speedups = engine_speedups setups in
  let suite = suite_rows ~seed in
  write_engine_json ~seed
    ~wall:(Unix.gettimeofday () -. t0)
    ~json_out ~speedups ~suite rows

let () =
  let ids, scale, seed, jobs, cache_dir, micro_only, json_out = parse_args () in
  if micro_only then run_micro ~seed ~json_out ()
  else if ids <> [] then run_figures ids scale seed jobs cache_dir
  else begin
    run_figures Exp_figures.ids scale seed jobs cache_dir;
    run_micro ~seed ~json_out ()
  end
