(* The shared argument spec table.

   Every pepsim subcommand draws its common flags from here — one
   definition per flag, one docstring, one default — so `pepsim fleet`,
   `chaos`, `experiments`, `trace` and `top` can't drift apart on what
   `--seed`, `--jobs`, `--cache-dir` or `--out` mean.  Flags whose doc
   or default legitimately varies per command ([out], [scale]) are
   parameterized constructors rather than copies. *)

open Cmdliner

(* --- value conversions --------------------------------------------- *)

let sampling_conv =
  let parse s =
    let fail () = Error (`Msg (Printf.sprintf "bad sampling spec %S" s)) in
    match String.lowercase_ascii s with
    | "none" | "instr-only" -> Ok Sampling.never
    | "timer" -> Ok Sampling.timer_based
    | spec -> (
        (* pep:SAMPLES:STRIDE or ag:SAMPLES:STRIDE *)
        match String.split_on_char ':' spec with
        | [ "pep"; a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some samples, Some stride when samples > 0 && stride > 0 ->
                Ok (Sampling.pep ~samples ~stride)
            | _ -> fail ())
        | [ "ag"; a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some samples, Some stride when samples > 0 && stride > 0 ->
                Ok (Sampling.arnold_grove ~samples ~stride)
            | _ -> fail ())
        | _ -> fail ())
  in
  let print ppf c = Fmt.string ppf (Sampling.name c) in
  Arg.conv (parse, print)

(* --- the table ----------------------------------------------------- *)

let sampling_arg =
  let doc =
    "Sampling configuration: $(b,pep:SAMPLES:STRIDE), $(b,ag:SAMPLES:STRIDE), \
     $(b,timer), or $(b,instr-only)."
  in
  Arg.(
    value
    & opt sampling_conv (Sampling.pep ~samples:64 ~stride:17)
    & info [ "sampling" ] ~docv:"SPEC" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload PRNG seed.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run the $(b,Pep_check) static passes and profile lint over the \
           results and exit nonzero on any error.")

let faults_arg =
  let doc =
    "Deterministic fault plan: comma-separated clauses like \
     $(b,seed=7,path-cap=64,compile-fail=0.2,sample-overrun=0.1,corrupt=0.5) \
     (also $(b,noop), $(b,edge-cap=N), $(b,compile-retries=N), \
     $(b,compile-backoff=N)); fleet-level sites: $(b,crash=P), \
     $(b,crash-restarts=N), $(b,torn-write=P), $(b,straggler=P), \
     $(b,straggler-timeout=N), $(b,seg-corrupt=P), $(b,seg-retries=N); \
     $(b,@FILE) reads clauses from a file.  The empty spec injects \
     nothing and is bit-identical to omitting the flag."
  in
  Arg.(value & opt string "" & info [ "faults" ] ~docv:"SPEC" ~doc)

let parse_faults spec =
  match Fault_plan.parse spec with
  | Ok plan -> plan
  | Error msg ->
      Printf.eprintf "--faults: %s\n" msg;
      exit 2

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard experiment runs across N parallel worker domains.  \
           Results are bit-identical to $(b,--jobs) $(i,1).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist completed runs to $(i,DIR) and recall them on later \
           invocations without re-executing.  Stale or damaged entries \
           are reported and recomputed.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache-dir): neither read nor write persisted runs.")

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "size" ] ~docv:"N" ~doc:"Workload size (default per benchmark).")

let iters_arg =
  Arg.(
    value & opt int 2
    & info [ "iters" ] ~docv:"N" ~doc:"Application iterations to run.")

let advice_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "advice" ] ~docv:"FILE"
        ~doc:
          "Replay this advice file (see $(b,pepsim profiles --out)) \
           instead of running the adaptive system.")

let kind_arg =
  Arg.(
    value
    & opt (enum [ ("paths", `Paths); ("edges", `Edges); ("dcg", `Dcg) ]) `Paths
    & info [ "kind" ] ~docv:"KIND"
        ~doc:
          "Profile to render: $(b,paths) (sampled path profile), $(b,edges) \
           (sampled edge profile) or $(b,dcg) (tick-sampled call graph).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit JSON instead of folded-stack text.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N" ~doc:"Show only the N hottest stacks.")

(* per-command doc, one spelling of the flag *)
let out_arg ~docv ~doc =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv ~doc)

let scale_arg ~default =
  Arg.(
    value & opt float default
    & info [ "scale" ] ~docv:"F" ~doc:"Scale workload sizes by F.")

(* fleet diff and fleet watch: the finding thresholds *)
let new_share_arg =
  Arg.(
    value & opt float Fleet_query.default_thresholds.Fleet_query.new_share
    & info [ "new-share" ] ~docv:"F"
        ~doc:"Path share making an unseen path a new-hot-path finding.")

let edge_shift_arg =
  Arg.(
    value & opt float Fleet_query.default_thresholds.Fleet_query.edge_shift
    & info [ "edge-shift" ] ~docv:"F"
        ~doc:"Taken-bias delta flagging an edge-flow shift.")

let workload_name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME"
        ~doc:
          "Benchmark name (see $(b,pepsim list)), a phased workload, or a \
           $(b,gen:) spec string (see $(b,pepsim gen)).")

(* --- shared helpers ------------------------------------------------ *)

let find_workload name =
  match Suite.resolve name with
  | Ok w -> w
  | Error msg ->
      Printf.eprintf "%s; try `pepsim list` or `pepsim gen describe`\n" msg;
      exit 2

(* Repeatable, comma-separable option values, blanks dropped. *)
let split_commas xs =
  List.filter (fun s -> s <> "") (List.concat_map (String.split_on_char ',') xs)

let require_pos name v =
  if v < 1 then begin
    Printf.eprintf "--%s: expected an integer >= 1, got %d\n" name v;
    exit 2
  end

(* The curated cases a [--case] list names, in its order; all of them
   for an empty list.  An unknown label exits 2. *)
let pick_cases ~what ~label all labels =
  match split_commas labels with
  | [] -> all
  | ls ->
      List.map
        (fun l ->
          match List.find_opt (fun c -> label c = l) all with
          | Some c -> c
          | None ->
              Printf.eprintf "unknown %s %s; have: %s\n" what l
                (String.concat " " (List.map label all));
              exit 2)
        ls

(* Comma-separable *workload* lists: a [gen:] spec itself contains
   commas, so axis fragments (key=value, not themselves a spec) are
   re-attached to the preceding gen: fragment instead of being taken
   for workload names. *)
let split_workloads xs =
  List.rev
    (List.fold_left
       (fun acc part ->
         match acc with
         | prev :: rest
           when Wgen.is_spec prev && (not (Wgen.is_spec part))
                && String.contains part '=' ->
             (prev ^ "," ^ part) :: rest
         | _ -> part :: acc)
       [] (split_commas xs))
