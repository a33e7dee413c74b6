(* Helpers shared by the benchmark's workloads: the host clock, scratch
   directories, order statistics, process counters and JSON output. *)

let now = Unix.gettimeofday

(* ------------------------------ files ------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir dir =
  rm_rf dir;
  mkdir_p dir

let read_file file = In_channel.with_open_bin file In_channel.input_all

let files ?(suffix = "") dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f suffix
         && not (Sys.is_directory (Filename.concat dir f)))
  |> List.sort compare

(* Bytes held by the directory's regular files. *)
let dir_bytes dir =
  List.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (files dir)

(* MD5 over the names and bytes of the directory's [suffix] files, in
   name order: equal digests mean byte-identical stores. *)
let dir_md5 ~suffix dir =
  let b = Buffer.create 65536 in
  List.iter
    (fun f ->
      Buffer.add_string b f;
      Buffer.add_char b '\000';
      Buffer.add_string b (read_file (Filename.concat dir f));
      Buffer.add_char b '\000')
    (files ~suffix dir);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------------------------- statistics --------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = if xs = [] then nan else sum xs /. float_of_int (List.length xs)

(* ---------------------------- host speed --------------------------- *)

(* The host's speed drifts by tens of percent over seconds and minutes
   (other tenants share the machine), so every timing is scaled to a
   reference speed measured by a fixed probe taken right next to it.
   The probe does, in about equal parts, the three kinds of work whose
   speed best predicted the workloads' own segment times on that host:
   scattered reads and writes over an array larger than the L2 cache,
   hash-table updates, and short-lived list allocation.  It calls none
   of the program's code, so a faster program cannot make it faster. *)
let probe_words = 1 lsl 18
let probe_mem = lazy (Array.make probe_words 0)

let probe_once () =
  let a = Lazy.force probe_mem in
  let t = now () in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 180_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land (probe_words - 1) in
    acc := !acc + a.(i);
    a.(i) <- !acc land 0xffff
  done;
  let h = Hashtbl.create 4096 in
  for i = 0 to 10_000 do
    let k = (i * 7919) land 16383 in
    Hashtbl.replace h k (k, i);
    match Hashtbl.find_opt h ((k * 31) land 16383) with
    | Some (a, b) -> acc := !acc + a + b
    | None -> acc := !acc lxor k
  done;
  for i = 1 to 10_000 do
    let l = List.init 8 (fun j -> (i + j, j)) in
    acc := !acc + List.fold_left (fun a (x, y) -> a + x - y) 0 (List.rev l)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t

(* One sample of the host's current speed: seconds per probe, the
   median of three. *)
let probe () = median [ probe_once (); probe_once (); probe_once () ]

(* The probe time of the reference speed every timing is scaled to. *)
let probe_ref = 0.005

(* [t] seconds measured while the probe took [p] seconds, in seconds at
   the reference speed. *)
let at_ref_speed ~p t = t *. probe_ref /. p

(* ------------------------- process counters ------------------------ *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Peak resident set of this process in MB (VmHWM, KiB in
   /proc/self/status); the GC's peak heap where /proc is missing. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> go ()
        in
        go ())
  in
  match (try from_proc () with Sys_error _ | Scanf.Scan_failure _ -> None) with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6

(* ------------------------------ output ----------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The result line: one JSON object, every value with all its digits. *)
let result_json ~correct ~attempted ~failed metrics =
  let num v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit_)
          metrics))
