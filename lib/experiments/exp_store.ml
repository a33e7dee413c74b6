(* On-disk storage for experiment run payloads, adaptive series,
   derived values and replay advice.

   One file per (workload, size, seed, configuration) run, one per
   (workload, size, seed, configuration, trials) adaptive series, one
   per (workload, size, seed, configuration, tag) set of derived values
   and one per (workload, size, seed, warmup) advice, named by the MD5 of that identity so a cache directory can be
   shared across sweeps.  The bytes inside are one [Exp_codec] frame.

   The composite key embeds digests of the compiled program and the
   cost model (see Exp_cache), and an entry embeds the key's MD5, so a
   stale entry — same file name, different program — fails the
   key-digest comparison; a damaged entry fails the digest or shape
   checks; an entry in any other format or version fails the frame
   checks.  Either way the caller gets a structured [Dcg.parse_error]
   and recomputes; a load never crashes and never returns a
   partially-filled payload. *)

type payload = Exp_codec.payload = {
  iter1 : int;
  iter2 : int;
  compile : int;
  checksum : int;
  n_samples : int;
  pep_paths : int array;
  pep_edges : int array;
  ppaths : int array;
  pedges : int array;
}

let filename ~dir file_key =
  Filename.concat dir (Digest.to_hex (Digest.string file_key) ^ ".run")

let err file reason = { Dcg.file = Some file; line = 0; text = ""; reason }

let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (err dir "cache path exists but is not a directory")
  else begin
    let parent = Filename.dirname dir in
    match if parent = dir then Ok () else ensure_dir parent with
    | Error _ as e -> e
    | Ok () -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error m ->
            (* tolerate a concurrent worker creating it first; anything
               else (permissions, parent replaced by a file) surfaces *)
            if Sys.file_exists dir && Sys.is_directory dir then Ok ()
            else Error (err dir ("cannot create cache directory: " ^ m)))
  end

(* [write_file] writes to a [run-*.tmp] in the target directory before
   its rename.  A crash in between leaves the temp file behind; it is
   never read (loads go by exact final name) but would accumulate, so
   sweep on store open. *)
let temp_file ~dir = Filename.temp_file ~temp_dir:dir "run-" ".tmp"

let sweep_tmp dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun f ->
          if String.starts_with ~prefix:"run-" f && Filename.check_suffix f ".tmp"
          then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        entries
  | exception Sys_error _ -> ()

let prepare_dir dir =
  match ensure_dir dir with
  | Error _ as e -> e
  | Ok () ->
      sweep_tmp dir;
      (* probe writability now, so an unusable --cache-dir surfaces as
         one structured diagnostic at open instead of a silent
         recompute-every-run *)
      let probe = Filename.concat dir ".pepsim-writable" in
      (match Out_channel.with_open_bin probe (fun _ -> ()) with
      | () ->
          (try Sys.remove probe with Sys_error _ -> ());
          Ok ()
      | exception Sys_error m ->
          Error (err dir ("cache directory is not writable: " ^ m)))

(* --------------------------- raw file I/O -------------------------- *)

(* Whole files are read with [Unix] into one string of the file's size,
   not through an [In_channel]: a channel carries a 64 kB buffer that
   is freed only when the GC finalises it, and a fleet query reads
   every segment file, so channels would leave a query's worth of dead
   buffers to set the read phase's peak RSS.  Diagnostics keep
   [Sys_error]'s wording. *)
let rec fill fd b off =
  if off = Bytes.length b then off
  else
    match Unix.read fd b off (Bytes.length b - off) with
    | 0 -> off
    | k -> fill fd b (off + k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill fd b off

let read_fd fd =
  let b = Bytes.create (Unix.fstat fd).Unix.st_size in
  let got = fill fd b 0 in
  if got < Bytes.length b then Bytes.sub_string b 0 got
  else
    (* read on to the end, should the file have grown since [fstat] *)
    let rest = Buffer.create 0 and chunk = Bytes.create 256 in
    let rec more () =
      match fill fd chunk 0 with
      | 0 -> ()
      | k ->
          Buffer.add_subbytes rest chunk 0 k;
          more ()
    in
    more ();
    if Buffer.length rest = 0 then Bytes.unsafe_to_string b
    else Bytes.unsafe_to_string b ^ Buffer.contents rest

let read_file file =
  let unreadable m = Error (err file ("unreadable: " ^ m)) in
  match Unix.openfile file [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      unreadable (file ^ ": " ^ Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match read_fd fd with
          | s -> Ok s
          | exception Unix.Unix_error (e, _, _) ->
              unreadable (Unix.error_message e))

(* Atomic byte-level write (temp file in the target directory, then
   rename), shared by the run cache and the fleet segment store. *)
let write_file ~file contents =
  try
    let dir = Filename.dirname file in
    match ensure_dir dir with
    | Error _ as e -> e
    | Ok () -> (
        let tmp = temp_file ~dir in
        try
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc contents);
          Sys.rename tmp file;
          Ok ()
        with Sys_error m ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error (err file ("write failed: " ^ m)))
  with Sys_error m -> Error (err file ("write failed: " ^ m))

(* ---------------------------- save / load -------------------------- *)

let save ~file ~key p = write_file ~file (Exp_codec.encode ~key p)

let save_series ~file ~key totals =
  write_file ~file (Exp_codec.encode_series ~key totals)

let save_values ~file ~key values =
  write_file ~file (Exp_codec.encode_values ~key values)

let save_advice ~file ~key a = write_file ~file (Exp_codec.encode_advice ~key a)

let load_with decode ~file ~key =
  if not (Sys.file_exists file) then Ok None
  else
    match read_file file with
    | Error _ as e -> e
    | Ok contents -> Result.map Option.some (decode ~file ~key contents)

let load = load_with Exp_codec.decode
let load_series = load_with Exp_codec.decode_series
let load_values = load_with Exp_codec.decode_values
let load_advice ~n_methods = load_with (Exp_codec.decode_advice ~n_methods)
