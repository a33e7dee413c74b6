(* Helpers shared by the test files. *)

(* Directories handed out by [fresh_dir]; removed, contents and all,
   when the test binary exits. *)
let handed_out = ref []

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  at_exit (fun () ->
      List.iter
        (fun d -> try remove_tree d with Sys_error _ -> ())
        !handed_out)

(* A new, not yet existing directory path under the system temp dir,
   named after [prefix]: the code under test creates it (the stores
   create their directory on open or first save). *)
let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    let f = Filename.temp_file prefix "" in
    Sys.remove f;
    incr n;
    let d = f ^ ".d" ^ string_of_int !n in
    handed_out := d :: !handed_out;
    d
