(* Profile a program written in the textual surface language: parse it,
   verify it, and run it under PEP — the workflow a downstream user of
   the library would follow for their own programs.

   Run with: dune exec examples/custom_program.exe *)

let source =
  {|
program collatz {
  globals 4;
  heap 16;

  method steps(n) {
    count = 0;
    while (n != 1) {
      if ((n & 1) == 0) {
        n = n / 2;
      } else {
        n = 3 * n + 1;
      }
      count = count + 1;
    }
    return count;
  }

  method main() {
    total = 0;
    longest = 0;
    for (n = 2; n < 60000) {
      s = steps(n);
      total = total + s;
      if (s > longest) { longest = s; }
    }
    g[0] = longest;
    return total;
  }
}
|}

let () =
  let ast = Parse.program source in
  let program = Compile.pdef ast in
  Verify.program program;
  Printf.printf "parsed %s: %d methods, %d bytecode instructions\n"
    program.Program.name (Program.n_methods program)
    (Array.fold_left
       (fun acc m -> acc + Method.size m)
       0 program.Program.methods);

  let machine = Machine.create ~seed:1 program in
  let pep = Pep.create ~sampling:(Sampling.pep ~samples:64 ~stride:17) machine in
  let total = Interp.run (Tick.hooks () @ pep.Pep.hooks) machine in
  Printf.printf "total Collatz steps: %d, longest chain: %d\n" total
    machine.Machine.globals.(0);

  (* the while-loop header paths: how often does each branch direction
     pair occur per iteration? *)
  let steps_idx = Program.index program "steps" in
  Printf.printf "\nsampled iteration paths of `steps` (%d samples total):\n"
    (Pep.n_samples pep);
  List.iter
    (fun (e : Path_profile.entry) ->
      Printf.printf "  path %d: %d samples, %d branch(es)\n" e.path_id e.count
        e.n_branches)
    (List.sort
       (fun (a : Path_profile.entry) b -> compare b.count a.count)
       (Path_profile.entries pep.Pep.paths.(steps_idx)));
  match Edge_profile.bias pep.Pep.edges.(steps_idx) 1 with
  | Some bias ->
      Printf.printf "\neven/odd branch bias observed by PEP: %.1f%% even\n"
        (100. *. bias)
  | None -> ()
