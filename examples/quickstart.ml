(* Quickstart: write a small program, run it under PEP, and print the
   path and edge profiles it collects.

   Run with: dune exec examples/quickstart.exe *)

open Ast

(* A method with an interesting path space: a loop whose body takes one
   of several acyclic paths per iteration. *)
let program =
  Compile.program ~name:"quickstart" ~main:"main"
    [
      mdef "classify" ~params:[ "x" ]
        [
          set "score" (i 0);
          if_ (lt (v "x") (i 40)) [ set "score" (i 1) ] [];
          if_ (eq (band (v "x") (i 7)) (i 0)) [ set "score" (add (v "score") (i 2)) ] [];
          ret (v "score");
        ];
      mdef "main" ~params:[]
        [
          set "sum" (i 0);
          for_ "k" (i 0) (i 200_000)
            [ set "sum" (add (v "sum") (call "classify" [ rnd 100 ])) ];
          ret (v "sum");
        ];
    ]

let () =
  (* 1. load the program into a machine *)
  let machine = Machine.create ~seed:2026 program in

  (* 2. attach PEP with the paper's recommended configuration *)
  let pep =
    Pep.create ~sampling:(Sampling.pep ~samples:64 ~stride:17) machine
  in

  (* 3. run: the tick driver owns the virtual timer, PEP samples at
     path-end yieldpoints *)
  let hooks = Tick.hooks () @ pep.Pep.hooks in
  let result = Interp.run hooks machine in
  Printf.printf "program result: %d (%.1f Mcycles, %d samples)\n\n" result
    (float_of_int machine.Machine.cycles /. 1e6)
    (Pep.n_samples pep);

  (* 4. inspect the continuous path profile *)
  Program.iter_methods
    (fun m (meth : Method.t) ->
      let prof = pep.Pep.paths.(m) in
      if not (Path_profile.is_empty prof) then begin
        Printf.printf "hot paths of %s:\n" meth.Method.name;
        let entries =
          List.sort
            (fun (a : Path_profile.entry) b -> compare b.count a.count)
            (Path_profile.entries prof)
        in
        List.iteri
          (fun rank (e : Path_profile.entry) ->
            if rank < 5 then
              Printf.printf "  path %-3d sampled %6d times  (%d branches)\n"
                e.path_id e.count e.n_branches)
          entries
      end)
    program;

  (* 5. and the edge profile PEP derives from the same samples *)
  print_newline ();
  Program.iter_methods
    (fun m (meth : Method.t) ->
      let prof = pep.Pep.edges.(m) in
      if not (Edge_profile.is_empty prof) then begin
        Printf.printf "branch biases of %s:\n" meth.Method.name;
        List.iter
          (fun br ->
            match Edge_profile.bias prof br with
            | Some bias ->
                Printf.printf "  branch %d: %.0f%% taken (%d executions seen)\n"
                  br (100. *. bias) (Edge_profile.freq prof br)
            | None -> ())
          (Edge_profile.branch_ids prof)
      end)
    program
