include Diagnostic

(* Diagnostics accumulate newest-first; every pass returns them
   oldest-first. *)
type ctx = { pass : string; mutable acc : diagnostic list }

let report ctx severity loc fmt =
  Fmt.kstr
    (fun message ->
      ctx.acc <- { severity; pass = ctx.pass; loc; message } :: ctx.acc)
    fmt

let new_ctx pass = { pass; acc = [] }
let finish ctx = List.rev ctx.acc

let verify_method p m = (Verify.check p m).Verify.diagnostics
let verify_program = Verify.check_program

(* --- pass 2: CFG / DAG invariants ---------------------------------- *)

let check_cfg cfg =
  let ctx = new_ctx "cfg" in
  let name = Cfg.name cfg in
  let n = Cfg.n_blocks cfg in
  let in_range b = b >= 0 && b < n in
  if not (in_range (Cfg.entry cfg)) then
    report ctx Error (Method_loc name) "entry block %d out of range"
      (Cfg.entry cfg);
  if not (in_range (Cfg.exit_ cfg)) then
    report ctx Error (Method_loc name) "exit block %d out of range"
      (Cfg.exit_ cfg);
  if has_errors ctx.acc then finish ctx
  else begin
    (* terminators and the successor lists they imply *)
    Cfg.iter_blocks
      (fun b ->
        let expect_targets =
          match Cfg.terminator cfg b with
          | Cfg.Return ->
              if b <> Cfg.exit_ cfg then
                report ctx Error (Block_loc (name, b))
                  "return outside the exit block";
              []
          | Cfg.Jump d -> [ (d, Cfg.Seq) ]
          | Cfg.Branch { branch; taken; not_taken } ->
              if taken = not_taken then
                report ctx Error (Block_loc (name, b))
                  "branch arms coincide on block %d" taken;
              [ (taken, Cfg.Taken branch); (not_taken, Cfg.Not_taken branch) ]
        in
        List.iter
          (fun (d, _) ->
            if not (in_range d) then
              report ctx Error (Block_loc (name, b))
                "successor %d out of range" d)
          expect_targets;
        let succs = Cfg.successors cfg b in
        let expected =
          List.filter_map
            (fun (dst, attr) ->
              if in_range dst then Some { Cfg.src = b; dst; attr } else None)
            expect_targets
        in
        if
          List.length succs <> List.length expected
          || not (List.for_all2 Cfg.equal_edge succs expected)
        then
          report ctx Error (Block_loc (name, b))
            "successor edges disagree with the terminator")
      cfg;
    (match Cfg.terminator cfg (Cfg.exit_ cfg) with
    | Cfg.Return -> ()
    | Cfg.Jump _ | Cfg.Branch _ ->
        report ctx Error
          (Block_loc (name, Cfg.exit_ cfg))
          "exit block does not end in return");
    (* edge list, predecessor lists, and the one-edge-per-pair rule *)
    let all = Cfg.edges cfg in
    if List.length all <> Cfg.n_edges cfg then
      report ctx Error (Method_loc name) "n_edges %d but %d edges listed"
        (Cfg.n_edges cfg) (List.length all);
    let pairs = Hashtbl.create 32 in
    List.iter
      (fun (e : Cfg.edge) ->
        if Hashtbl.mem pairs (e.src, e.dst) then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "duplicate edge between one block pair";
        Hashtbl.replace pairs (e.src, e.dst) ();
        if
          not
            (List.exists (Cfg.equal_edge e) (Cfg.successors cfg e.src)
            && List.exists (Cfg.equal_edge e) (Cfg.predecessors cfg e.dst))
        then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "edge missing from successor or predecessor list")
      all;
    let n_pred_edges =
      let acc = ref 0 in
      Cfg.iter_blocks
        (fun b -> acc := !acc + List.length (Cfg.predecessors cfg b))
        cfg;
      !acc
    in
    if n_pred_edges <> List.length all then
      report ctx Error (Method_loc name)
        "predecessor lists hold %d edges, edge list %d" n_pred_edges
        (List.length all);
    (* reachability and co-reachability *)
    let fwd = Array.make n false and bwd = Array.make n false in
    let rec down b =
      if not fwd.(b) then begin
        fwd.(b) <- true;
        List.iter (fun (e : Cfg.edge) -> down e.dst) (Cfg.successors cfg b)
      end
    in
    let rec up b =
      if not bwd.(b) then begin
        bwd.(b) <- true;
        List.iter (fun (e : Cfg.edge) -> up e.src) (Cfg.predecessors cfg b)
      end
    in
    down (Cfg.entry cfg);
    up (Cfg.exit_ cfg);
    Cfg.iter_blocks
      (fun b ->
        if not fwd.(b) then
          report ctx Error (Block_loc (name, b)) "block unreachable from entry";
        if not bwd.(b) then
          report ctx Error (Block_loc (name, b)) "block cannot reach the exit")
      cfg;
    (* loop analysis consistency *)
    let dom = Dominator.compute cfg in
    let loops = Loops.compute cfg in
    let back = Loops.back_edges loops in
    let irr = Loops.irreducible_edges loops in
    let is_real (e : Cfg.edge) =
      List.exists (Cfg.equal_edge e) (Cfg.successors cfg e.src)
    in
    List.iter
      (fun (e : Cfg.edge) ->
        if not (is_real e) then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "reported back edge is not a CFG edge";
        if not (Dominator.dominates dom e.dst e.src) then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "back edge target does not dominate its source")
      back;
    List.iter
      (fun (e : Cfg.edge) ->
        if not (is_real e) then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "reported irreducible edge is not a CFG edge";
        if Dominator.dominates dom e.dst e.src then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "irreducible edge is actually a back edge")
      irr;
    (* completeness: every dominator-certified back edge is reported *)
    List.iter
      (fun (e : Cfg.edge) ->
        if
          Dominator.dominates dom e.dst e.src
          && not (List.exists (Cfg.equal_edge e) back)
        then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "back edge missing from the loop analysis")
      all;
    let headers = List.sort_uniq compare (List.map (fun (e : Cfg.edge) -> e.dst) back) in
    if headers <> Loops.headers loops then
      report ctx Error (Method_loc name)
        "loop headers disagree with back-edge targets";
    Cfg.iter_blocks
      (fun b ->
        if Loops.is_header loops b <> List.mem b headers then
          report ctx Error (Block_loc (name, b)) "is_header disagrees with headers")
      cfg;
    if Loops.is_reducible loops <> (irr = []) then
      report ctx Error (Method_loc name)
        "reducibility flag disagrees with irreducible edge list";
    finish ctx
  end

let check_dag dag =
  let ctx = new_ctx "dag" in
  let cfg = Dag.cfg dag in
  let name = Cfg.name cfg in
  let n = Dag.n_nodes dag in
  let topo = Dag.topo dag in
  (* the topological order visits each node once, entry first, exit last,
     and every edge goes forward: together, acyclicity *)
  if Array.length topo <> n then
    report ctx Error (Method_loc name) "topo order has %d of %d nodes"
      (Array.length topo) n;
  let pos = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then
        report ctx Error (Method_loc name) "topo order holds bogus node %d" v
      else begin
        if pos.(v) <> -1 then
          report ctx Error (Node_loc (name, v)) "node repeated in topo order";
        pos.(v) <- i
      end)
    topo;
  if has_errors ctx.acc then finish ctx
  else begin
    if n > 0 && topo.(0) <> Dag.entry_node dag then
      report ctx Error (Method_loc name) "topo order does not start at entry";
    if n > 0 && topo.(n - 1) <> Dag.exit_node dag then
      report ctx Error (Method_loc name) "topo order does not end at exit";
    Dag.iter_edges
      (fun (e : Dag.edge) ->
        if pos.(e.esrc) >= pos.(e.edst) then
          report ctx Error
            (Node_loc (name, e.esrc))
            "edge n%d->n%d goes backward in topo order: the graph has a cycle"
            e.esrc e.edst)
      dag;
    if Dag.in_edges dag (Dag.entry_node dag) <> [] then
      report ctx Error
        (Node_loc (name, Dag.entry_node dag))
        "entry node has incoming edges";
    if Dag.out_edges dag (Dag.exit_node dag) <> [] then
      report ctx Error
        (Node_loc (name, Dag.exit_node dag))
        "exit node has outgoing edges";
    (* adjacency lists and the edge array agree *)
    let edge_ids_of l = List.sort compare (List.map (fun (e : Dag.edge) -> e.idx) l) in
    let seen_out = Array.make n [] and seen_in = Array.make n [] in
    for i = 0 to Dag.n_edges dag - 1 do
      let e = Dag.edge dag i in
      if e.idx <> i then
        report ctx Error (Node_loc (name, e.esrc)) "edge %d stored under index %d"
          e.idx i;
      seen_out.(e.esrc) <- e :: seen_out.(e.esrc);
      seen_in.(e.edst) <- e :: seen_in.(e.edst)
    done;
    for v = 0 to n - 1 do
      if edge_ids_of (Dag.out_edges dag v) <> edge_ids_of seen_out.(v) then
        report ctx Error (Node_loc (name, v)) "out-edge list disagrees with edges";
      if edge_ids_of (Dag.in_edges dag v) <> edge_ids_of seen_in.(v) then
        report ctx Error (Node_loc (name, v)) "in-edge list disagrees with edges"
    done;
    (* every node on an entry-to-exit path *)
    let fwd = Array.make n false and bwd = Array.make n false in
    let rec down v =
      if not fwd.(v) then begin
        fwd.(v) <- true;
        List.iter (fun (e : Dag.edge) -> down e.edst) (Dag.out_edges dag v)
      end
    in
    let rec up v =
      if not bwd.(v) then begin
        bwd.(v) <- true;
        List.iter (fun (e : Dag.edge) -> up e.esrc) (Dag.in_edges dag v)
      end
    in
    down (Dag.entry_node dag);
    up (Dag.exit_node dag);
    for v = 0 to n - 1 do
      if not (fwd.(v) && bwd.(v)) then
        report ctx Error (Node_loc (name, v)) "node off every entry-to-exit path"
    done;
    (* real edges = CFG edges minus the cut truncations *)
    let truncs = Dag.truncations dag in
    let cut =
      List.filter_map
        (function Dag.Cut_edge e -> Some e | Dag.Split_header _ -> None)
        truncs
    in
    let split_headers =
      List.filter_map
        (function Dag.Split_header h -> Some h | Dag.Cut_edge _ -> None)
        truncs
    in
    let mem_edge e l = List.exists (Cfg.equal_edge e) l in
    let real_origins = ref [] in
    Dag.iter_edges
      (fun (e : Dag.edge) ->
        match e.origin with
        | Dag.Real ce ->
            if mem_edge ce !real_origins then
              report ctx Error
                (Edge_loc (name, ce.src, ce.dst))
                "CFG edge appears twice in the DAG";
            real_origins := ce :: !real_origins;
            if mem_edge ce cut then
              report ctx Error
                (Edge_loc (name, ce.src, ce.dst))
                "cut edge still present in the DAG";
            if e.esrc <> Dag.out_node dag ce.src || e.edst <> Dag.in_node dag ce.dst
            then
              report ctx Error
                (Edge_loc (name, ce.src, ce.dst))
                "real edge endpoints disagree with in/out nodes"
        | Dag.From_entry b ->
            if e.esrc <> Dag.entry_node dag then
              report ctx Error (Node_loc (name, e.esrc))
                "From_entry dummy does not start at the entry node";
            if Dag.node_block dag e.edst <> b then
              report ctx Error (Node_loc (name, e.edst))
                "From_entry dummy labelled with block %d targets another block" b
        | Dag.To_exit b ->
            if e.edst <> Dag.exit_node dag then
              report ctx Error (Node_loc (name, e.edst))
                "To_exit dummy does not end at the exit node";
            if Dag.node_block dag e.esrc <> b then
              report ctx Error (Node_loc (name, e.esrc))
                "To_exit dummy labelled with block %d leaves another block" b)
      dag;
    Cfg.iter_edges
      (fun ce ->
        if not (mem_edge ce cut) && not (mem_edge ce !real_origins) then
          report ctx Error
            (Edge_loc (name, ce.Cfg.src, ce.Cfg.dst))
            "CFG edge neither cut nor present in the DAG")
      cfg;
    (* dummy sharing: one From_entry per target node, one To_exit per source *)
    let from_entry = Hashtbl.create 8 and to_exit = Hashtbl.create 8 in
    Dag.iter_edges
      (fun (e : Dag.edge) ->
        match e.origin with
        | Dag.From_entry _ ->
            if Hashtbl.mem from_entry e.edst then
              report ctx Error (Node_loc (name, e.edst))
                "duplicate From_entry dummy to one node";
            Hashtbl.replace from_entry e.edst ()
        | Dag.To_exit _ ->
            if Hashtbl.mem to_exit e.esrc then
              report ctx Error (Node_loc (name, e.esrc))
                "duplicate To_exit dummy from one node";
            Hashtbl.replace to_exit e.esrc ()
        | Dag.Real _ -> ())
      dag;
    (* every truncation resolves to its dummy pair *)
    List.iter
      (fun trunc ->
        match Dag.dummy_edges dag trunc with
        | to_e, from_e ->
            (match to_e.Dag.origin with
            | Dag.To_exit _ -> ()
            | Dag.Real _ | Dag.From_entry _ ->
                report ctx Error (Method_loc name)
                  "truncation's end-path edge is not a To_exit dummy");
            (match from_e.Dag.origin with
            | Dag.From_entry _ -> ()
            | Dag.Real _ | Dag.To_exit _ ->
                report ctx Error (Method_loc name)
                  "truncation's start-path edge is not a From_entry dummy")
        | exception Not_found ->
            report ctx Error (Method_loc name)
              "truncation has no dummy edge pair")
      truncs;
    (* mode consistency with the loop analysis *)
    let loops = Dag.loops dag in
    let back = Loops.back_edges loops in
    let irr = Loops.irreducible_edges loops in
    List.iter
      (fun (e : Cfg.edge) ->
        if not (mem_edge e (back @ irr)) then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "cut edge is neither a back edge nor irreducible")
      cut;
    List.iter
      (fun (e : Cfg.edge) ->
        if not (mem_edge e cut) then
          report ctx Error
            (Edge_loc (name, e.src, e.dst))
            "irreducible edge survived truncation")
      irr;
    (match Dag.mode dag with
    | Dag.Back_edge ->
        if split_headers <> [] then
          report ctx Error (Method_loc name) "split header in back-edge mode";
        if n <> Cfg.n_blocks cfg then
          report ctx Error (Method_loc name)
            "back-edge mode changed the node count (%d blocks, %d nodes)"
            (Cfg.n_blocks cfg) n;
        List.iter
          (fun (e : Cfg.edge) ->
            if not (mem_edge e cut) then
              report ctx Error
                (Edge_loc (name, e.src, e.dst))
                "back edge survived back-edge truncation")
          back
    | Dag.Loop_header ->
        List.iter
          (fun h ->
            if not (Loops.is_header loops h) then
              report ctx Error (Block_loc (name, h))
                "split block is not a loop header";
            if Dag.in_node dag h = Dag.out_node dag h then
              report ctx Error (Block_loc (name, h))
                "split header kept a single node";
            if
              Dag.node_block dag (Dag.in_node dag h) <> h
              || Dag.node_block dag (Dag.out_node dag h) <> h
            then
              report ctx Error (Block_loc (name, h))
                "split header nodes map back to another block")
          split_headers;
        List.iter
          (fun h ->
            if not (List.mem h split_headers) then begin
              (* unsampleable header: all its back edges must have been cut *)
              List.iter
                (fun (e : Cfg.edge) ->
                  if e.dst = h && not (mem_edge e cut) then
                    report ctx Error
                      (Edge_loc (name, e.src, e.dst))
                      "back edge into unsplit header neither cut nor split")
                back
            end)
          (Loops.headers loops));
    Cfg.iter_blocks
      (fun b ->
        if
          (not (List.mem b split_headers))
          && Dag.in_node dag b <> Dag.out_node dag b
        then
          report ctx Error (Block_loc (name, b))
            "unsplit block has distinct in/out nodes";
        if Dag.node_block dag (Dag.in_node dag b) <> b then
          report ctx Error (Block_loc (name, b))
            "in-node maps back to another block")
      cfg;
    finish ctx
  end

(* --- pass 3: numbering auditor ------------------------------------- *)

let recompute_num_paths dag =
  let np = Array.make (Dag.n_nodes dag) 0 in
  let topo = Dag.topo dag in
  let exit_node = Dag.exit_node dag in
  for i = Array.length topo - 1 downto 0 do
    let v = topo.(i) in
    if v = exit_node then np.(v) <- 1
    else
      List.iter
        (fun (e : Dag.edge) -> np.(v) <- np.(v) + np.(e.edst))
        (Dag.out_edges dag v)
  done;
  np

let audit_values_ctx ctx dag ~value ~np =
  let name = Cfg.name (Dag.cfg dag) in
  let exit_node = Dag.exit_node dag in
  Dag.iter_edges
    (fun (e : Dag.edge) ->
      if value e < 0 then
        report ctx Error (Node_loc (name, e.esrc))
          "negative edge value %d on n%d->n%d" (value e) e.esrc e.edst)
    dag;
  (* each node's out-edge intervals must partition [0, num_paths_from v):
     the interval property Reconstruct's greedy walk requires, and —
     inductively from the exit — a bijection of path sums onto
     [0, n_paths) *)
  Array.iter
    (fun v ->
      if v <> exit_node then begin
        let intervals =
          List.map
            (fun (e : Dag.edge) -> (value e, value e + np.(e.edst)))
            (Dag.out_edges dag v)
        in
        let sorted = List.sort compare intervals in
        let rec covers at = function
          | [] -> at = np.(v)
          | (lo, hi) :: rest -> lo = at && covers hi rest
        in
        if not (covers 0 sorted) then
          report ctx Error (Node_loc (name, v))
            "out-edge value intervals do not partition [0, %d)" np.(v)
      end)
    (Dag.topo dag);
  if np.(Dag.entry_node dag) < 1 then
    report ctx Error (Method_loc name) "no entry-to-exit path in the DAG"

let audit_values dag ~value =
  let ctx = new_ctx "numbering" in
  audit_values_ctx ctx dag ~value ~np:(recompute_num_paths dag);
  finish ctx

let default_enumerate_limit = 1024

let audit_numbering ?(enumerate_limit = default_enumerate_limit) numbering =
  let ctx = new_ctx "numbering" in
  let dag = Numbering.dag numbering in
  let name = Cfg.name (Dag.cfg dag) in
  let np = recompute_num_paths dag in
  (* the numbering's DP results must match an independent recomputation *)
  for v = 0 to Dag.n_nodes dag - 1 do
    if Numbering.num_paths_from numbering v <> np.(v) then
      report ctx Error (Node_loc (name, v))
        "num_paths_from %d disagrees with recomputation %d"
        (Numbering.num_paths_from numbering v)
        np.(v)
  done;
  audit_values_ctx ctx dag ~value:(Numbering.value numbering) ~np;
  if Numbering.n_paths numbering <> np.(Dag.entry_node dag) then
    report ctx Error (Method_loc name)
      "n_paths %d disagrees with recomputed %d"
      (Numbering.n_paths numbering)
      np.(Dag.entry_node dag);
  (* explicit bijection witness for small path spaces: every id
     reconstructs to a path whose values sum back to the id *)
  if (not (has_errors ctx.acc)) && Numbering.n_paths numbering <= enumerate_limit
  then
    for id = 0 to Numbering.n_paths numbering - 1 do
      match Reconstruct.dag_path numbering id with
      | path ->
          let back = Reconstruct.id_of_dag_path numbering path in
          if back <> id then
            report ctx Error (Path_loc (name, id))
              "path reconstructs to a sum of %d" back
      | exception Invalid_argument msg ->
          report ctx Error (Path_loc (name, id)) "irreconstructible: %s" msg
    done;
  finish ctx

let audit_zero_arms ~zero ~freq numbering =
  let ctx = new_ctx "numbering" in
  let dag = Numbering.dag numbering in
  let name = Cfg.name (Dag.cfg dag) in
  let exit_node = Dag.exit_node dag in
  Array.iter
    (fun v ->
      if v <> exit_node then begin
        let out = Dag.out_edges dag v in
        if List.length out >= 2 then begin
          match List.filter (fun e -> Numbering.value numbering e = 0) out with
          | [ zero_edge ] ->
              let freqs = List.map freq out in
              let extremal =
                match zero with
                | `Hottest -> List.fold_left max min_int freqs
                | `Coldest -> List.fold_left min max_int freqs
              in
              if freq zero_edge <> extremal then
                report ctx Error (Node_loc (name, v))
                  "value 0 on an arm with frequency %d; the %s arm has %d"
                  (freq zero_edge)
                  (match zero with `Hottest -> "hottest" | `Coldest -> "coldest")
                  extremal
          | zs ->
              report ctx Error (Node_loc (name, v))
                "%d zero-valued arms (want exactly 1)" (List.length zs)
        end
      end)
    (Dag.topo dag);
  finish ctx

(* --- pass 4: profile lint ------------------------------------------ *)

(* The flow system's variables: the invocation count, one frequency per
   block, one count per CFG edge.  Equations are of the shape
   [lhs = sum of terms]; propagation solves a variable when all but one
   participant is known and checks the equation once fully known. *)
let lint_edge_profile ?(exact = true) cfg profile =
  let ctx = new_ctx "profile" in
  let name = Cfg.name cfg in
  let cfg_branches = Cfg.branch_ids cfg in
  List.iter
    (fun (br, (taken, not_taken)) ->
      if taken < 0 || not_taken < 0 then
        report ctx Error (Branch_loc (name, br))
          "negative counter (taken %d, not-taken %d)" taken not_taken;
      if not (List.mem br cfg_branches) then
        report ctx Error (Branch_loc (name, br))
          "profiled branch id not present in the CFG")
    (Edge_profile.entries profile);
  if not exact then finish ctx
  else begin
    (* per-block attribution requires unique branch ids *)
    let blocks_of_branch = Hashtbl.create 16 in
    Cfg.iter_blocks
      (fun b ->
        match Cfg.terminator cfg b with
        | Cfg.Branch { branch; _ } ->
            Hashtbl.replace blocks_of_branch branch
              (b :: (try Hashtbl.find blocks_of_branch branch with Not_found -> []))
        | Cfg.Return | Cfg.Jump _ -> ())
      cfg;
    let shared =
      Hashtbl.fold
        (fun br bs acc -> if List.length bs > 1 then br :: acc else acc)
        blocks_of_branch []
    in
    if shared <> [] then begin
      report ctx Info (Method_loc name)
        "%d branch id(s) shared across blocks (inlined or unrolled body); \
         flow conservation not attributable per block"
        (List.length shared);
      finish ctx
    end
    else begin
      let n = Cfg.n_blocks cfg in
      let all_edges = Cfg.edges cfg in
      let edge_var = Hashtbl.create 32 in
      List.iteri
        (fun i (e : Cfg.edge) -> Hashtbl.replace edge_var (e.src, e.dst) (1 + n + i))
        all_edges;
      (* var 0 = invocation count, 1..n = block frequencies, then edges *)
      let nvars = 1 + n + List.length all_edges in
      let value = Array.make nvars None in
      let conflict = ref false in
      let set loc v k =
        match value.(v) with
        | None -> value.(v) <- Some k; true
        | Some k' ->
            if k <> k' && not !conflict then begin
              conflict := true;
              report ctx Error loc
                "flow conservation violated (%d versus %d)" k' k
            end;
            false
      in
      let var_of_edge (e : Cfg.edge) = Hashtbl.find edge_var (e.src, e.dst) in
      (* constants: branch counters pin their block's out-edges and
         frequency *)
      Cfg.iter_blocks
        (fun b ->
          match Cfg.terminator cfg b with
          | Cfg.Branch { branch; taken; not_taken } ->
              let t, nt =
                match Edge_profile.counter profile branch with
                | Some c -> (c.Edge_profile.taken, c.Edge_profile.not_taken)
                | None -> (0, 0)
              in
              ignore
                (set (Branch_loc (name, branch))
                   (Hashtbl.find edge_var (b, taken))
                   t);
              ignore
                (set (Branch_loc (name, branch))
                   (Hashtbl.find edge_var (b, not_taken))
                   nt);
              ignore (set (Block_loc (name, b)) (1 + b) (t + nt))
          | Cfg.Return | Cfg.Jump _ -> ())
        cfg;
      (* equations: freq(b) = in-flow (+ invocations at the entry), and
         freq(b) = out-flow (invocations at the exit; the single
         successor edge for jumps) *)
      let equations = ref [] in
      Cfg.iter_blocks
        (fun b ->
          let in_terms =
            List.map var_of_edge (Cfg.predecessors cfg b)
            @ (if b = Cfg.entry cfg then [ 0 ] else [])
          in
          equations := (Block_loc (name, b), 1 + b, in_terms) :: !equations;
          match Cfg.terminator cfg b with
          | Cfg.Jump d ->
              equations :=
                ( Edge_loc (name, b, d),
                  1 + b,
                  [ Hashtbl.find edge_var (b, d) ] )
                :: !equations
          | Cfg.Return ->
              equations := (Block_loc (name, b), 1 + b, [ 0 ]) :: !equations
          | Cfg.Branch _ -> ())
        cfg;
      let eqs = Array.of_list !equations in
      let done_ = Array.make (Array.length eqs) false in
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun i (loc, lhs, terms) ->
            if not done_.(i) then begin
              let unknowns = List.filter (fun v -> value.(v) = None) terms in
              let known_sum =
                List.fold_left
                  (fun acc v ->
                    match value.(v) with Some k -> acc + k | None -> acc)
                  0 terms
              in
              match (value.(lhs), unknowns) with
              | Some total, [] ->
                  done_.(i) <- true;
                  changed := true;
                  if total <> known_sum then
                    report ctx Error loc
                      "flow conservation violated: in-flow and out-flow sum \
                       to %d, block frequency is %d"
                      known_sum total
              | Some total, [ v ] ->
                  let k = total - known_sum in
                  if k < 0 then begin
                    done_.(i) <- true;
                    report ctx Error loc
                      "flow conservation violated: residual flow %d is negative"
                      k
                  end
                  else if set loc v k then changed := true;
                  if value.(v) <> None then done_.(i) <- true
              | None, [] ->
                  if set loc lhs known_sum then changed := true;
                  done_.(i) <- true
              | _ -> ()
            end)
          eqs
      done;
      (match value.(0) with
      | Some inv when inv < 0 ->
          report ctx Error (Method_loc name)
            "negative invocation count %d implied by the profile" inv
      | Some _ | None -> ());
      finish ctx
    end
  end

let branch_count edges =
  List.length
    (List.filter
       (fun (ce : Cfg.edge) ->
         match ce.attr with
         | Cfg.Taken _ | Cfg.Not_taken _ -> true
         | Cfg.Seq -> false)
       edges)

let lint_path_profile ?expected_total numbering profile =
  let ctx = new_ctx "profile" in
  let name = Cfg.name (Dag.cfg (Numbering.dag numbering)) in
  let n_paths = Numbering.n_paths numbering in
  Path_profile.iter
    (fun (e : Path_profile.entry) ->
      if e.count < 0 then
        report ctx Error (Path_loc (name, e.path_id)) "negative count %d" e.count;
      if e.path_id < 0 || e.path_id >= n_paths then
        report ctx Error (Path_loc (name, e.path_id))
          "path id outside [0, %d)" n_paths
      else if Option.is_some e.edges || e.n_branches >= 0 then begin
        (* only a memoized expansion or branch count is compared with
           the path's reconstruction; rows recalled from disk and
           counting profilers' entries carry neither *)
        let expected = Reconstruct.cfg_edges numbering e.path_id in
        (match e.edges with
        | Some memo ->
            if
              List.length memo <> List.length expected
              || not
                   (List.for_all2
                      (fun a b -> Cfg.compare_edge a b = 0)
                      memo expected)
            then
              report ctx Error (Path_loc (name, e.path_id))
                "memoized expansion disagrees with P-DAG reconstruction"
        | None -> ());
        if e.n_branches >= 0 && e.n_branches <> branch_count expected then
          report ctx Error (Path_loc (name, e.path_id))
            "memoized branch length %d; the path has %d branch(es)" e.n_branches
            (branch_count expected)
      end)
    profile;
  (match expected_total with
  | Some expected ->
      let total = Path_profile.total profile in
      if total > expected then
        report ctx Error (Method_loc name)
          "%d path executions recorded from only %d samples" total expected
  | None -> ());
  finish ctx

(* --- whole-program driver ------------------------------------------ *)

let check_program_static (p : Program.t) =
  let acc = ref (verify_program p) in
  let add ds = acc := !acc @ ds in
  Program.iter_methods
    (fun _ (m : Method.t) ->
      match To_cfg.cfg m with
      | exception Cfg.Malformed msg ->
          add
            [
              {
                severity = Error;
                pass = "cfg";
                loc = Method_loc m.Method.name;
                message = Fmt.str "CFG construction failed: %s" msg;
              };
            ]
      | cfg ->
          add (check_cfg cfg);
          List.iter
            (fun mode ->
              match Dag.build mode cfg with
              | exception Dag.Unsupported msg ->
                  add
                    [
                      {
                        severity = Warning;
                        pass = "dag";
                        loc = Method_loc m.Method.name;
                        message =
                          Fmt.str "unprofilable: truncation unsupported (%s)"
                            msg;
                      };
                    ]
              | dag -> (
                  add (check_dag dag);
                  match Numbering.ball_larus dag with
                  | exception Numbering.Too_many_paths { n_paths; limit; _ } ->
                      add
                        [
                          {
                            severity = Warning;
                            pass = "numbering";
                            loc = Method_loc m.Method.name;
                            message =
                              Fmt.str
                                "unprofilable: %d paths exceed the limit %d"
                                n_paths limit;
                          };
                        ]
                  | numbering -> add (audit_numbering numbering)))
            [ Dag.Back_edge; Dag.Loop_header ])
    p;
  !acc

(* --- pass 5: dataflow lints ---------------------------------------- *)

let lint_liveness (m : Method.t) =
  let ctx = new_ctx "liveness" in
  let name = m.Method.name in
  (match Liveness.dead_stores m with
  | ds ->
      List.iter
        (fun (d : Liveness.dead_store) ->
          report ctx Warning
            (Instr_loc (name, d.Liveness.block, d.Liveness.index))
            "dead %s of local %d: no path reads it afterwards"
            (match d.Liveness.kind with `Store -> "store" | `Inc -> "increment")
            d.Liveness.local)
        ds
  | exception Cfg.Malformed msg ->
      report ctx Error (Method_loc name) "no CFG to analyze: %s" msg);
  finish ctx

let lint_intervals (p : Program.t) (m : Method.t) =
  let ctx = new_ctx "interval" in
  let name = m.Method.name in
  (match Intervals.analyze m with
  | a ->
      List.iter
        (fun (f : Intervals.finding) ->
          match f with
          | Intervals.Const_branch { block; always_taken } ->
              report ctx Info
                (Block_loc (name, block))
                "branch condition is provably %s"
                (if always_taken then "non-zero (always taken)"
                 else "zero (never taken)")
          | Intervals.Heap_wrap { block; index; itv } ->
              report ctx Info
                (Instr_loc (name, block, index))
                "heap index %a may leave [0, %d) and wrap" Intervals.pp_itv itv
                p.Program.heap_size
          | Intervals.Div_by_zero { block; index } ->
              report ctx Info
                (Instr_loc (name, block, index))
                "divisor may be zero (defined as 0)")
        (Intervals.findings ~heap_size:p.Program.heap_size m a)
  | exception Cfg.Malformed msg ->
      report ctx Error (Method_loc name) "no CFG to analyze: %s" msg
  | exception Failure msg -> report ctx Error (Method_loc name) "%s" msg);
  finish ctx

let justify_unsafe (p : Program.t) ?max_stack (m : Method.t) =
  let ctx = new_ctx "interval" in
  let name = m.Method.name in
  (match
     let max_stack =
       match max_stack with Some s -> s | None -> Verify.max_stack p m
     in
     (Intervals.analyze m, max_stack)
   with
  | a, max_stack ->
      List.iter
        (fun (v : Intervals.violation) ->
          report ctx Error
            (Instr_loc (name, v.Intervals.block, v.Intervals.index))
            "unsafe-op justification failed: %s" v.Intervals.reason)
        (Intervals.justify ~n_globals:p.Program.n_globals ~max_stack m a)
  | exception Cfg.Malformed msg ->
      report ctx Error (Method_loc name) "no CFG to analyze: %s" msg
  | exception Verify.Error msg ->
      report ctx Error (Method_loc name) "no stack bound to justify: %s" msg
  | exception Failure msg -> report ctx Error (Method_loc name) "%s" msg);
  finish ctx

let lint_effects (p : Program.t) =
  let ctx = new_ctx "effects" in
  let s = Effects.summarize p in
  Program.iter_methods
    (fun midx (m : Method.t) ->
      let e = Effects.method_effect s midx in
      let n_fusable = List.length (Effects.fusable_blocks s midx) in
      report ctx Info
        (Method_loc m.Method.name)
        "effect %a; %d of %d block(s) fusable" Effects.pp e n_fusable
        (Array.length m.Method.blocks))
    p;
  finish ctx

(* --- pass 6: translation validation -------------------------------- *)

let report_cex ctx name (c : Transval.counterexample) =
  let loc =
    match (c.Transval.cblock, c.Transval.cinstr) with
    | Some b, Some i -> Instr_loc (name, b, i)
    | Some b, None -> Block_loc (name, b)
    | None, _ -> Method_loc name
  in
  report ctx Error loc "simulation breaks: %s" c.Transval.reason

let validate_inline p ~source ~witness transformed =
  let ctx = new_ctx "transval" in
  List.iter
    (report_cex ctx transformed.Method.name)
    (Transval.check_inline p ~source ~witness transformed);
  finish ctx

let validate_unroll ~source ~witness transformed =
  let ctx = new_ctx "transval" in
  List.iter
    (report_cex ctx transformed.Method.name)
    (Transval.check_unroll ~source ~witness transformed);
  finish ctx

let validate_layout cfg ~pos ~predict_taken ~edge_extra ~taken_penalty
    ~mispredict_penalty =
  let ctx = new_ctx "transval" in
  List.iter
    (report_cex ctx (Cfg.name cfg))
    (Transval.check_layout cfg ~pos ~predict_taken ~edge_extra ~taken_penalty
       ~mispredict_penalty);
  finish ctx

(* --- fusion-table validation ---------------------------------------- *)

(* Net stack effect of a fused sequence, re-derived from the bytecode it
   replaces: the constituent instructions' stack effects plus the pop of
   a folded terminator ([Br] and [Ret] consume one value, [Jmp] none). *)
let sequence_stack_delta (blk : Method.block) (e : Fusion.entry) =
  let d = ref 0 in
  for i = e.Fusion.fstart to e.Fusion.fstart + e.Fusion.flen - 1 do
    let pops, pushes = Instr.stack_effect blk.Method.body.(i) in
    d := !d - pops + pushes
  done;
  (if e.Fusion.fterm then
     match blk.Method.term with
     | Method.Br _ | Method.Ret -> decr d
     | Method.Jmp _ -> ());
  !d

(* Validate a fusion table against the body it claims to fuse.  Every
   invariant the engine's compiler relies on is re-derived here from
   first principles rather than trusted from the planner: entries in
   bounds, ordered and disjoint; only blocks whose effect summary
   ({!Effects.block_summary} — an independent derivation of the
   no-call precondition) admits fusion; each entry's pattern,
   length and terminator flag re-derivable from the bytecode by
   {!Fusion.match_at}; stack neutrality of the replacement; and the
   whole table reproducible by a deterministic re-plan. *)
let validate_fusion ~(witness : Fusion.witness) (m : Method.t) =
  let ctx = new_ctx "fusion" in
  let name = m.Method.name in
  let nblocks = Array.length m.Method.blocks in
  let last = ref (-1, -1) in
  List.iter
    (fun (e : Fusion.entry) ->
      let b = e.Fusion.fblock in
      if b < 0 || b >= nblocks then
        report ctx Error (Method_loc name) "fusion entry in missing block %d" b
      else begin
        let blk = m.Method.blocks.(b) in
        let n = Array.length blk.Method.body in
        let loc = Block_loc (name, b) in
        if (b, e.Fusion.fstart) <= !last then
          report ctx Error loc
            "fusion entries out of order or overlapping at (%d, %d)" b
            e.Fusion.fstart;
        last := (b, e.Fusion.fstart + e.Fusion.flen - 1);
        if e.Fusion.flen < 1 || e.Fusion.flen > 3 then
          report ctx Error loc "fused length %d outside pairs/triples"
            e.Fusion.flen;
        if e.Fusion.fstart < 0 || e.Fusion.fstart + e.Fusion.flen > n then
          report ctx Error loc "fused range [%d, %d) outside body of %d"
            e.Fusion.fstart
            (e.Fusion.fstart + e.Fusion.flen)
            n
        else begin
          if not (Effects.fusable (Effects.block_summary blk)) then
            report ctx Error loc
              "block effect %a forbids fusion (contains a call)" Effects.pp
              (Effects.block_summary blk);
          if e.Fusion.fterm && e.Fusion.fstart + e.Fusion.flen <> n then
            report ctx Error loc
              "terminator-folding entry does not end the block";
          (match Fusion.match_at blk e.Fusion.fstart with
          | Some (p, len, term)
            when p = e.Fusion.fpattern && len = e.Fusion.flen
                 && term = e.Fusion.fterm ->
              ()
          | Some (p, len, term) ->
              report ctx Error
                (Instr_loc (name, b, e.Fusion.fstart))
                "pattern mismatch: table says %s/%d%s, bytecode derives %s/%d%s"
                (Fusion.pattern_name e.Fusion.fpattern)
                e.Fusion.flen
                (if e.Fusion.fterm then "+term" else "")
                (Fusion.pattern_name p) len
                (if term then "+term" else "")
          | None ->
              report ctx Error
                (Instr_loc (name, b, e.Fusion.fstart))
                "no catalog pattern matches at the claimed position");
          let derived = sequence_stack_delta blk e in
          if Fusion.stack_delta e.Fusion.fpattern <> derived then
            report ctx Error loc
              "stack effect mismatch: superinstruction %s nets %d, the \
               sequence it replaces nets %d"
              (Fusion.pattern_name e.Fusion.fpattern)
              (Fusion.stack_delta e.Fusion.fpattern)
              derived
        end
      end)
    witness.Fusion.fentries;
  (* determinism audit: the planner must reproduce the table exactly *)
  let replanned = Fusion.plan ~gen:witness.Fusion.fgen m in
  if replanned.Fusion.fentries <> witness.Fusion.fentries then
    report ctx Error (Method_loc name)
      "fusion table is not the deterministic plan for its inputs (%d vs %d \
       entries)"
      (List.length witness.Fusion.fentries)
      (List.length replanned.Fusion.fentries);
  report ctx Info (Method_loc name) "fusion table valid: %d superinstruction(s)"
    (List.length witness.Fusion.fentries);
  finish ctx

(* --- whole-program deep driver ------------------------------------- *)

let check_program_deep (p : Program.t) =
  let acc = ref (check_program_static p) in
  let add ds = acc := !acc @ ds in
  Program.iter_methods
    (fun _ (m : Method.t) ->
      (* the dataflow clients assume verified bodies *)
      if not (has_errors (verify_method p m)) then begin
        add (lint_liveness m);
        add (lint_intervals p m);
        add (justify_unsafe p m);
        (* audit the table the engine compiles for this body *)
        add (validate_fusion ~witness:(Fusion.plan ~gen:0 m) m)
      end)
    p;
  add (lint_effects p);
  !acc
