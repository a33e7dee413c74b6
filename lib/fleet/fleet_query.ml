(* Query layer over the segment store: hotspots, folded export, and
   cross-window / cross-cohort diffs with rule-based triage.

   Everything here is a pure function of the selected segments, and
   every rendering sorts before printing — query output is as
   deterministic as the store it reads. *)

type filter = { cohort : string option; lo : int option; hi : int option }

let any = { cohort = None; lo = None; hi = None }

let in_range filter (s : Fleet_store.segment) =
  let w = s.Fleet_store.window in
  (match filter.lo with Some lo -> w.Fleet.Window.hi >= lo | None -> true)
  && (match filter.hi with Some hi -> w.Fleet.Window.lo <= hi | None -> true)
  &&
  match filter.cohort with
  | Some name -> String.equal s.Fleet_store.cohort.Fleet.Cohort.name name
  | None -> true

(* Merged segments supersede the raws they were folded from: a raw
   whose window falls inside a same-cohort merged segment is shadowed
   (compaction normally deletes it, but [--keep-raw] stores and
   mid-compaction crashes keep both).  Same-cohort means equal
   [Fleet.Cohort.key]s, so the merged windows are indexed by key, built
   on the first raw checked: one key per picked segment, not per pair. *)
let select segments filter =
  let picked = List.filter (in_range filter) segments in
  let merged =
    lazy
      (let tbl = Hashtbl.create 16 in
       List.iter
         (fun (m : Fleet_store.segment) ->
           if m.Fleet_store.origin < 0 then
             Hashtbl.add tbl
               (Fleet.Cohort.key m.Fleet_store.cohort)
               m.Fleet_store.window)
         picked;
       tbl)
  in
  let shadowed (s : Fleet_store.segment) =
    s.Fleet_store.origin >= 0
    && List.exists
         (fun (w : Fleet.Window.t) ->
           w.Fleet.Window.lo <= s.Fleet_store.window.Fleet.Window.lo
           && s.Fleet_store.window.Fleet.Window.hi <= w.Fleet.Window.hi)
         (Hashtbl.find_all (Lazy.force merged)
            (Fleet.Cohort.key s.Fleet_store.cohort))
  in
  List.filter (fun s -> not (shadowed s)) picked

(* ------------------------- aggregation ---------------------------- *)

(* Method names interned to dense ids in order of first use. *)
type names = { ids : (string, int) Hashtbl.t; mutable by_id : string array }

let names () = { ids = Hashtbl.create 64; by_id = Array.make 16 "" }

(* A method table's index -> the id of its name in [t], looked up the
   first time the index is used; an index outside the table stands for
   the name "m#<index>".  A name [t] lacks is interned when [fresh],
   else maps to -1. *)
let name_ids t methods ~fresh =
  let find name =
    match Hashtbl.find_opt t.ids name with
    | Some j -> j
    | None when fresh ->
        let j = Hashtbl.length t.ids in
        if j = Array.length t.by_id then
          t.by_id <- Array.append t.by_id (Array.make j "");
        t.by_id.(j) <- name;
        Hashtbl.add t.ids name j;
        j
    | None -> -1
  in
  let memo = Array.make (Array.length methods) (-2) in
  fun i ->
    if i >= 0 && i < Array.length memo then
      match memo.(i) with
      | -2 ->
          let j = find methods.(i) in
          memo.(i) <- j;
          j
      | j -> j
    else find (Fmt.str "m#%d" i)

(* One aggregated view over a segment list, rows keyed by method NAME
   (segments may carry different dense index tables). *)
type view = {
  methods : string array;
  paths : int array;  (* stride 3: method idx, path id, count *)
  edges : int array;  (* stride 4: method idx, branch, taken, not-taken *)
  dcg : int array;  (* stride 3: caller idx (-1 root), callee idx, weight *)
  samples : int;
  segments : int;
  span : Fleet.Window.t option;
}

(* Rows are summed per (method id, second field) in int-keyed tables;
   the view's method table lists names in order of first appearance in
   row order (paths, edges, then DCG rows, callee before caller). *)
let view segments =
  let names = names () in
  let paths = Fleet_rows.create ~stride:3 in
  let edges = Fleet_rows.create ~stride:4 in
  let dcg = Fleet_rows.create ~stride:3 in
  let samples = ref 0 in
  let span = ref None in
  List.iter
    (fun (s : Fleet_store.segment) ->
      let m = name_ids names s.Fleet_store.methods ~fresh:true in
      let rows = Fleet_store.rows s in
      let p = rows.Fleet_store.paths in
      for k = 0 to (Array.length p / 3) - 1 do
        let o = 3 * k in
        Fleet_rows.sum paths (m p.(o)) p.(o + 1) p o
      done;
      let e = rows.Fleet_store.edges in
      for k = 0 to (Array.length e / 4) - 1 do
        let o = 4 * k in
        Fleet_rows.sum edges (m e.(o)) e.(o + 1) e o
      done;
      let d = rows.Fleet_store.dcg in
      for k = 0 to (Array.length d / 3) - 1 do
        let o = 3 * k in
        let callee = m d.(o + 1) in
        let caller = if d.(o) < 0 then -1 else m d.(o) in
        Fleet_rows.sum dcg caller callee d o
      done;
      samples := !samples + s.Fleet_store.samples;
      span :=
        Some
          (match !span with
          | None -> s.Fleet_store.window
          | Some w -> Fleet.Window.span w s.Fleet_store.window))
    segments;
  {
    methods = Array.sub names.by_id 0 (Hashtbl.length names.ids);
    paths = Fleet_rows.sorted paths;
    edges = Fleet_rows.sorted edges;
    dcg = Fleet_rows.sorted dcg;
    samples = !samples;
    segments = List.length segments;
    span = !span;
  }

let name_of v i =
  if i >= 0 && i < Array.length v.methods then v.methods.(i)
  else Fmt.str "m#%d" i

(* ------------------------- hotspots ------------------------------- *)

type kind = Profile_export.kind

(* HotspotScorer-style exponential decay: a count in window [w] scores
   [count * decay^(latest - w)], so recent windows dominate but a
   sustained hotspot still outranks a one-window spike. *)
let top ?(decay = 0.75) ~n kind segments =
  let latest =
    List.fold_left
      (fun acc (s : Fleet_store.segment) ->
        max acc s.Fleet_store.window.Fleet.Window.hi)
      0 segments
  in
  (* label -> running score.  Rows add into their label's cell in row
     order, as if each rendered its own label; the label is rendered
     once per distinct row identity (method name id and id, or caller
     and callee name ids, -1 for the root), and identities that render
     alike share one cell. *)
  let scores = Hashtbl.create 256 in
  let cell label =
    match Hashtbl.find_opt scores label with
    | Some c -> c
    | None ->
        let c = ref 0. in
        Hashtbl.add scores label c;
        c
  in
  let names = names () in
  let name i = if i < 0 then "<root>" else names.by_id.(i) in
  let render =
    match kind with
    | `Paths -> fun a b -> String.concat "" [ name a; "/path#"; string_of_int b ]
    | `Edges -> fun a b -> String.concat "" [ name a; "/br#"; string_of_int b ]
    | `Dcg -> fun a b -> String.concat "" [ name a; "->"; name b ]
  in
  (* row identity -> its label's cell, numbered as [keys] numbers it *)
  let keys = Fleet_rows.create ~stride:2 in
  let cells = ref (Array.make 64 (ref 0.)) in
  let bump a b x =
    let fresh = Fleet_rows.length keys in
    let r = Fleet_rows.slot keys a b in
    if r = fresh then begin
      if r = Array.length !cells then
        cells := Array.append !cells (Array.make r (ref 0.));
      !cells.(r) <- cell (render a b)
    end;
    let c = !cells.(r) in
    c := x +. !c
  in
  List.iter
    (fun (s : Fleet_store.segment) ->
      let m = name_ids names s.Fleet_store.methods ~fresh:true in
      let w =
        decay ** float_of_int (latest - s.Fleet_store.window.Fleet.Window.hi)
      in
      let rows = Fleet_store.rows s in
      match kind with
      | `Paths ->
          let p = rows.Fleet_store.paths in
          for k = 0 to (Array.length p / 3) - 1 do
            let o = 3 * k in
            bump (m p.(o)) p.(o + 1) (w *. float_of_int p.(o + 2))
          done
      | `Edges ->
          let e = rows.Fleet_store.edges in
          for k = 0 to (Array.length e / 4) - 1 do
            let o = 4 * k in
            bump (m e.(o)) e.(o + 1)
              (w *. float_of_int (e.(o + 2) + e.(o + 3)))
          done
      | `Dcg ->
          let d = rows.Fleet_store.dcg in
          for k = 0 to (Array.length d / 3) - 1 do
            let o = 3 * k in
            let caller = if d.(o) < 0 then -1 else m d.(o) in
            bump caller (m d.(o + 1)) (w *. float_of_int d.(o + 2))
          done)
    segments;
  let all = Hashtbl.fold (fun l s acc -> (l, !s) :: acc) scores [] in
  let ordered =
    List.sort
      (fun (l1, s1) (l2, s2) ->
        match compare s2 s1 with 0 -> compare l1 l2 | c -> c)
      all
  in
  List.filteri (fun i _ -> i < n) ordered

(* ----------------------- folded export ---------------------------- *)

(* Rebuild profile tables from a view and hand them to the shared
   exporter, so fleet flamegraphs use the exact frame vocabulary of
   [pepsim top].  A call graph holds sampled edges only, so DCG rows
   whose summed weight is not positive are left out of it (and so of
   every kind's hot chains and of the [`Dcg] stacks); [top] still
   counts them. *)
let folded kind v =
  let n_methods = Array.length v.methods in
  let known mi = mi >= 0 && mi < n_methods in
  let dcg = Dcg.create () in
  let d = v.dcg in
  for k = 0 to (Array.length d / 3) - 1 do
    let o = 3 * k in
    if d.(o + 2) > 0 then Dcg.add dcg ~caller:d.(o) ~callee:d.(o + 1) d.(o + 2)
  done;
  let name = name_of v in
  match kind with
  | `Paths ->
      let t = Path_profile.create_table ~n_methods in
      let p = v.paths in
      for k = 0 to (Array.length p / 3) - 1 do
        let o = 3 * k in
        if known p.(o) then Path_profile.add t.(p.(o)) p.(o + 1) p.(o + 2)
      done;
      Profile_export.paths_of ~name dcg t
  | `Edges ->
      let t = Edge_profile.create_table ~n_methods in
      let e = v.edges in
      for k = 0 to (Array.length e / 4) - 1 do
        let o = 4 * k in
        if known e.(o) then begin
          Edge_profile.add t.(e.(o)) e.(o + 1) ~taken:true e.(o + 2);
          Edge_profile.add t.(e.(o)) e.(o + 1) ~taken:false e.(o + 3)
        end
      done;
      Profile_export.edges_of ~name dcg t
  | `Dcg -> Profile_export.dcg_of ~name dcg

(* --------------------------- triage ------------------------------- *)

type thresholds = {
  new_share : float;  (* path share making an unseen path "hot" *)
  edge_shift : float;  (* bias delta flagging an edge-flow shift *)
  min_edge : int;  (* arm traffic below this is noise *)
  min_dcg : int;  (* callee weight below this is noise *)
}

let default_thresholds =
  { new_share = 0.01; edge_shift = 0.25; min_edge = 20; min_dcg = 10 }

type finding =
  | New_hot_path of { meth : string; path_id : int; share : float }
  | Edge_shift of {
      meth : string;
      branch : int;
      from_bias : float;
      to_bias : float;
    }
  | Caller_change of {
      callee : string;
      from_caller : string;
      to_caller : string;
    }

let render_finding = function
  | New_hot_path { meth; path_id; share } ->
      Fmt.str "new-hot-path %s/path#%d share=%.1f%%" meth path_id
        (100. *. share)
  | Edge_shift { meth; branch; from_bias; to_bias } ->
      Fmt.str "edge-shift %s/br#%d bias %.2f -> %.2f" meth branch from_bias
        to_bias
  | Caller_change { callee; from_caller; to_caller } ->
      Fmt.str "caller-change %s: %s -> %s" callee from_caller to_caller

(* Per-callee dominant caller (weight ties break toward the lexically
   smaller caller, so the pick is deterministic) and total weight, by
   method name. *)
let dominant v =
  let best = Hashtbl.create 16 in
  let total = Hashtbl.create 16 in
  let d = v.dcg in
  for k = 0 to (Array.length d / 3) - 1 do
    let o = 3 * k in
    let w = d.(o + 2) in
    let callee = name_of v d.(o + 1) in
    let caller = if d.(o) < 0 then "<root>" else name_of v d.(o) in
    Hashtbl.replace total callee
      (w + Option.value ~default:0 (Hashtbl.find_opt total callee));
    match Hashtbl.find_opt best callee with
    | Some (bc, bw) when w > bw || (w = bw && caller < bc) ->
        Hashtbl.replace best callee (caller, w)
    | Some _ -> ()
    | None -> Hashtbl.add best callee (caller, w)
  done;
  (best, total)

(* The baseline side of triage, indexed once: its path and edge rows
   keyed by (method name id, path id or branch), the names' ids, and
   its callees' dominant callers. *)
type indexed = {
  base_names : names;
  base_paths : Fleet_rows.t;  (* stride 2: the key only *)
  base_edges : Fleet_rows.t;  (* stride 4: taken, not-taken *)
  base_dom : (string, string * int) Hashtbl.t;
  base_tot : (string, int) Hashtbl.t;
}

let index baseline =
  let base_names = names () in
  let id = name_ids base_names baseline.methods ~fresh:true in
  let base_paths = Fleet_rows.create ~stride:2 in
  let p = baseline.paths in
  for k = 0 to (Array.length p / 3) - 1 do
    ignore (Fleet_rows.slot base_paths (id p.(3 * k)) p.((3 * k) + 1))
  done;
  (* a key's last row wins *)
  let base_edges = Fleet_rows.create ~stride:4 in
  let e = baseline.edges in
  for k = 0 to (Array.length e / 4) - 1 do
    let o = 4 * k in
    let r = Fleet_rows.slot base_edges (id e.(o)) e.(o + 1) in
    Fleet_rows.set base_edges r 2 e.(o + 2);
    Fleet_rows.set base_edges r 3 e.(o + 3)
  done;
  let base_dom, base_tot = dominant baseline in
  { base_names; base_paths; base_edges; base_dom; base_tot }

(* Rule-based triage of current vs an indexed baseline.  All joins are
   by method name; findings come back sorted by their rendering, so
   golden tests and the CLI agree byte-for-byte. *)
let diff_indexed ?(thresholds = default_thresholds) ix ~current =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let id = name_ids ix.base_names current.methods ~fresh:false in
  (* new hot paths: present now with a non-trivial share of all path
     executions, never recorded in the baseline *)
  let p = current.paths in
  let cur_total = ref 0 in
  for k = 0 to (Array.length p / 3) - 1 do
    cur_total := !cur_total + p.((3 * k) + 2)
  done;
  let cur_total = !cur_total in
  if cur_total > 0 then
    for k = 0 to (Array.length p / 3) - 1 do
      let o = 3 * k in
      let share = float_of_int p.(o + 2) /. float_of_int cur_total in
      if
        share >= thresholds.new_share
        &&
        let j = id p.(o) in
        j < 0 || Fleet_rows.find ix.base_paths j p.(o + 1) < 0
      then
        emit
          (New_hot_path
             { meth = name_of current p.(o); path_id = p.(o + 1); share })
    done;
  (* edge-flow shifts: the same branch, enough traffic on both sides,
     taken-bias moved by at least [edge_shift] *)
  let e = current.edges in
  for k = 0 to (Array.length e / 4) - 1 do
    let o = 4 * k in
    let tk = e.(o + 2) and nt = e.(o + 3) in
    let j = id e.(o) in
    let r = if j < 0 then -1 else Fleet_rows.find ix.base_edges j e.(o + 1) in
    if r >= 0 then begin
      let btk = Fleet_rows.get ix.base_edges r 2
      and bnt = Fleet_rows.get ix.base_edges r 3 in
      if btk + bnt >= thresholds.min_edge && tk + nt >= thresholds.min_edge
      then begin
        let from_bias = float_of_int btk /. float_of_int (btk + bnt) in
        let to_bias = float_of_int tk /. float_of_int (tk + nt) in
        if Float.abs (to_bias -. from_bias) >= thresholds.edge_shift then
          emit
            (Edge_shift
               {
                 meth = name_of current e.(o);
                 branch = e.(o + 1);
                 from_bias;
                 to_bias;
               })
      end
    end
  done;
  (* caller changes: a callee sampled on both sides whose dominant
     caller moved *)
  let cur_dom, cur_tot = dominant current in
  Hashtbl.iter
    (fun callee (to_caller, _) ->
      match Hashtbl.find_opt ix.base_dom callee with
      | Some (from_caller, _)
        when Option.value ~default:0 (Hashtbl.find_opt ix.base_tot callee)
             >= thresholds.min_dcg
             && Option.value ~default:0 (Hashtbl.find_opt cur_tot callee)
                >= thresholds.min_dcg
             && not (String.equal from_caller to_caller) ->
          emit (Caller_change { callee; from_caller; to_caller })
      | _ -> ())
    cur_dom;
  (* sorted by rendering, each finding rendered once *)
  List.map (fun f -> (render_finding f, f)) !findings
  |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)

let diff ?thresholds ~baseline ~current () =
  List.map snd (diff_indexed ?thresholds (index baseline) ~current)
