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

(* One aggregated view over a segment list, rows keyed by method NAME
   (segments may carry different dense index tables). *)
type view = {
  methods : string array;
  paths : (int * int * int) list;  (* method idx, path id, count *)
  edges : (int * int * int * int) list;
  dcg : (int * int * int) list;  (* caller idx (-1 root), callee idx *)
  samples : int;
  segments : int;
  span : Fleet.Window.t option;
}

let view segments =
  let names = Hashtbl.create 64 in
  let order = ref [] in
  let intern name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names name i;
        order := name :: !order;
        i
  in
  let paths = Hashtbl.create 256 in
  let edges = Hashtbl.create 256 in
  let dcg = Hashtbl.create 64 in
  let samples = ref 0 in
  let span = ref None in
  List.iter
    (fun (s : Fleet_store.segment) ->
      let m i =
        if i >= 0 && i < Array.length s.Fleet_store.methods then
          intern s.Fleet_store.methods.(i)
        else intern (Fmt.str "m#%d" i)
      in
      List.iter
        (fun (mi, pid, c) ->
          let k = (m mi, pid) in
          Hashtbl.replace paths k
            (c + Option.value ~default:0 (Hashtbl.find_opt paths k)))
        s.Fleet_store.paths;
      List.iter
        (fun (mi, br, tk, nt) ->
          let k = (m mi, br) in
          let ptk, pnt =
            Option.value ~default:(0, 0) (Hashtbl.find_opt edges k)
          in
          Hashtbl.replace edges k (ptk + tk, pnt + nt))
        s.Fleet_store.edges;
      List.iter
        (fun (caller, callee, w) ->
          let k = ((if caller < 0 then -1 else m caller), m callee) in
          Hashtbl.replace dcg k
            (w + Option.value ~default:0 (Hashtbl.find_opt dcg k)))
        s.Fleet_store.dcg;
      samples := !samples + s.Fleet_store.samples;
      span :=
        Some
          (match !span with
          | None -> s.Fleet_store.window
          | Some w -> Fleet.Window.span w s.Fleet_store.window))
    segments;
  {
    methods = Array.of_list (List.rev !order);
    paths =
      List.sort compare
        (Hashtbl.fold (fun (mi, p) c acc -> (mi, p, c) :: acc) paths []);
    edges =
      List.sort compare
        (Hashtbl.fold
           (fun (mi, b) (tk, nt) acc -> (mi, b, tk, nt) :: acc)
           edges []);
    dcg =
      List.sort compare
        (Hashtbl.fold (fun (c, e) w acc -> (c, e, w) :: acc) dcg []);
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
     once per distinct row identity (method name and id, or caller and
     callee names), and identities that render alike share one cell. *)
  let scores = Hashtbl.create 256 in
  let cell label =
    match Hashtbl.find_opt scores label with
    | Some c -> c
    | None ->
        let c = ref 0. in
        Hashtbl.add scores label c;
        c
  in
  let bumper render =
    let cells = Hashtbl.create 256 in
    fun row x ->
      let c =
        match Hashtbl.find_opt cells row with
        | Some c -> c
        | None ->
            let c = cell (render row) in
            Hashtbl.add cells row c;
            c
      in
      c := x +. !c
  in
  (* [f s m w] per segment: [m] names a method index, [w] is the
     window's decay weight *)
  let each f =
    List.iter
      (fun (s : Fleet_store.segment) ->
        let m i =
          if i >= 0 && i < Array.length s.Fleet_store.methods then
            s.Fleet_store.methods.(i)
          else Fmt.str "m#%d" i
        in
        f s m
          (decay
          ** float_of_int (latest - s.Fleet_store.window.Fleet.Window.hi)))
      segments
  in
  (match kind with
  | `Paths ->
      let bump = bumper (fun (m, pid) -> Fmt.str "%s/path#%d" m pid) in
      each (fun s m w ->
          List.iter
            (fun (mi, pid, c) -> bump (m mi, pid) (w *. float_of_int c))
            s.Fleet_store.paths)
  | `Edges ->
      let bump = bumper (fun (m, br) -> Fmt.str "%s/br#%d" m br) in
      each (fun s m w ->
          List.iter
            (fun (mi, br, tk, nt) ->
              bump (m mi, br) (w *. float_of_int (tk + nt)))
            s.Fleet_store.edges)
  | `Dcg ->
      let bump = bumper (fun (c, e) -> Fmt.str "%s->%s" c e) in
      each (fun s m w ->
          List.iter
            (fun (caller, callee, wt) ->
              let c = if caller < 0 then "<root>" else m caller in
              bump (c, m callee) (w *. float_of_int wt))
            s.Fleet_store.dcg));
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
   [pepsim top]. *)
let folded kind v =
  let n_methods = Array.length v.methods in
  let dcg = Dcg.create () in
  List.iter
    (fun (caller, callee, w) ->
      ignore (Dcg.parse_line dcg (Fmt.str "%d %d %d" caller callee w)))
    v.dcg;
  let name = name_of v in
  match kind with
  | `Paths ->
      let t = Path_profile.create_table ~n_methods in
      List.iter
        (fun (mi, pid, c) -> if mi < n_methods then Path_profile.add t.(mi) pid c)
        v.paths;
      Profile_export.paths_of ~name dcg t
  | `Edges ->
      let t = Edge_profile.create_table ~n_methods in
      List.iter
        (fun (mi, br, tk, nt) ->
          if mi < n_methods then begin
            Edge_profile.add t.(mi) br ~taken:true tk;
            Edge_profile.add t.(mi) br ~taken:false nt
          end)
        v.edges;
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

(* Rule-based triage of current vs baseline.  All joins are by method
   name; findings come back sorted by their rendering, so golden tests
   and the CLI agree byte-for-byte. *)
let diff ?(thresholds = default_thresholds) ~baseline ~current () =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (* new hot paths: present now with a non-trivial share of all path
     executions, never recorded in the baseline *)
  let base_paths = Hashtbl.create 256 in
  List.iter
    (fun (mi, pid, c) ->
      Hashtbl.replace base_paths (name_of baseline mi, pid) c)
    baseline.paths;
  let cur_total =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 current.paths
  in
  if cur_total > 0 then
    List.iter
      (fun (mi, pid, c) ->
        let meth = name_of current mi in
        let share = float_of_int c /. float_of_int cur_total in
        if
          share >= thresholds.new_share
          && not (Hashtbl.mem base_paths (meth, pid))
        then emit (New_hot_path { meth; path_id = pid; share }))
      current.paths;
  (* edge-flow shifts: the same branch, enough traffic on both sides,
     taken-bias moved by at least [edge_shift] *)
  let base_edges = Hashtbl.create 256 in
  List.iter
    (fun (mi, br, tk, nt) ->
      Hashtbl.replace base_edges (name_of baseline mi, br) (tk, nt))
    baseline.edges;
  List.iter
    (fun (mi, br, tk, nt) ->
      let meth = name_of current mi in
      match Hashtbl.find_opt base_edges (meth, br) with
      | Some (btk, bnt)
        when btk + bnt >= thresholds.min_edge
             && tk + nt >= thresholds.min_edge ->
          let from_bias =
            float_of_int btk /. float_of_int (btk + bnt)
          in
          let to_bias = float_of_int tk /. float_of_int (tk + nt) in
          if Float.abs (to_bias -. from_bias) >= thresholds.edge_shift then
            emit (Edge_shift { meth; branch = br; from_bias; to_bias })
      | _ -> ())
    current.edges;
  (* caller changes: a callee sampled on both sides whose dominant
     caller moved (weight ties break toward the lexically smaller
     caller, so the pick is deterministic) *)
  let dominant v =
    let best = Hashtbl.create 16 in
    let total = Hashtbl.create 16 in
    List.iter
      (fun (caller, callee, w) ->
        let callee = name_of v callee in
        let caller = if caller < 0 then "<root>" else name_of v caller in
        Hashtbl.replace total callee
          (w + Option.value ~default:0 (Hashtbl.find_opt total callee));
        match Hashtbl.find_opt best callee with
        | Some (bc, bw) when w > bw || (w = bw && caller < bc) ->
            Hashtbl.replace best callee (caller, w)
        | Some _ -> ()
        | None -> Hashtbl.add best callee (caller, w))
      v.dcg;
    (best, total)
  in
  let base_dom, base_tot = dominant baseline in
  let cur_dom, cur_tot = dominant current in
  Hashtbl.iter
    (fun callee (to_caller, _) ->
      match Hashtbl.find_opt base_dom callee with
      | Some (from_caller, _)
        when Option.value ~default:0 (Hashtbl.find_opt base_tot callee)
             >= thresholds.min_dcg
             && Option.value ~default:0 (Hashtbl.find_opt cur_tot callee)
                >= thresholds.min_dcg
             && not (String.equal from_caller to_caller) ->
          emit (Caller_change { callee; from_caller; to_caller })
      | _ -> ())
    cur_dom;
  List.sort_uniq
    (fun a b -> compare (render_finding a) (render_finding b))
    !findings
