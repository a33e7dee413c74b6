(* Standing watch over the segment store.

   Triage ([Fleet_query.diff]) answers "what changed between these two
   window ranges" once; the watch runs that question continuously: a
   fixed early-window baseline per cohort, one evaluation per
   subsequent window, and a persisted rule set deciding which findings
   deserve an alert.  Three mechanisms keep the output operable:

   - hysteresis: a finding must hold for [persist] consecutive windows
     before its rule fires (one-window flaps are suppressed and
     counted);
   - dedup: a finding that already fired never fires again while it
     persists — the alert stream carries state changes, not state;
   - degraded-data annotation: an alert whose current or baseline
     window was rebuilt from quarantine or lost data is marked, so an
     operator knows the evidence is weaker than usual.

   Everything is a pure function of (segments, rules, degraded log);
   alerts come back sorted, so watch output is as deterministic as the
   store it reads. *)

type family = New_hot_path | Edge_shift | Caller_change

let family_name = function
  | New_hot_path -> "new-hot-path"
  | Edge_shift -> "edge-shift"
  | Caller_change -> "caller-change"

let family_of_name = function
  | "new-hot-path" -> Some New_hot_path
  | "edge-shift" -> Some Edge_shift
  | "caller-change" -> Some Caller_change
  | _ -> None

let family_of_finding = function
  | Fleet_query.New_hot_path _ -> New_hot_path
  | Fleet_query.Edge_shift _ -> Edge_shift
  | Fleet_query.Caller_change _ -> Caller_change

type rule = {
  name : string;
  cohort : string option;
  families : family list;
  persist : int;
  min_share : float option;
  min_shift : float option;
}

let default_rules ?(persist = 1) () =
  [
    {
      name = "drift";
      cohort = None;
      families = [];
      persist = max 1 persist;
      min_share = None;
      min_shift = None;
    };
  ]

let rule_to_line r =
  let buf = Buffer.create 48 in
  Buffer.add_string buf r.name;
  let add fmt = Fmt.kstr (fun s -> Buffer.add_char buf ' '; Buffer.add_string buf s) fmt in
  (match r.cohort with Some c -> add "cohort=%s" c | None -> ());
  (match r.families with
  | [] -> ()
  | fams ->
      add "family=%s" (String.concat "," (List.map family_name fams)));
  if r.persist <> 1 then add "persist=%d" r.persist;
  (match r.min_share with Some f -> add "min-share=%.12g" f | None -> ());
  (match r.min_shift with Some f -> add "min-shift=%.12g" f | None -> ());
  Buffer.contents buf

let rule_err line reason = Error (Fmt.str "bad alert rule %S: %s" line reason)

let parse_rule line =
  match
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line))
  with
  | [] -> rule_err line "empty rule"
  | name :: opts ->
      if String.contains name '=' then
        rule_err line "first token must be the rule name"
      else begin
        let base =
          {
            name;
            cohort = None;
            families = [];
            persist = 1;
            min_share = None;
            min_shift = None;
          }
        in
        let rec go r = function
          | [] -> Ok r
          | opt :: rest -> (
              match String.index_opt opt '=' with
              | None -> rule_err line (Fmt.str "unknown option %S" opt)
              | Some i -> (
                  let k = String.sub opt 0 i in
                  let v = String.sub opt (i + 1) (String.length opt - i - 1) in
                  match k with
                  | "cohort" -> go { r with cohort = Some v } rest
                  | "family" -> (
                      let names = String.split_on_char ',' v in
                      match
                        List.fold_left
                          (fun acc n ->
                            match (acc, family_of_name n) with
                            | Ok fams, Some f -> Ok (fams @ [ f ])
                            | Ok _, None -> Error n
                            | (Error _ as e), _ -> e)
                          (Ok []) names
                      with
                      | Ok fams -> go { r with families = fams } rest
                      | Error n ->
                          rule_err line (Fmt.str "unknown family %S" n))
                  | "persist" -> (
                      match int_of_string_opt v with
                      | Some n when n >= 1 -> go { r with persist = n } rest
                      | Some _ | None ->
                          rule_err line "persist wants an integer >= 1")
                  | "min-share" -> (
                      match float_of_string_opt v with
                      | Some f when f >= 0. && f <= 1. ->
                          go { r with min_share = Some f } rest
                      | Some _ | None ->
                          rule_err line "min-share wants a fraction in [0,1]")
                  | "min-shift" -> (
                      match float_of_string_opt v with
                      | Some f when f >= 0. && f <= 1. ->
                          go { r with min_shift = Some f } rest
                      | Some _ | None ->
                          rule_err line "min-shift wants a fraction in [0,1]")
                  | _ -> rule_err line (Fmt.str "unknown option %S" k)))
        in
        go base opts
      end

let parse_rules text =
  let lines = String.split_on_char '\n' text in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        if String.trim line = "" then go acc (n + 1) rest
        else
          match parse_rule line with
          | Ok r -> go (r :: acc) (n + 1) rest
          | Error m -> Error (Fmt.str "line %d: %s" n m))
  in
  go [] 1 lines

let load_rules file =
  match In_channel.with_open_text file In_channel.input_all with
  | contents -> parse_rules contents
  | exception Sys_error m -> Error ("unreadable rules file: " ^ m)

(* ----------------------------- matching ---------------------------- *)

let rule_matches r ~cohort finding =
  (match r.cohort with Some c -> String.equal c cohort | None -> true)
  && (match r.families with
     | [] -> true
     | fams -> List.mem (family_of_finding finding) fams)
  && (match (finding, r.min_share) with
     | Fleet_query.New_hot_path { share; _ }, Some m -> share >= m
     | _ -> true)
  &&
  match (finding, r.min_shift) with
  | Fleet_query.Edge_shift { from_bias; to_bias; _ }, Some m ->
      Float.abs (to_bias -. from_bias) >= m
  | _ -> true

(* ---------------------------- evaluation --------------------------- *)

type alert = {
  rule : string;
  cohort : string;
  window : int;
  streak : int;
  degraded : bool;
  finding : Fleet_query.finding;
}

type report = {
  alerts : alert list;
  considered : int;  (* matched finding-instances across all windows *)
  deduped : int;  (* suppressed: the finding had already fired *)
  flapped : int;  (* suppressed: streak broke before [persist] *)
  windows_evaluated : int;
  cohorts : string list;
}

let render_alert a =
  Fmt.str "ALERT rule=%s cohort=%s win=%d streak=%d%s %s" a.rule a.cohort
    a.window a.streak
    (if a.degraded then " degraded-data" else "")
    (Fleet_query.render_finding a.finding)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a[fleet-watch] cohorts=%d windows=%d considered=%d \
              alerts=%d deduped=%d flapped=%d@]"
    (fun ppf alerts ->
      List.iter (fun a -> Fmt.pf ppf "%s@," (render_alert a)) alerts)
    r.alerts (List.length r.cohorts) r.windows_evaluated r.considered
    (List.length r.alerts) r.deduped r.flapped

(* Per-(rule, cohort, finding) streak state.  A finding's identity is
   its rendering — the same string triage and goldens use. *)
type streak_state = {
  mutable streak : int;
  mutable last_window : int;
  mutable fired : bool;
}

let run ?thresholds ?(baseline_windows = 1) ~rules ~degraded segments =
  let cohorts =
    List.sort_uniq compare
      (List.map
         (fun (s : Fleet_store.segment) ->
           s.Fleet_store.cohort.Fleet.Cohort.name)
         segments)
  in
  let degraded_set = Hashtbl.create 16 in
  List.iter
    (fun (cohort, window, _reason) ->
      Hashtbl.replace degraded_set (cohort, window) ())
    degraded;
  let is_degraded ~cohort ~lo ~baseline_hi w =
    Hashtbl.mem degraded_set (cohort, w)
    || List.exists
         (fun b -> Hashtbl.mem degraded_set (cohort, b))
         (List.init (max 0 (baseline_hi - lo + 1)) (fun i -> lo + i))
  in
  let states : (string * string * string, streak_state) Hashtbl.t =
    Hashtbl.create 64
  in
  let alerts = ref [] in
  let considered = ref 0 and deduped = ref 0 and flapped = ref 0 in
  let windows_evaluated = ref 0 in
  List.iter
    (fun cohort ->
      let mine =
        List.filter
          (fun (s : Fleet_store.segment) ->
            String.equal s.Fleet_store.cohort.Fleet.Cohort.name cohort)
          segments
      in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (s : Fleet_store.segment) ->
            ( min lo s.Fleet_store.window.Fleet.Window.lo,
              max hi s.Fleet_store.window.Fleet.Window.hi ))
          (max_int, min_int) mine
      in
      let baseline_hi = lo + max 1 baseline_windows - 1 in
      if baseline_hi < hi then begin
        (* indexed once, diffed against every later window *)
        let baseline =
          Fleet_query.index
            (Fleet_query.view
               (Fleet_query.select mine
                  { Fleet_query.cohort = Some cohort;
                    lo = Some lo;
                    hi = Some baseline_hi }))
        in
        for w = baseline_hi + 1 to hi do
          incr windows_evaluated;
          let current =
            Fleet_query.view
              (Fleet_query.select mine
                 { Fleet_query.cohort = Some cohort;
                   lo = Some w;
                   hi = Some w })
          in
          let findings =
            if current.Fleet_query.segments = 0 then []
            else Fleet_query.diff_indexed ?thresholds baseline ~current
          in
          List.iter
            (fun rule ->
              let matched =
                List.filter (rule_matches rule ~cohort) findings
              in
              considered := !considered + List.length matched;
              List.iter
                (fun f ->
                  let key =
                    (rule.name, cohort, Fleet_query.render_finding f)
                  in
                  let st =
                    match Hashtbl.find_opt states key with
                    | Some st -> st
                    | None ->
                        let st =
                          { streak = 0; last_window = min_int; fired = false }
                        in
                        Hashtbl.replace states key st;
                        st
                  in
                  st.streak <-
                    (if st.last_window = w - 1 then st.streak + 1 else 1);
                  st.last_window <- w;
                  if st.fired then incr deduped
                  else if st.streak >= rule.persist then begin
                    st.fired <- true;
                    alerts :=
                      {
                        rule = rule.name;
                        cohort;
                        window = w;
                        streak = st.streak;
                        degraded = is_degraded ~cohort ~lo ~baseline_hi w;
                        finding = f;
                      }
                      :: !alerts
                  end)
                matched)
            rules;
          (* streaks that broke this window without ever firing are
             flaps; they may restart later, from 1 *)
          Hashtbl.iter
            (fun (_, c, _) st ->
              if
                String.equal c cohort && st.last_window = w - 1
                && (not st.fired) && st.streak > 0
              then begin
                incr flapped;
                st.streak <- 0
              end)
            states
        done
      end)
    cohorts;
  {
    alerts =
      List.sort
        (fun a b ->
          compare
            (a.window, a.cohort, a.rule, Fleet_query.render_finding a.finding)
            (b.window, b.cohort, b.rule, Fleet_query.render_finding b.finding))
        !alerts;
    considered = !considered;
    deduped = !deduped;
    flapped = !flapped;
    windows_evaluated = !windows_evaluated;
    cohorts;
  }
