type t = { levels : int array; profile : Edge_profile.table; dcg : Dcg.t }

type row =
  | Level of { meth : int; level : int }
  | Edge of { meth : int; branch : int; taken : int; not_taken : int }
  | Call of { caller : int; callee : int; weight : int }

let n_opt t =
  Array.fold_left (fun acc l -> if l >= 0 then acc + 1 else acc) 0 t.levels

let rows t =
  let levels =
    Array.to_list (Array.mapi (fun meth level -> Level { meth; level }) t.levels)
  in
  let edges =
    let r = Edge_profile.rows t.profile in
    List.init (Array.length r / 4) (fun k ->
        let o = 4 * k in
        Edge
          { meth = r.(o); branch = r.(o + 1); taken = r.(o + 2); not_taken = r.(o + 3) })
  in
  let calls =
    List.map
      (fun (caller, callee, weight) -> Call { caller; callee; weight })
      (Dcg.edges t.dcg)
  in
  levels @ edges @ calls

let line_of_row = function
  | Level { meth; level } -> Fmt.str "level %d %d" meth level
  | Edge { meth; branch; taken; not_taken } ->
      Fmt.str "edge %d %d %d %d" meth branch taken not_taken
  | Call { caller; callee; weight } ->
      Fmt.str "dcg %d %d %d" caller callee weight

let to_lines t = List.map line_of_row (rows t)

let empty ~n_methods =
  {
    levels = Array.make n_methods (-1);
    profile = Edge_profile.create_table ~n_methods;
    dcg = Dcg.create ();
  }

(* The checks a row passes, whichever reader produced it: a level
   names a method of the program, edge counters are checked and added
   by [Edge_profile.add_row], call edges by [Dcg.set_row]. *)
let add_row t = function
  | Level { meth; level } ->
      if meth >= 0 && meth < Array.length t.levels then begin
        t.levels.(meth) <- level;
        Ok ()
      end
      else Error "expected a method index in range and a level"
  | Edge { meth; branch; taken; not_taken } ->
      Edge_profile.add_row t.profile meth branch ~taken ~not_taken
  | Call { caller; callee; weight } -> Dcg.set_row t.dcg ~caller ~callee weight

let of_rows ?file ~n_methods rows =
  let t = empty ~n_methods in
  let rec go n = function
    | [] -> Ok t
    | row :: rest -> (
        match add_row t row with
        | Ok () -> go (n + 1) rest
        | Error reason ->
            Error { Dcg.file; line = n; text = line_of_row row; reason })
  in
  go 1 rows

(* One non-blank line of text as its row: the keyword, then exactly
   the row's numbers. *)
let row_of_line line =
  let ints rest = List.map int_of_string_opt rest in
  match String.split_on_char ' ' line with
  | "level" :: rest -> (
      match ints rest with
      | [ Some meth; Some level ] -> Ok (Level { meth; level })
      | _ -> Error "expected \"level <method> <level>\"")
  | "edge" :: rest -> (
      match ints rest with
      | [ Some meth; Some branch; Some taken; Some not_taken ] ->
          Ok (Edge { meth; branch; taken; not_taken })
      | _ -> Error "expected \"edge <method> <branch> <taken> <not-taken>\"")
  | "dcg" :: rest -> (
      match ints rest with
      | [ Some caller; Some callee; Some weight ] ->
          Ok (Call { caller; callee; weight })
      | _ -> Error "expected \"dcg <caller> <callee> <weight>\"")
  | _ -> Error "expected \"level\", \"edge\" or \"dcg\""

let of_lines ?file ~n_methods lines =
  let t = empty ~n_methods in
  (* line by line, so an error points at its line in the file *)
  let rec go n = function
    | [] -> Ok t
    | raw :: rest -> (
        let line = String.trim raw in
        let added =
          if line = "" then Ok () else Result.bind (row_of_line line) (add_row t)
        in
        match added with
        | Ok () -> go (n + 1) rest
        | Error reason -> Error { Dcg.file; line = n; text = line; reason })
  in
  go 1 lines
