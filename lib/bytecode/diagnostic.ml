type severity = Error | Warning | Info

type location =
  | Program_loc
  | Method_loc of string
  | Block_loc of string * int
  | Instr_loc of string * int * int
  | Edge_loc of string * int * int
  | Node_loc of string * int
  | Branch_loc of string * Cfg.branch_id
  | Path_loc of string * int

type diagnostic = {
  severity : severity;
  pass : string;
  loc : location;
  message : string;
}

let pp_severity ppf s =
  Fmt.string ppf
    (match s with Error -> "error" | Warning -> "warning" | Info -> "info")

let pp_location ppf = function
  | Program_loc -> Fmt.string ppf "program"
  | Method_loc m -> Fmt.string ppf m
  | Block_loc (m, b) -> Fmt.pf ppf "%s:B%d" m b
  | Instr_loc (m, b, i) -> Fmt.pf ppf "%s:B%d:%d" m b i
  | Edge_loc (m, s, d) -> Fmt.pf ppf "%s:B%d->B%d" m s d
  | Node_loc (m, n) -> Fmt.pf ppf "%s:n%d" m n
  | Branch_loc (m, br) -> Fmt.pf ppf "%s:branch %d" m br
  | Path_loc (m, p) -> Fmt.pf ppf "%s:path %d" m p

let pp_diagnostic ppf d =
  Fmt.pf ppf "%a[%s] %a: %s" pp_severity d.severity d.pass pp_location d.loc
    d.message

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let with_pass pass ds = List.map (fun d -> { d with pass }) ds

let pp_report ppf ds =
  let n_err = List.length (errors ds) in
  let n_warn = List.length (List.filter (fun d -> d.severity = Warning) ds) in
  List.iter (fun d -> Fmt.pf ppf "%a@." pp_diagnostic d) ds;
  Fmt.pf ppf "%d error(s), %d warning(s)" n_err n_warn
