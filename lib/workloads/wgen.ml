open Ast

(* Seeded adversarial workload generator.  See wgen.mli for the model.

   Generated program shape (method names fixed, bodies drawn from a
   PRNG over the structural seed):

     main  --(bursty, multi-tenant)-->  route --82%..-> work0..workN  -> leaf
                                              \--18%..-> flip ---------^
                                                          (phase arms)
     work* additionally reach:  polyK (megamorphic switch site)
                                deep  (recursion chain, base calls leaf)
                                maze  (2^diamonds-path diamond chain)

   [route]'s threshold descends as the phase global advances, [flip]'s
   per-phase arms are leaf-calling loops that never execute earlier,
   and [maze]'s entry value is keyed to the phase so each phase runs
   its own small set of the 2^diamonds paths — one phase shift thus
   produces all three triage signatures fleet diffs look for: new hot
   paths, a branch-bias shift, and a change of [leaf]'s dominant
   caller. *)

type spec = {
  seed : int;
  methods : int;
  bias : int;
  mega : int;
  depth : int;
  loops : int;
  diamonds : int;
  phases : int;
  tenants : int;
  burst : int;
  size : int;
}

let default =
  {
    seed = 1;
    methods = 3;
    bias = 85;
    mega = 4;
    depth = 3;
    loops = 2;
    diamonds = 8;
    phases = 2;
    tenants = 2;
    burst = 4;
    size = 60;
  }

type error = { axis : string; value : string; reason : string }

let error_to_string e =
  Fmt.str "gen spec: axis %s = %s rejected: %s" e.axis e.value e.reason

(* Axis table: name, getter, inclusive range.  One list drives
   validation, printing and parsing, so the three cannot drift. *)
let axes =
  [
    ("seed", (fun s -> s.seed), (fun s v -> { s with seed = v }), 0, 0x3FFFFFFF);
    ("methods", (fun s -> s.methods), (fun s v -> { s with methods = v }), 1, 8);
    ("bias", (fun s -> s.bias), (fun s v -> { s with bias = v }), 50, 99);
    ("mega", (fun s -> s.mega), (fun s v -> { s with mega = v }), 0, 8);
    ("depth", (fun s -> s.depth), (fun s v -> { s with depth = v }), 0, 16);
    ("loops", (fun s -> s.loops), (fun s v -> { s with loops = v }), 0, 4);
    ( "diamonds",
      (fun s -> s.diamonds),
      (fun s v -> { s with diamonds = v }),
      0,
      30 );
    ("phases", (fun s -> s.phases), (fun s v -> { s with phases = v }), 1, 4);
    ("tenants", (fun s -> s.tenants), (fun s v -> { s with tenants = v }), 1, 8);
    ("burst", (fun s -> s.burst), (fun s v -> { s with burst = v }), 1, 32);
    ("size", (fun s -> s.size), (fun s v -> { s with size = v }), 1, 1_000_000);
  ]

let validate spec =
  let rec go = function
    | [] -> Ok ()
    | (axis, get, _, lo, hi) :: rest ->
        let v = get spec in
        if v < lo || v > hi then
          Error
            {
              axis;
              value = string_of_int v;
              reason = Fmt.str "out of range [%d, %d]" lo hi;
            }
        else go rest
  in
  go axes

let prefix = "gen:"
let is_spec name = String.length name >= 4 && String.sub name 0 4 = prefix

let print spec =
  prefix
  ^ String.concat ","
      (List.map (fun (k, get, _, _, _) -> Fmt.str "%s=%d" k (get spec)) axes)

let parse name =
  if not (is_spec name) then
    Error { axis = "spec"; value = name; reason = "expected a gen: prefix" }
  else
    let body = String.sub name 4 (String.length name - 4) in
    let fields =
      if body = "" then [] else String.split_on_char ',' body
    in
    let rec go seen spec = function
      | [] -> ( match validate spec with Ok () -> Ok spec | Error e -> Error e)
      | field :: rest -> (
          match String.index_opt field '=' with
          | None ->
              Error { axis = "spec"; value = field; reason = "expected key=int" }
          | Some i -> (
              let k = String.sub field 0 i in
              let vs =
                String.sub field (i + 1) (String.length field - i - 1)
              in
              match List.find_opt (fun (k', _, _, _, _) -> k' = k) axes with
              | None ->
                  Error { axis = k; value = vs; reason = "unknown axis" }
              | Some (_, _, set, _, _) -> (
                  if List.mem k seen then
                    Error { axis = k; value = vs; reason = "duplicate axis" }
                  else
                    match int_of_string_opt vs with
                    | None ->
                        Error { axis = k; value = vs; reason = "not an integer" }
                    | Some v -> go (k :: seen) (set spec v) rest)))
    in
    go [] default fields

(* ------------------------- traffic schedule ------------------------ *)

let schedule spec ~windows =
  List.init (max 0 windows) (fun w ->
      if windows <= 1 then 0 else min (spec.phases - 1) (w * spec.phases / windows))

let default_windows spec = max 6 (2 * spec.phases)

let shifts spec ~windows =
  let sched = Array.of_list (schedule spec ~windows) in
  List.filter
    (fun w -> w > 0 && sched.(w) <> sched.(w - 1))
    (List.init (max 0 windows) (fun w -> w))

(* --------------------------- program build ------------------------- *)

let phase = g Phased.phase_global

let build spec size =
  let p = Prng.create ~seed:((spec.seed * 2) + 1) in
  (* inclusive random constant — every structural choice routes through
     the spec-seeded PRNG so the build is a pure function of the spec *)
  let c lo hi = lo + Prng.below p (hi - lo + 1) in
  let odd lo hi = (c lo hi * 2) + 1 in
  let leaf =
    let k1 = odd 1 7 and k2 = c 2 4 and k3 = c 7 31 in
    mdef "leaf" ~params:[ "x" ]
      [
        set "t" (band (mul (v "x") (i k1)) (i 255));
        for_ "k" (i 0) (i k2)
          [ set "t" (add (v "t") (band (shr (v "x") (v "k")) (i k3))) ];
        ret (v "t");
      ]
  in
  let deep =
    if spec.depth = 0 then []
    else
      let kr = c 1 63 in
      [
        mdef "deep" ~params:[ "x"; "d" ]
          [
            if_
              (gt (v "d") (i 0))
              [
                ret
                  (add
                     (call "deep" [ bxor (v "x") (i kr); sub (v "d") (i 1) ])
                     (i 1));
              ]
              [ ret (call "leaf" [ v "x" ]) ];
          ];
      ]
  in
  let maze =
    if spec.diamonds = 0 then []
    else
      let diamond j =
        if_
          (eq (band (shr (v "a") (i (j mod 24))) (i 1)) (i 0))
          [ set "a" (add (v "a") (i (c 1 127))) ]
          [ set "a" (bxor (v "a") (i (c 1 127))) ]
      in
      (* the entry value keeps only 4 input bits and XORs in a
         phase-keyed odd constant: each phase concentrates the dynamic
         traffic on its own small set of the 2^diamonds static paths,
         so a phase shift retires the hot maze paths wholesale (the
         static path space — and the Too_many_paths boundary — is
         untouched) *)
      let mix = odd 0x80 0x3FF in
      [
        mdef "maze" ~params:[ "x" ]
          ((set "a" (bxor (band (v "x") (i 15)) (mul phase (i mix)))
           :: List.init spec.diamonds diamond)
          @ [ ret (v "a") ]);
      ]
  in
  let poly =
    if spec.mega < 2 then []
    else
      List.init spec.mega (fun j ->
          let k = c 1 63 in
          let body =
            match j mod 4 with
            | 0 -> add (v "x") (i k)
            | 1 -> bxor (v "x") (i k)
            | 2 -> band (mul (v "x") (i ((k * 2) + 1))) (i 1023)
            | _ -> sub (v "x") (i k)
          in
          mdef (Fmt.str "poly%d" j) ~params:[ "x" ] [ ret body ])
  in
  (* feature sites are spread round-robin across workers *)
  let worker wi =
    let has_mega = spec.mega >= 2 && wi = 0 mod spec.methods in
    let has_rec = spec.depth > 0 && wi = 1 mod spec.methods in
    let has_maze = spec.diamonds > 0 && wi = 2 mod spec.methods in
    let cold_c = c 1 255 in
    let biased =
      if_
        (lt (rnd 100) (i spec.bias))
        [ set "t" (add (v "t") (call "leaf" [ v "t" ])) ]
        [ set "t" (bxor (v "t") (i cold_c)) ]
    in
    let features =
      (if has_mega then
         [
           switch
             (rem (band (v "t") (i 1023)) (i spec.mega))
             (List.init spec.mega (fun j ->
                  ( j,
                    [
                      set "t"
                        (bxor (v "t") (call (Fmt.str "poly%d" j) [ v "t" ]));
                    ] )))
             [ set "t" (add (v "t") (i 1)) ];
         ]
       else [])
      @ (if has_rec then
           [
             set "t"
               (band
                  (add (v "t") (call "deep" [ v "t"; i spec.depth ]))
                  (i 65535));
           ]
         else [])
      @
      if has_maze then [ set "t" (bxor (v "t") (call "maze" [ v "t" ])) ]
      else []
    in
    let innermost = biased :: features in
    let rec nest l body =
      if l = 0 then body
      else
        let bound = if spec.loops >= 3 then c 2 3 else c 3 4 in
        nest (l - 1) [ for_ (Fmt.str "l%d" (l - 1)) (i 0) (i bound) body ]
    in
    mdef (Fmt.str "work%d" wi) ~params:[ "r" ]
      ((set "t" (v "r") :: nest spec.loops innermost) @ [ ret (v "t") ])
  in
  let workers = List.init spec.methods worker in
  let flip =
    (* per-phase arms: leaf-calling loops of growing length whose paths
       never execute in earlier phases; the default (phase-0) arm is
       cheap arithmetic, hot enough at the minority share to be
       opt-compiled from a phase-0 warmup *)
    let arm ph =
      [
        for_ "j" (i 0)
          (i (8 + (2 * ph)))
          [
            set "t"
              (bxor (v "t") (call "leaf" [ add (v "t") (mul (v "j") (i ph)) ]));
          ];
      ]
    in
    let base =
      [
        for_ "j" (i 0) (i 5)
          [
            set "t" (add (v "t") (band (mul (v "t") (i 5)) (i 63)));
            if_ (eq (band (v "t") (i 3)) (i 0)) [ set "t" (bxor (v "t") (v "j")) ] [];
          ];
      ]
    in
    let dispatch =
      if spec.phases = 1 then base
      else
        [
          switch phase
            (List.init (spec.phases - 1) (fun k -> (k + 1, arm (k + 1))))
            base;
        ]
    in
    mdef "flip" ~params:[ "r" ] ((set "t" (v "r") :: dispatch) @ [ ret (v "t") ])
  in
  let route =
    (* the dispatch split: phase 0 sends ~82% of requests to the worker
       pool and the rest to [flip]; each phase advance lowers the
       threshold so flip's share grows, and each tenant skews it by 2 *)
    let step = if spec.phases = 1 then 0 else 60 / (spec.phases - 1) in
    mdef "route" ~params:[ "r"; "ten" ]
      [
        if_
          (lt (v "r")
             (sub (i 82) (add (mul phase (i step)) (mul (v "ten") (i 2)))))
          [
            switch
              (rem (v "r") (i spec.methods))
              (List.init spec.methods (fun j ->
                   (j, [ ret (call (Fmt.str "work%d" j) [ v "r" ]) ])))
              [ ret (call "work0" [ v "r" ]) ];
          ]
          [ ret (call "flip" [ v "r" ]) ];
      ]
  in
  let main =
    mdef "main" ~params:[]
      [
        set "sum" (i 0);
        for_ "it" (i 0) (i size)
          [
            (* one burst = [burst] requests from a single tenant *)
            set "ten" (rnd spec.tenants);
            for_ "b" (i 0) (i spec.burst)
              [
                set "sum"
                  (bxor (v "sum") (call "route" [ rnd 100; v "ten" ]));
              ];
          ];
        ret (v "sum");
      ]
  in
  pdef (print spec)
    ((main :: route :: flip :: workers) @ poly @ maze @ deep @ [ leaf ])

let describe spec =
  Fmt.str
    "generated: %d workers, bias %d%%, mega %d, recursion %d, loop nest %d, \
     %d diamonds (2^%d paths), %d phases x %d tenants, burst %d"
    spec.methods spec.bias spec.mega spec.depth spec.loops spec.diamonds
    spec.diamonds spec.phases spec.tenants spec.burst

let workload spec =
  (match validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg (error_to_string e));
  {
    Workload.name = print spec;
    description = describe spec;
    default_size = spec.size;
    build = build spec;
  }

let resolve name =
  match parse name with Ok spec -> Ok (workload spec) | Error e -> Error e

(* ------------------------------ corpus ----------------------------- *)

let corpus ?(n = 20) ~seed () =
  let p = Prng.create ~seed:((seed * 4) + 3) in
  let c lo hi = lo + Prng.below p (hi - lo + 1) in
  List.init n (fun k ->
      {
        seed = (seed * 131) + k;
        methods = c 1 4;
        bias = c 60 95;
        mega = (match c 0 4 with 1 -> 0 | m -> m);
        depth = c 0 6;
        loops = c 0 3;
        diamonds = c 0 12;
        phases = c 1 3;
        tenants = c 1 4;
        burst = c 1 8;
        size = c 20 40;
      })
