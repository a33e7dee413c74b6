(* Edge/path profile containers and the accuracy metrics. *)

let check = Alcotest.check
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

let test_edge_profile_basics () =
  let p = Edge_profile.create () in
  check Alcotest.bool "empty" true (Edge_profile.is_empty p);
  Edge_profile.incr p 0 ~taken:true;
  Edge_profile.incr p 0 ~taken:true;
  Edge_profile.incr p 0 ~taken:false;
  Edge_profile.add p 3 ~taken:false 5;
  check ci "freq br0" 3 (Edge_profile.freq p 0);
  check ci "freq br3" 5 (Edge_profile.freq p 3);
  check ci "total" 8 (Edge_profile.total p);
  check (Alcotest.option cf) "bias br0" (Some (2. /. 3.)) (Edge_profile.bias p 0);
  check (Alcotest.option cf) "bias br3" (Some 0.) (Edge_profile.bias p 3);
  check (Alcotest.option cf) "bias unseen" None (Edge_profile.bias p 9);
  check Alcotest.(list int) "ids" [ 0; 3 ] (Edge_profile.branch_ids p)

let test_edge_profile_flip () =
  let p = Edge_profile.create () in
  Edge_profile.add p 1 ~taken:true 9;
  Edge_profile.add p 1 ~taken:false 1;
  let f = Edge_profile.flip p in
  check (Alcotest.option cf) "flipped bias" (Some 0.1) (Edge_profile.bias f 1);
  (* original untouched *)
  check (Alcotest.option cf) "original bias" (Some 0.9) (Edge_profile.bias p 1)

let test_edge_profile_serialize () =
  let tbl = Edge_profile.create_table ~n_methods:3 in
  Edge_profile.add tbl.(0) 0 ~taken:true 4;
  Edge_profile.add tbl.(2) 7 ~taken:false 2;
  Edge_profile.add tbl.(2) 1 ~taken:true 1;
  let rows = Edge_profile.rows tbl in
  let tbl' = Edge_profile.create_table ~n_methods:3 in
  for k = 0 to (Array.length rows / 4) - 1 do
    let o = 4 * k in
    match
      Edge_profile.add_row tbl' rows.(o) rows.(o + 1) ~taken:rows.(o + 2)
        ~not_taken:rows.(o + 3)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "row %d rejected: %s" k e
  done;
  check Alcotest.(array int) "roundtrip" rows (Edge_profile.rows tbl');
  check ci "total preserved" (Edge_profile.table_total tbl)
    (Edge_profile.table_total tbl')

(* [rows] is the one row form every store writes (run cache, advice,
   fleet segments) and [to_lines] renders, so its order is part of
   their bytes: by method, then by branch or path id, whatever the
   insertion order; [add_row] applies every reader's checks *)
let test_rows () =
  let e = Edge_profile.create_table ~n_methods:3 in
  Edge_profile.add e.(2) 7 ~taken:false 2;
  Edge_profile.add e.(0) 5 ~taken:true 4;
  Edge_profile.add e.(2) 1 ~taken:true 1;
  Edge_profile.add e.(0) 0 ~taken:false 0;
  check Alcotest.(array int) "edge rows by method, then branch"
    [| 0; 0; 0; 0; 0; 5; 4; 0; 2; 1; 1; 0; 2; 7; 0; 2 |]
    (Edge_profile.rows e);
  check Alcotest.(list string) "edge lines are the rows rendered"
    [ "0 0 0 0"; "0 5 4 0"; "2 1 1 0"; "2 7 0 2" ]
    (Edge_profile.to_lines e);
  let p = Path_profile.create_table ~n_methods:2 in
  Path_profile.add p.(1) 9 3;
  Path_profile.add p.(0) 4 1;
  Path_profile.add p.(1) 2 5;
  Path_profile.add p.(0) 8 0;
  check Alcotest.(array int) "path rows by method, then path id, counts > 0"
    [| 0; 4; 1; 1; 2; 5; 1; 9; 3 |]
    (Path_profile.rows p);
  check Alcotest.(list string) "path lines are the rows rendered"
    [ "0 4 1"; "1 2 5"; "1 9 3" ]
    (Path_profile.to_lines p);
  List.iter
    (fun (what, (mi, pid, count)) ->
      let t = Path_profile.create_table ~n_methods:2 in
      match Path_profile.add_row t mi pid ~count with
      | Ok () -> Alcotest.failf "path row with %s accepted" what
      | Error _ ->
          check ci (what ^ ": table unchanged") 0 (Path_profile.table_total t))
    [
      ("a method past the table", (2, 0, 1));
      ("a negative method", (-1, 0, 1));
      ("a negative path id", (0, -1, 1));
      ("a count of 0", (0, 0, 0));
    ];
  check Alcotest.bool "a fitting path row is added" true
    (Path_profile.add_row p 1 9 ~count:2 = Ok ()
    && (Option.get (Path_profile.find p.(1) 9)).Path_profile.count = 5)

let test_path_profile () =
  let p = Path_profile.create () in
  Path_profile.incr p 5;
  Path_profile.incr p 5;
  Path_profile.add p 2 10;
  check ci "total" 12 (Path_profile.total p);
  check ci "distinct" 2 (Path_profile.n_distinct p);
  (match Path_profile.find p 5 with
  | Some e -> check ci "count" 2 e.Path_profile.count
  | None -> Alcotest.fail "missing entry");
  check Alcotest.bool "unknown" true (Path_profile.find p 99 = None)

(* Hand-computed Wall matching.  Two methods; method 0 has paths
   a (freq 100, 2 branches) and b (freq 1, 0 branches — zero flow);
   method 1 has path c (freq 50, 4 branches).  Flows: a=200, b=0, c=200;
   total=400.  Threshold 0.125% => hot = {a, c}; b never qualifies. *)
let nb ~meth ~path_id =
  match (meth, path_id) with
  | 0, 0 -> 2
  | 0, 1 -> 0
  | 1, 0 -> 4
  | _ -> 0

let make_actual () =
  let t = Path_profile.create_table ~n_methods:2 in
  Path_profile.add t.(0) 0 100;
  Path_profile.add t.(0) 1 1;
  Path_profile.add t.(1) 0 50;
  t

let test_wall_perfect_estimate () =
  let actual = make_actual () in
  let acc =
    Accuracy.wall_path_accuracy ~n_branches:nb ~actual ~estimated:actual ()
  in
  check cf "self accuracy" 1.0 acc

let test_wall_half_match () =
  let actual = make_actual () in
  (* estimate's top-2 are c and b (b has zero flow), missing a:
     matched actual flow = 200 of 400 *)
  let est = Path_profile.create_table ~n_methods:2 in
  Path_profile.add est.(0) 1 100;
  Path_profile.add est.(1) 0 60;
  let acc = Accuracy.wall_path_accuracy ~n_branches:nb ~actual ~estimated:est () in
  check cf "half flow matched" 0.5 acc

let test_wall_empty_estimate () =
  let actual = make_actual () in
  let est = Path_profile.create_table ~n_methods:2 in
  let acc = Accuracy.wall_path_accuracy ~n_branches:nb ~actual ~estimated:est () in
  check cf "nothing matched" 0.0 acc

let test_wall_no_hot_paths () =
  let empty = Path_profile.create_table ~n_methods:1 in
  let acc =
    Accuracy.wall_path_accuracy ~n_branches:nb ~actual:empty ~estimated:empty ()
  in
  check cf "vacuous" 1.0 acc

let test_relative_overlap () =
  let a = Edge_profile.create_table ~n_methods:1 in
  Edge_profile.add a.(0) 0 ~taken:true 90;
  Edge_profile.add a.(0) 0 ~taken:false 10;
  Edge_profile.add a.(0) 1 ~taken:true 10;
  (* estimate: br0 bias 0.8 (|0.9-0.8| = 0.1); br1 unseen -> 0.5 default,
     accuracy 0.5.  Weights: br0 100, br1 10. *)
  let e = Edge_profile.create_table ~n_methods:1 in
  Edge_profile.add e.(0) 0 ~taken:true 8;
  Edge_profile.add e.(0) 0 ~taken:false 2;
  let acc = Accuracy.relative_overlap ~actual:a ~estimated:e in
  check cf "weighted bias agreement" ((100. *. 0.9) +. (10. *. 0.5)) (acc *. 110.);
  check cf "self" 1.0 (Accuracy.relative_overlap ~actual:a ~estimated:a)

let test_absolute_overlap () =
  let a = Edge_profile.create_table ~n_methods:1 in
  Edge_profile.add a.(0) 0 ~taken:true 50;
  Edge_profile.add a.(0) 0 ~taken:false 50;
  (* estimate puts everything on the taken arm: min(0.5,1.0) = 0.5 *)
  let e = Edge_profile.create_table ~n_methods:1 in
  Edge_profile.add e.(0) 0 ~taken:true 77;
  check cf "half overlap" 0.5 (Accuracy.absolute_overlap ~actual:a ~estimated:e);
  check cf "self" 1.0 (Accuracy.absolute_overlap ~actual:a ~estimated:a);
  let empty = Edge_profile.create_table ~n_methods:1 in
  check cf "empty actual" 1.0 (Accuracy.absolute_overlap ~actual:empty ~estimated:e)

let test_metrics_bounded_qcheck =
  (* accuracy metrics stay within [0,1] for arbitrary profiles *)
  let gen =
    QCheck2.Gen.(
      list_size (int_bound 20)
        (triple (int_bound 5) bool (int_range 1 1000)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"overlap metrics bounded" gen
       (fun entries ->
         let a = Edge_profile.create_table ~n_methods:1 in
         let e = Edge_profile.create_table ~n_methods:1 in
         List.iteri
           (fun k (br, taken, n) ->
             Edge_profile.add (if k mod 2 = 0 then a.(0) else e.(0)) br ~taken n)
           entries;
         let r = Accuracy.relative_overlap ~actual:a ~estimated:e in
         let ab = Accuracy.absolute_overlap ~actual:a ~estimated:e in
         r >= 0. && r <= 1. +. 1e-9 && ab >= 0. && ab <= 1. +. 1e-9))

(* [Fleet_rows.delta] over a random sequence of cumulative tables of
   [stride]-int rows (keys from a small universe, each table's rows in
   a shuffled order), against a model of its contract: each window's
   delta lists, in input order, exactly the rows where some count grew
   past the last table's, with each count's growth — a count that fell
   contributes 0, so a row appears only if another count grew.  Without
   falling counts (a monotone sequence), the deltas sum to the last
   table's rows with a positive count. *)
let prop_delta ~stride =
  let counts = stride - 2 in
  let gen =
    QCheck2.Gen.(
      bool >>= fun falls ->
      triple (return falls)
        (list_size (int_range 1 6)
           (list_size (int_range 0 10)
              (pair
                 (pair (int_bound 2) (int_bound 5))
                 (list_repeat counts
                    (if falls then int_range (-3) 5 else int_bound 5)))))
        int)
  in
  let zeros () = Array.make counts 0 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:(Printf.sprintf "windowed delta = model, stride %d" stride)
       gen
       (fun (falls, windows, seed) ->
         let cur = Fleet_rows.create ~stride in
         let table = Hashtbl.create 16 and last = Hashtbl.create 16 in
         let sums = Hashtbl.create 16 in
         List.iteri
           (fun w updates ->
             List.iter
               (fun (key, growth) ->
                 let c = Option.value ~default:(zeros ()) (Hashtbl.find_opt table key) in
                 Hashtbl.replace table key
                   (Array.mapi (fun j x -> x + List.nth growth j) c))
               updates;
             let keys = Array.of_list (List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) table [])) in
             let rng = Random.State.make [| seed; w |] in
             for i = Array.length keys - 1 downto 1 do
               let j = Random.State.int rng (i + 1) in
               let t = keys.(i) in
               keys.(i) <- keys.(j);
               keys.(j) <- t
             done;
             let row (a, b) c = a :: b :: Array.to_list c in
             let rows =
               Array.of_list
                 (List.concat_map (fun k -> row k (Hashtbl.find table k)) (Array.to_list keys))
             in
             let want =
               List.concat_map
                 (fun k ->
                   let c = Hashtbl.find table k in
                   let p = Option.value ~default:(zeros ()) (Hashtbl.find_opt last k) in
                   Hashtbl.replace last k c;
                   if Array.exists2 ( > ) c p then
                     row k (Array.map2 (fun c p -> max 0 (c - p)) c p)
                   else [])
                 (Array.to_list keys)
             in
             let got = Fleet_rows.delta cur rows in
             if Array.to_list got <> want then
               QCheck2.Test.fail_reportf "window %d: delta differs from the model" w;
             for k = 0 to (Array.length got / stride) - 1 do
               let key = (got.(k * stride), got.((k * stride) + 1)) in
               let sum = Option.value ~default:(zeros ()) (Hashtbl.find_opt sums key) in
               Hashtbl.replace sums key
                 (Array.mapi (fun j x -> x + got.((k * stride) + 2 + j)) sum)
             done)
           windows;
         falls
         || Hashtbl.fold
              (fun k c ok ->
                ok
                && Option.value ~default:(zeros ()) (Hashtbl.find_opt sums k) = c)
              table true))

let suite =
  [
    Alcotest.test_case "edge profile basics" `Quick test_edge_profile_basics;
    Alcotest.test_case "edge profile flip" `Quick test_edge_profile_flip;
    Alcotest.test_case "edge profile serialize" `Quick test_edge_profile_serialize;
    Alcotest.test_case "path profile" `Quick test_path_profile;
    Alcotest.test_case "rows: order and checks" `Quick test_rows;
    Alcotest.test_case "wall: perfect" `Quick test_wall_perfect_estimate;
    Alcotest.test_case "wall: half match" `Quick test_wall_half_match;
    Alcotest.test_case "wall: empty estimate" `Quick test_wall_empty_estimate;
    Alcotest.test_case "wall: no hot paths" `Quick test_wall_no_hot_paths;
    Alcotest.test_case "relative overlap" `Quick test_relative_overlap;
    Alcotest.test_case "absolute overlap" `Quick test_absolute_overlap;
    test_metrics_bounded_qcheck;
    prop_delta ~stride:3;
    prop_delta ~stride:4;
  ]
