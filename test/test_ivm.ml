(* Incremental view maintenance vs the naive oracle, plus the retraction
   edge cases: retracting what was never inserted, retract-then-reinsert
   inside one delta, emptying a relation, and the count-underflow
   invariant. Views are seeded from an interpreter run, as the serving
   layer seeds them; every differential check recomputes from scratch with
   Naive.run on a mirrored EDB — the same oracle rs_fuzz trusts. *)

module Ast = Recstep.Ast
module Parser = Recstep.Parser
module Naive = Recstep.Naive
module Ivm = Recstep.Ivm
module Delta = Rs_relation.Delta

let check = Alcotest.(check bool)

(* --- a tiny mirrored-EDB driver ----------------------------------------- *)

module Rows = Set.Make (struct
  type t = int list

  let compare = compare
end)

(* Replay a typed delta against a plain set-of-rows mirror of the EDB, the
   reference semantics Ivm.apply must agree with. *)
let mirror_apply edb (d : Delta.t) =
  List.map
    (fun (name, rows) ->
      let s = ref (Rows.of_list rows) in
      List.iter
        (fun (o : Delta.op) ->
          let row = Array.to_list o.Delta.row in
          match o.Delta.sign with
          | Delta.Insert -> s := Rows.add row !s
          | Delta.Retract -> s := Rows.remove row !s)
        (Delta.ops d name);
      (name, Rows.elements !s))
    edb

let sorted rows = List.sort_uniq compare rows

(* A view over [edb], seeded from one interpreter run on it unless the
   fixpoint [idb] is given. *)
let seed ?prov ?idb edb program =
  let idb =
    match idb with
    | Some idb -> idb
    | None -> Rs_fuzz.Delta_fuzz.interpreter_fixpoint program edb
  in
  Ivm.create ?prov ~edb:(Ivm.snapshot edb) ~idb program

(* Apply [deltas] one at a time; after every version check each IDB against
   a from-scratch naive recompute, and check the emitted delta nets to the
   observed output diff. *)
let run_sequence ?idb program_src edb deltas =
  let program = Parser.parse program_src in
  let v = seed ?idb edb program in
  let naive_rows edb' =
    let _, lookup = Naive.run ~edb:edb' program in
    lookup
  in
  let l0 = naive_rows edb in
  List.iter
    (fun p ->
      check ("bootstrap " ^ p) true (sorted (l0 p) = Ivm.rows v p))
    (Ivm.idbs v);
  let edb = ref edb in
  List.iter
    (fun d ->
      let before = List.map (fun p -> (p, Ivm.rows v p)) (Ivm.idbs v) in
      let out = Ivm.apply v d in
      edb := mirror_apply !edb d;
      let lookup = naive_rows !edb in
      List.iter
        (fun p ->
          check ("incremental = recompute for " ^ p) true
            (sorted (lookup p) = Ivm.rows v p))
        (Ivm.idbs v);
      (* the emitted delta must be exactly the observed output diff *)
      List.iter
        (fun p ->
          let b = Rows.of_list (List.assoc p before)
          and a = Rows.of_list (Ivm.rows v p) in
          let want_ins = Rows.elements (Rows.diff a b)
          and want_del = Rows.elements (Rows.diff b a) in
          let got_ins = ref [] and got_del = ref [] in
          List.iter
            (fun (o : Delta.op) ->
              let row = Array.to_list o.Delta.row in
              match o.Delta.sign with
              | Delta.Insert -> got_ins := row :: !got_ins
              | Delta.Retract -> got_del := row :: !got_del)
            (Delta.ops out p);
          check ("emitted inserts for " ^ p) true (sorted !got_ins = want_ins);
          check ("emitted retracts for " ^ p) true (sorted !got_del = want_del))
        (Ivm.idbs v))
    deltas;
  v

(* --- programs ------------------------------------------------------------ *)

let tc_src =
  ".input arc\n.output tc\ntc(x, y) :- arc(x, y).\ntc(x, z) :- arc(x, y), tc(y, z).\n"

let join_src = ".input e\n.output two\ntwo(x, z) :- e(x, y), e(y, z).\n"

let neg_src = ".input r 1\n.input s 1\n.output p\np(x) :- r(x), !s(x).\n"

let empty_support_src = ".input q 1\n.output p\np(1) :- !q(1).\n"

(* --- counting (non-recursive) ------------------------------------------- *)

let test_counting_insert_retract () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let deltas =
    [
      Delta.of_inserts "e" [ [| 3; 4 |] ];
      Delta.of_inserts "e" [ [| 2; 2 |] ];  (* self-join both positions *)
      Delta.of_retracts "e" [ [| 2; 3 |] ];
      Delta.of_retracts "e" [ [| 2; 2 |] ];
    ]
  in
  ignore (run_sequence join_src edb deltas)

let test_counting_shared_support () =
  (* two(1,3) has two derivations once e(2,3) and e(2,3)'s sibling path
     exist; retracting one support must not retract the tuple *)
  let edb = [ ("e", [ [ 1; 2 ]; [ 1; 4 ]; [ 2; 3 ]; [ 4; 3 ] ]) ] in
  let v =
    run_sequence join_src edb [ Delta.of_retracts "e" [ [| 2; 3 |] ] ]
  in
  check "two(1,3) survives on the other support" true
    (List.mem [ 1; 3 ] (Ivm.rows v "two"))

(* --- recursion (DRed) ---------------------------------------------------- *)

let test_dred_chain () =
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]) ] in
  let deltas =
    [
      Delta.of_retracts "arc" [ [| 2; 3 |] ];  (* cuts the chain *)
      Delta.of_inserts "arc" [ [| 2; 3 |] ];  (* heals it *)
      Delta.merge
        (Delta.of_inserts "arc" [ [| 4; 1 |] ])  (* closes a cycle *)
        (Delta.of_retracts "arc" [ [| 1; 2 |] ]);
      Delta.of_retracts "arc" [ [| 4; 1 |] ];
    ]
  in
  ignore (run_sequence tc_src edb deltas)

let test_dred_cycle () =
  (* inside a cycle every tuple transitively supports itself — the exact
     case where counting diverges and sets + DRed are required *)
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 1 ]; [ 2; 3 ] ]) ] in
  let v = run_sequence tc_src edb [ Delta.of_retracts "arc" [ [| 2; 3 |] ] ] in
  check "cycle survives" true (List.mem [ 1; 1 ] (Ivm.rows v "tc"));
  check "dred ran" true ((Ivm.stats v).Ivm.dred_deleted > 0)

let test_dred_rederivation () =
  (* retracting arc(1,2) overestimates tc(1,3) as deleted; the direct edge
     arc(1,3) must give it back in the re-derivation phase *)
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ]) ] in
  let v = run_sequence tc_src edb [ Delta.of_retracts "arc" [ [| 1; 2 |] ] ] in
  check "tc(1,3) survives via direct edge" true (List.mem [ 1; 3 ] (Ivm.rows v "tc"));
  let st = Ivm.stats v in
  check "overdeletion happened" true (st.Ivm.dred_deleted > 0);
  check "rederivation gave tuples back" true (st.Ivm.dred_rederived > 0)

(* --- negation ------------------------------------------------------------ *)

let test_negation_flip () =
  let edb = [ ("r", [ [ 1 ]; [ 2 ] ]); ("s", [ [ 2 ] ]) ] in
  let deltas =
    [
      Delta.of_inserts "s" [ [| 1 |] ];  (* kills p(1) *)
      Delta.of_retracts "s" [ [| 1 |] ];  (* revives it *)
      Delta.of_retracts "s" [ [| 2 |] ];  (* revives p(2) *)
    ]
  in
  ignore (run_sequence neg_src edb deltas)

let test_empty_support_bootstrap () =
  (* p(1) :- !q(1). with q empty: no delta ever references q at bootstrap,
     so only the seeded fixpoint carries p(1). The interpreter's planner
     needs a positive atom, so the seed is written out here; the counting
     stratum's enumeration checks it. *)
  let v = run_sequence ~idb:[ ("p", [ [ 1 ] ]) ] empty_support_src [ ("q", []) ]
      [ Delta.of_inserts "q" [ [| 1 |] ]; Delta.of_retracts "q" [ [| 1 |] ] ]
  in
  check "p(1) back after q emptied again" true (Ivm.rows v "p" = [ [ 1 ] ])

(* --- retraction edge cases ----------------------------------------------- *)

let test_retract_never_inserted () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let program = Parser.parse join_src in
  let v = seed edb program in
  let before = Ivm.rows v "two" in
  (* over-retraction is a counted no-op, not an underflow *)
  let out = Ivm.apply v (Delta.of_retracts "e" [ [| 9; 9 |]; [| 9; 9 |] ]) in
  check "no output delta" true (Delta.is_empty out);
  check "state untouched" true (Ivm.rows v "two" = before)

let test_retract_then_reinsert_one_delta () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let program = Parser.parse join_src in
  let v = seed edb program in
  let d =
    Delta.merge
      (Delta.of_retracts "e" [ [| 1; 2 |] ])
      (Delta.of_inserts "e" [ [| 1; 2 |] ])
  in
  let out = Ivm.apply v d in
  check "flip-flop nets to nothing" true (Delta.is_empty out);
  check "two(1,3) still there" true (List.mem [ 1; 3 ] (Ivm.rows v "two"));
  (* and the inverse order: insert-then-retract of a new tuple *)
  let d2 =
    Delta.merge
      (Delta.of_inserts "e" [ [| 7; 8 |] ])
      (Delta.of_retracts "e" [ [| 7; 8 |] ])
  in
  let out2 = Ivm.apply v d2 in
  check "insert-then-retract nets to nothing" true (Delta.is_empty out2)

let test_retraction_empties_relation () =
  let edb = [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let deltas = [ Delta.of_retracts "e" [ [| 1; 2 |]; [| 2; 3 |] ] ] in
  let v = run_sequence join_src edb deltas in
  check "e empty" true (Ivm.rows v "e" = []);
  check "two empty" true (Ivm.rows v "two" = [])

let test_no_underflow_under_churn () =
  (* a deterministic churn sequence; the invariant is simply that apply
     never raises Count_underflow and every version matches the oracle *)
  let edb = [ ("e", [ [ 0; 1 ] ]) ] in
  let deltas =
    List.init 12 (fun i ->
        let a = i mod 5 and b = (i * 3 + 1) mod 5 in
        if i mod 3 = 2 then Delta.of_retracts "e" [ [| a; b |] ]
        else Delta.of_inserts "e" [ [| a; b |] ])
  in
  ignore (run_sequence join_src edb deltas)

(* --- input validation ---------------------------------------------------- *)

let test_apply_rejects_bad_input () =
  let edb = [ ("e", [ [ 1; 2 ] ]) ] in
  let v = seed edb (Parser.parse join_src) in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "idb delta rejected" true
    (raises (fun () -> Ivm.apply v (Delta.of_inserts "two" [ [| 1; 2 |] ])));
  check "unknown relation rejected" true
    (raises (fun () -> Ivm.apply v (Delta.of_inserts "nope" [ [| 1 |] ])));
  check "arity mismatch rejected" true
    (raises (fun () -> Ivm.apply v (Delta.of_inserts "e" [ [| 1 |] ])))

(* The seed is checked where it can be without evaluating: every IDB must
   be supplied with the program's arity, and a counting stratum's rows
   must be exactly what one enumeration of its rule bodies derives. *)
let test_create_rejects_bad_seed () =
  let edb = Ivm.snapshot [ ("e", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let program = Parser.parse join_src in
  let rejects idb =
    match Ivm.create ~edb ~idb program with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "good seed accepted" false (rejects [ ("two", [ [ 1; 3 ] ]) ]);
  check "missing predicate" true (rejects []);
  check "wrong arity" true (rejects [ ("two", [ [ 1; 3; 5 ] ]) ]);
  check "row the rules do not derive" true (rejects [ ("two", [ [ 1; 3 ]; [ 2; 2 ] ]) ]);
  check "derived row missing" true (rejects [ ("two", []) ]);
  check "EDB arity checked against the program" true
    (match
       Ivm.create ~edb:(Ivm.snapshot [ ("e", [ [ 1 ] ]) ]) ~idb:[ ("two", []) ] program
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "ragged snapshot" true
    (match Ivm.snapshot [ ("e", [ [ 1; 2 ]; [ 3 ] ]) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A recursive stratum takes the supplied fixpoint as its state, with no
   evaluation: the seeded rows are the view's rows, and the view then
   maintains from them. *)
let test_recursive_seed_installed () =
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let program = Parser.parse tc_src in
  let v =
    Ivm.create ~edb:(Ivm.snapshot edb) ~idb:[ ("tc", [ [ 2; 3 ]; [ 1; 2 ]; [ 1; 3 ] ]) ] program
  in
  check "seed installed sorted" true (Ivm.rows v "tc" = [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]);
  Alcotest.(check int) "no derivation counted" 0 (Ivm.stats v).Ivm.count_updates;
  ignore (Ivm.apply v (Delta.of_inserts "arc" [ [| 3; 4 |] ]));
  check "maintained from the seed" true
    (Ivm.rows v "tc" = [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ]; [ 3; 4 ] ])

(* Views built on one snapshot share its sets; a delta folded into one
   view must leave every sibling's EDB and IDB rows as they were. *)
let test_shared_snapshot () =
  let rows = [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  let edb = Ivm.snapshot [ ("arc", rows) ] in
  let tc = Parser.parse tc_src
  and two = Parser.parse ".input arc\n.output two\ntwo(x, z) :- arc(x, y), arc(y, z).\n" in
  let fix program = Rs_fuzz.Delta_fuzz.interpreter_fixpoint program [ ("arc", rows) ] in
  let a = Ivm.create ~edb ~idb:(fix tc) tc in
  let b = Ivm.create ~edb ~idb:(fix two) two in
  let c = Ivm.create ~edb ~idb:(fix tc) tc in
  let b_two = Ivm.rows b "two" and c_tc = Ivm.rows c "tc" in
  ignore
    (Ivm.apply a
       (Delta.merge (Delta.of_inserts "arc" [ [| 4; 5 |] ]) (Delta.of_retracts "arc" [ [| 1; 2 |] ])));
  check "the applied view moved" true (Ivm.rows a "arc" = [ [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ] ]);
  check "sibling on another program keeps its EDB" true (Ivm.rows b "arc" = rows);
  check "sibling on the same program keeps its EDB" true (Ivm.rows c "arc" = rows);
  check "sibling IDBs untouched" true (Ivm.rows b "two" = b_two && Ivm.rows c "tc" = c_tc);
  (* and the siblings still maintain correctly from the shared base *)
  ignore (Ivm.apply b (Delta.of_inserts "arc" [ [| 4; 5 |] ]));
  check "sibling maintains from the snapshot" true
    (Ivm.rows b "two" = [ [ 1; 3 ]; [ 2; 4 ]; [ 3; 5 ] ])

let test_supported () =
  check "plain program supported" true (Ivm.supported (Parser.parse tc_src));
  check "aggregates unsupported" false
    (Ivm.supported
       (Parser.parse ".input e\n.output d\nd(x, MIN(c)) :- e(x, c).\n"))

(* --- provenance maintenance ----------------------------------------------- *)

(* With a tag store attached, every maintained IDB row must carry a tag at
   every version — inserts tag new derivations, retractions drop tags, and
   a DRed overdelete-then-rederive round trip may not leave the survivor
   untagged. [tagged] counts the store's current tags, so coverage equality
   also proves no stale tags linger for departed tuples. *)
let test_provenance_maintained () =
  let module Prov = Recstep.Provenance in
  let prov = Prov.create () in
  let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ]) ] in
  let v = seed ~prov edb (Parser.parse tc_src) in
  check "store attached" true
    (match Ivm.provenance v with Some p -> p == prov | None -> false);
  let assert_cov what =
    List.iter
      (fun p ->
        let rows = Ivm.rows v p in
        Alcotest.(check int) (what ^ ": tagged = rows for " ^ p)
          (List.length rows) (Prov.tagged prov ~pred:p);
        List.iter
          (fun row ->
            check (what ^ ": tag present") true (Prov.find prov ~pred:p row <> None))
          rows)
      (Ivm.idbs v)
  in
  assert_cov "bootstrap";
  ignore (Ivm.apply v (Delta.of_inserts "arc" [ [| 3; 4 |] ]));
  assert_cov "after insert";
  (* retracting arc(1,2) overdeletes tc(1,3)/tc(1,4) and rederives them via
     the direct edge; tc(1,2) leaves for good *)
  ignore (Ivm.apply v (Delta.of_retracts "arc" [ [| 1; 2 |] ]));
  assert_cov "after dred retract";
  check "rederived tuple kept a tag" true (Prov.find prov ~pred:"tc" [ 1; 3 ] <> None);
  check "departed tuple lost its tag" true (Prov.find prov ~pred:"tc" [ 1; 2 ] = None)

(* --- delta module round-trips -------------------------------------------- *)

let test_delta_normalize () =
  let mem _ row = row = [| 1; 1 |] in
  let d =
    Delta.merge
      (Delta.of_inserts "r" [ [| 1; 1 |]; [| 2; 2 |] ])
      (Delta.of_retracts "r" [ [| 1; 1 |]; [| 3; 3 |] ])
  in
  match Delta.normalize ~mem d with
  | [ ("r", c) ] ->
      check "net insert" true (c.Delta.insert = [ [| 2; 2 |] ]);
      check "net retract" true (c.Delta.retract = [ [| 1; 1 |] ])
  | _ -> Alcotest.fail "expected one changed relation"

let test_delta_counts () =
  let d =
    Delta.merge (Delta.of_inserts "a" [ [| 1 |]; [| 2 |] ]) (Delta.of_retracts "b" [ [| 3 |] ])
  in
  Alcotest.(check int) "inserts" 2 (Delta.count d Delta.Insert);
  Alcotest.(check int) "retracts" 1 (Delta.count d Delta.Retract);
  Alcotest.(check int) "size" 3 (Delta.size d);
  check "rels" true (Delta.rels d = [ "a"; "b" ])

let suite =
  [
    Alcotest.test_case "counting insert/retract" `Quick test_counting_insert_retract;
    Alcotest.test_case "counting shared support" `Quick test_counting_shared_support;
    Alcotest.test_case "dred chain" `Quick test_dred_chain;
    Alcotest.test_case "dred cycle" `Quick test_dred_cycle;
    Alcotest.test_case "dred rederivation" `Quick test_dred_rederivation;
    Alcotest.test_case "negation flip" `Quick test_negation_flip;
    Alcotest.test_case "empty-support bootstrap" `Quick test_empty_support_bootstrap;
    Alcotest.test_case "retract never inserted" `Quick test_retract_never_inserted;
    Alcotest.test_case "retract then reinsert" `Quick test_retract_then_reinsert_one_delta;
    Alcotest.test_case "retraction empties relation" `Quick test_retraction_empties_relation;
    Alcotest.test_case "no underflow under churn" `Quick test_no_underflow_under_churn;
    Alcotest.test_case "apply rejects bad input" `Quick test_apply_rejects_bad_input;
    Alcotest.test_case "create rejects a bad seed" `Quick test_create_rejects_bad_seed;
    Alcotest.test_case "recursive seed installed as is" `Quick test_recursive_seed_installed;
    Alcotest.test_case "views share one snapshot" `Quick test_shared_snapshot;
    Alcotest.test_case "supported" `Quick test_supported;
    Alcotest.test_case "provenance maintained across apply" `Quick
      test_provenance_maintained;
    Alcotest.test_case "delta normalize" `Quick test_delta_normalize;
    Alcotest.test_case "delta counts" `Quick test_delta_counts;
  ]
