module Ast = Recstep.Ast
module Parser = Recstep.Parser
module Analyzer = Recstep.Analyzer
module Interpreter = Recstep.Interpreter
module Frontend = Recstep.Frontend
module Programs = Recstep.Programs
module Provenance = Recstep.Provenance
module Explain = Recstep.Explain
module Relation = Rs_relation.Relation

let check = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Run program text with provenance recording on, return the pieces explain
   needs: the analysis, a rows lookup over the final database, and the tag
   store. *)
let run_with_prov ?options src edges =
  let prov = Provenance.create () in
  let options =
    match options with
    | Some o -> { o with Interpreter.provenance = Some prov }
    | None -> Interpreter.options ~provenance:prov ()
  in
  let result, _ = Frontend.run_text ~options ~edb:[ ("arc", Frontend.edges edges) ] src in
  let an = Analyzer.analyze (Parser.parse src) in
  let rows p =
    Relation.sorted_distinct_rows (result.Interpreter.relation_of p) |> List.map Array.to_list
  in
  (an, rows, prov, result)

let chain = [ (1, 2); (2, 3); (3, 4) ]

let explained = function Explain.Explained n -> n | _ -> Alcotest.fail "expected Explained"

(* --- basic chains --- *)

let test_tc_chain () =
  let an, rows, prov, _ = run_with_prov Programs.tc chain in
  let n = explained (Explain.explain ~prov ~an ~rows "tc" [ 1; 4 ]) in
  check "uses both rules" true (Explain.rules_used n = [ 1; 2 ]);
  check "depth covers the chain" true (Explain.depth n >= 3);
  (* every leaf of the rendering is an EDB arc *)
  let r = Explain.render ~tags:prov n in
  check "mentions base rule" true (contains r "rule 1");
  check "mentions recursive rule" true (contains r "rule 2");
  check "reaches edb" true (contains r "[edb]");
  check "tags rendered" true (contains r "@s");
  (* the same chain renders identically without tags available *)
  let n2 = explained (Explain.explain ~an ~rows "tc" [ 1; 4 ]) in
  check "tag-free search agrees" true (Explain.render n = Explain.render n2)

let test_edb_leaf_and_absent () =
  let an, rows, _, _ = run_with_prov Programs.tc chain in
  (match Explain.explain ~an ~rows "arc" [ 1; 2 ] with
  | Explain.Explained (Explain.N_edb { pred = "arc"; row = [ 1; 2 ] }) -> ()
  | _ -> Alcotest.fail "edb fact should explain as a leaf");
  check "absent fact" true (Explain.explain ~an ~rows "tc" [ 4; 1 ] = Explain.Absent);
  check "absent renders" true
    (contains
       (Explain.outcome_to_string ~pred:"tc" ~row:[ 4; 1 ] Explain.Absent)
       "not in the database")

let test_sg_chain () =
  (* sg needs a sibling structure: 0 -> {1, 2}, 1 -> 3, 2 -> 4 *)
  let an, rows, prov, _ = run_with_prov Programs.sg [ (0, 1); (0, 2); (1, 3); (2, 4) ] in
  check "sg(3,4) present" true (List.mem [ 3; 4 ] (rows "sg"));
  let n = explained (Explain.explain ~prov ~an ~rows "sg" [ 3; 4 ]) in
  check "recursive sg rule on chain" true (List.mem 2 (Explain.rules_used n));
  check "comparison rendered somewhere" true
    (contains (Explain.render n) "[1 != 2]")

let test_negation_chain () =
  let an, rows, prov, _ = run_with_prov Programs.ntc [ (1, 2); (2, 3) ] in
  (* ntc: pairs of nodes not connected by tc *)
  let pick = List.hd (rows "ntc") in
  let n = explained (Explain.explain ~prov ~an ~rows "ntc" pick) in
  check "absence leaf rendered" true (contains (Explain.render n) "[absent]")

let test_aggregate_witness () =
  (* cc propagates MIN labels; the min witness must be recursively explained *)
  let an, rows, prov, _ = run_with_prov Programs.cc [ (1, 2); (2, 3); (5, 3) ] in
  let n = explained (Explain.explain ~prov ~an ~rows "cc3" [ 3; 1 ]) in
  (match n with
  | Explain.N_rule { agg = Some label; _ } ->
      check "witness label" true (contains label "MIN witness")
  | _ -> Alcotest.fail "aggregate head should explain through a rule");
  check "witness chain reaches edb" true (contains (Explain.render n) "[edb]")

(* --- provenance store behavior --- *)

let test_full_coverage () =
  let _, rows, prov, _ = run_with_prov Programs.tc chain in
  List.iter
    (fun row ->
      check "every tc row tagged" true (Provenance.find prov ~pred:"tc" row <> None))
    (rows "tc");
  check "recorded counter" true (Provenance.recorded prov = List.length (rows "tc"));
  check "nothing skipped at sample 1" true (Provenance.skipped prov = 0)

let test_outputs_identical_with_provenance () =
  let run opts =
    let result, _ = Frontend.run_text ~options:opts ~edb:[ ("arc", Frontend.edges chain) ] Programs.tc in
    List.map
      (fun (p, r) -> (p, Relation.sorted_distinct_rows r))
      result.Interpreter.outputs
  in
  let off = run (Interpreter.options ()) in
  let on = run (Interpreter.options ~provenance:(Provenance.create ()) ()) in
  check "provenance-on output byte-identical" true (off = on)

let test_sampling_deterministic () =
  let tagged_rows sample =
    let prov = Provenance.create ~sample () in
    let options = Interpreter.options ~provenance:prov () in
    let result, _ = Frontend.run_text ~options ~edb:[ ("arc", Frontend.edges chain) ] Programs.tc in
    List.filter
      (fun row -> Provenance.find prov ~pred:"tc" row <> None)
      (Relation.sorted_distinct_rows (result.Interpreter.relation_of "tc") |> List.map Array.to_list)
  in
  check "same sampled subset across runs" true (tagged_rows 0.5 = tagged_rows 0.5);
  check "sample 0 tags nothing" true (tagged_rows 0.0 = []);
  (* the sampling decision is per-tuple content, not per-run state *)
  let prov = Provenance.create ~sample:0.5 () in
  List.iter
    (fun row ->
      let a = Provenance.sampled prov ~pred:"tc" row in
      let b = Provenance.sampled prov ~pred:"tc" row in
      check "sampled is pure" true (a = b))
    (List.map Array.to_list (Relation.sorted_distinct_rows (Frontend.edges chain)));
  check "bad sample rejected" true
    (try
       ignore (Provenance.create ~sample:1.5 ());
       false
     with Invalid_argument _ -> true)

(* --- pathological databases --- *)

(* The tag store against a Hashtbl model: packed pairs, arity-1 values,
   and rows that cannot pack (negative attributes, arity 3), through growth
   from the smallest table, retraction, re-recording and growth again past
   the retracted slots. Tags are first-write-wins, a retracted tuple has
   none, and a re-recorded one gets a fresh sequence number. *)
let test_tag_store_model () =
  let prov = Provenance.create () in
  let model = Hashtbl.create 1024 in
  let seq = ref 0 in
  let record pred row ~iteration =
    Provenance.record prov ~pred ~stratum:1 ~iteration row;
    if not (Hashtbl.mem model (pred, row)) then begin
      incr seq;
      Hashtbl.replace model (pred, row) (iteration, !seq)
    end
  in
  let retract pred row =
    Provenance.retract prov ~pred row;
    Hashtbl.remove model (pred, row)
  in
  let rows i = [ ("pair", [ i mod 700; i / 700 ]); ("one", [ i ]); ("neg", [ -i; i ]); ("wide", [ i; i; -i ]) ] in
  for i = 0 to 19_999 do
    List.iter (fun (pred, row) -> record pred row ~iteration:0) (rows i);
    (* duplicates keep their first tag *)
    if i mod 3 = 0 then List.iter (fun (pred, row) -> record pred row ~iteration:9) (rows (i / 2))
  done;
  for i = 0 to 19_999 do
    if i mod 2 = 0 then List.iter (fun (pred, row) -> retract pred row) (rows i)
  done;
  for i = 10_000 to 39_999 do
    List.iter (fun (pred, row) -> record pred row ~iteration:1) (rows i)
  done;
  let wrong = ref 0 in
  for i = 0 to 40_999 do
    List.iter
      (fun (pred, row) ->
        let expected =
          Option.map
            (fun (iteration, seq) ->
              { Provenance.t_stratum = 1; t_iteration = iteration; t_seq = seq })
            (Hashtbl.find_opt model (pred, row))
        in
        if Provenance.find prov ~pred row <> expected then incr wrong)
      (rows i)
  done;
  Alcotest.(check int) "every tag matches the model" 0 !wrong;
  List.iter
    (fun pred ->
      let live = Hashtbl.fold (fun (p, _) _ n -> if p = pred then n + 1 else n) model 0 in
      Alcotest.(check int) (pred ^ " tagged") live (Provenance.tagged prov ~pred))
    [ "pair"; "one"; "neg"; "wide" ];
  Alcotest.(check int) "recorded counts every fresh tag" !seq (Provenance.recorded prov)

let test_no_proof_on_inconsistent_db () =
  let an, rows, _, _ = run_with_prov Programs.tc chain in
  (* inject an underivable tuple, exactly what a fuzz "extra row" looks like *)
  let rows p = if p = "tc" then [ 9; 9 ] :: rows p else rows p in
  check "extra row has no proof" true (Explain.explain ~an ~rows "tc" [ 9; 9 ] = Explain.No_proof)

let test_budget () =
  let edges = List.init 40 (fun i -> (i, i + 1)) in
  let an, rows, _, _ = run_with_prov Programs.tc edges in
  match Explain.explain ~max_steps:3 ~an ~rows "tc" [ 0; 40 ] with
  | Explain.Budget_exceeded n -> check "budget counts steps" true (n >= 3)
  | _ -> Alcotest.fail "expected Budget_exceeded"

let test_json_shape () =
  let an, rows, _, _ = run_with_prov Programs.tc chain in
  let n = explained (Explain.explain ~an ~rows "tc" [ 1; 3 ]) in
  let s = Rs_obs.Json.to_string (Explain.node_json n) in
  check "json has fact" true (contains s "\"fact\"");
  check "json has premises" true (contains s "\"premises\"");
  check "json has edb leaves" true (contains s "\"edb\"")

let suite =
  [
    Alcotest.test_case "tc chain" `Quick test_tc_chain;
    Alcotest.test_case "edb leaf and absent" `Quick test_edb_leaf_and_absent;
    Alcotest.test_case "sg chain" `Quick test_sg_chain;
    Alcotest.test_case "negation chain" `Quick test_negation_chain;
    Alcotest.test_case "aggregate witness" `Quick test_aggregate_witness;
    Alcotest.test_case "full tag coverage" `Quick test_full_coverage;
    Alcotest.test_case "outputs identical with provenance" `Quick test_outputs_identical_with_provenance;
    Alcotest.test_case "sampling deterministic" `Quick test_sampling_deterministic;
    Alcotest.test_case "tag store matches a model" `Quick test_tag_store_model;
    Alcotest.test_case "no proof on inconsistent db" `Quick test_no_proof_on_inconsistent_db;
    Alcotest.test_case "budget" `Quick test_budget;
    Alcotest.test_case "json shape" `Quick test_json_shape;
  ]
