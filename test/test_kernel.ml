(* Compiled rule kernels (Rs_exec.Kernel): fused scan→probe*→project→dedup
   chains for hot recursive rules. Every test runs the same program twice —
   kernels on and kernels off — on fresh pools and asserts the canonical
   output rows are identical; the trace counters then pin which path ran. PBME
   is held off throughout so TC/SG-shaped strata take the relational path
   the kernels accelerate (with PBME on they would collapse to the
   bit-matrix kernels and neither path under test would execute). *)

module Parser = Recstep.Parser
module Interpreter = Recstep.Interpreter
module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace
module Fault = Rs_chaos.Fault
module Inject = Rs_chaos.Inject

let check = Alcotest.(check bool)

let canon rel = List.map Array.to_list (Relation.sorted_distinct_rows rel)

(* One interpreter run on a fresh pool over the EDB relations [rels];
   returns (rows of each output, trace). *)
let run_rels ?oof ~kernels src rels =
  let program = Parser.parse src in
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let options =
    Interpreter.options ?oof ~pbme:false ~compiled_kernels:kernels ~trace ()
  in
  let result = Interpreter.run ~options ~pool ~edb:rels program in
  let outs =
    List.map
      (fun name -> (name, canon (result.Interpreter.relation_of name)))
      program.Recstep.Ast.outputs
  in
  (outs, trace)

let run_one ~kernels src edb =
  run_rels ~kernels src
    (List.map
       (fun (name, arity, rows) ->
         (name, Relation.of_rows ~name arity (List.map Array.of_list rows)))
       edb)

(* Both toggle positions must produce byte-identical canonical outputs. *)
let run_both src edb =
  let on, tr_on = run_one ~kernels:true src edb in
  let off, tr_off = run_one ~kernels:false src edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "kernels on = kernels off" off on;
  (tr_on, tr_off)

let c tr name = Trace.counter tr name

(* --- per-arity closures vs the interpreted path --------------------------- *)

let tc_src =
  ".input e0\np0(x, y) :- e0(x, y).\np0(x, y) :- p0(x, z), e0(z, y).\n.output p0"

let tc_edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 0 ] ]) ]

let test_arity2 () =
  let tr_on, tr_off = run_both tc_src tc_edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0);
  check "probes fused" true (c tr_on "kernel.fused_probes" > 0);
  check "rows emitted" true (c tr_on "kernel.emitted" > 0);
  check "no fallback" true (c tr_on "kernel.fallbacks" = 0);
  check "toggle off compiles nothing" true (c tr_off "kernel.compiled_rules" = 0);
  check "toggle off executes nothing" true (c tr_off "kernel.execs" = 0)

let test_arity1 () =
  (* unary head: reachability from a source set *)
  let src =
    ".input s\n.input e0\n\
     r(x) :- s(x).\n\
     r(y) :- r(x), e0(x, y).\n\
     .output r"
  in
  let edb =
    [ ("s", 1, [ [ 0 ] ]); ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 5; 6 ] ]) ]
  in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0)

let test_arity3 () =
  let src =
    ".input e1\n\
     p0(x, y, z) :- e1(x, y, z).\n\
     p0(x, y, w) :- p0(x, y, z), e1(z, w, w).\n\
     .output p0"
  in
  let edb = [ ("e1", 3, [ [ 0; 1; 2 ]; [ 1; 2; 2 ]; [ 2; 0; 0 ]; [ 2; 3; 3 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0)

(* A delta plan with no join at all — pure project over the Δ-scan — takes
   the unary kernel shape. *)
let test_unary_shape () =
  let src =
    ".input e0\n\
     q(x, y) :- e0(x, y).\n\
     p(y, x) :- q(x, y).\n\
     q(x, y) :- p(x, z), e0(z, y).\n\
     .output p\n.output q"
  in
  let edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0)

(* Local predicates ride inside the fused closure: probe-side, build-side
   and cross-side comparisons must all be honored. *)
let test_filters_fused () =
  let src =
    ".input e0\n\
     p0(x, y) :- e0(x, y).\n\
     p0(x, y) :- p0(x, z), e0(z, y), y != x, y <= 6.\n\
     .output p0"
  in
  let edb =
    [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 7 ]; [ 2; 0 ]; [ 3; 4 ] ]) ]
  in
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0)

(* --- probe chains: k-way bodies ------------------------------------------ *)

(* Every chain test: same answer both ways, every rule compiled, nothing
   refused or degraded. *)
let run_chain src edb =
  let tr_on, _ = run_both src edb in
  check "rules compiled" true (c tr_on "kernel.compiled_rules" > 0);
  check "no rule refused" true (c tr_on "kernel.fallback_rules" = 0);
  check "no execution degraded" true (c tr_on "kernel.fallbacks" = 0);
  check "kernels executed" true (c tr_on "kernel.execs" > 0);
  tr_on

let graph_edb name =
  (name, 2, [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 3 ]; [ 3; 4 ]; [ 3; 5 ]; [ 4; 0 ]; [ 5; 5 ] ])

let test_chain_sg () =
  (* sg(a, b) is the middle atom: the chain scans Δ-sg and probes both arc
     occurrences from it *)
  ignore (run_chain Recstep.Programs.sg [ graph_edb "arc" ])

let test_chain_andersen () =
  (* the load and store rules join pointsTo with itself: each has two delta
     plans, one per pointsTo occurrence, each probing the full table *)
  let edb =
    [
      ("addressOf", 2, [ [ 0; 10 ]; [ 1; 11 ]; [ 2; 12 ]; [ 10; 13 ]; [ 11; 14 ]; [ 12; 10 ] ]);
      ("assign", 2, [ [ 3; 0 ]; [ 4; 3 ]; [ 5; 1 ] ]);
      ("load", 2, [ [ 6; 0 ]; [ 7; 4 ]; [ 8; 2 ] ]);
      ("store", 2, [ [ 1; 2 ]; [ 4; 5 ]; [ 10; 6 ] ]);
    ]
  in
  let tr = run_chain Recstep.Programs.andersen edb in
  check "load/store delta plans ran fused" true (c tr "kernel.emitted" > 0)

let test_chain_shared_variable () =
  (* y is shared by all three atoms and the Δ-atom is the last one. The
     planner joins r.y with e0.y only, yet e1 binds both y (through
     e1.y = e0.y = r.y) and w, so the chain probes e1 first on (y, w) *)
  let src =
    ".input e0\n.input e1\n\
     r(x, y) :- e0(x, y).\n\
     r(x, w) :- e0(y, x), e1(y, w), r(y, w).\n\
     .output r"
  in
  let e1 = ("e1", 2, [ [ 0; 1 ]; [ 1; 3 ]; [ 3; 4 ]; [ 3; 9 ]; [ 5; 5 ] ]) in
  let tr = run_chain src [ graph_edb "e0"; e1 ] in
  check "the chain derived tuples" true (c tr "kernel.emitted" > 0)

let test_chain_late_comparison () =
  (* x != y and y <= 4 can only run once the final probe binds y *)
  let src =
    ".input e0\n\
     p(x, y) :- e0(x, y).\n\
     p(x, y) :- p(x, z), e0(z, w), e0(w, y), x != y, y <= 4.\n\
     .output p"
  in
  ignore (run_chain src [ graph_edb "e0" ])

let test_chain_four_atoms () =
  let src =
    ".input e0\n.input e1\n\
     p(x, y) :- e0(x, y).\n\
     p(x, y) :- e0(x, a), p(a, b), e1(b, c), e0(c, y).\n\
     .output p"
  in
  ignore (run_chain src [ graph_edb "e0"; ("e1", 2, [ [ 1; 1 ]; [ 3; 4 ]; [ 4; 3 ]; [ 5; 0 ] ]) ])

let test_chain_dedup_counters () =
  (* the kernel's FAST-DEDUP claims are the interpreted bag's rows, so
     dedup.probes / dedup.hits read the same on both paths; each run is a
     "kernel" span *)
  let tr_on, tr_off = run_both Recstep.Programs.sg [ graph_edb "arc" ] in
  Alcotest.(check int) "dedup.probes on = off" (c tr_off "dedup.probes") (c tr_on "dedup.probes");
  Alcotest.(check int) "dedup.hits on = off" (c tr_off "dedup.hits") (c tr_on "dedup.hits");
  let kernel_spans tr =
    List.length (List.filter (fun s -> s.Trace.sp_kind = "kernel") (Trace.spans tr))
  in
  Alcotest.(check int) "one kernel span per execution" (c tr_on "kernel.execs") (kernel_spans tr_on);
  Alcotest.(check int) "no kernel span with kernels off" 0 (kernel_spans tr_off)

(* Hand-built plan, kernel vs executor: join keys that equate two columns
   of one atom (never emitted by the planner, which turns repeated
   variables into local filters) put both columns in one class, and the
   kernel must check that same-class equality — on the Δ-atom at stage 0
   and on a probed atom whose class the chain has not bound before it. *)
let test_chain_same_class_columns () =
  let module Catalog = Rs_exec.Catalog in
  let module Executor = Rs_exec.Executor in
  let module Plan = Rs_exec.Plan in
  let module Dedup = Rs_relation.Dedup in
  let catalog = Catalog.create () in
  let table name arity rows =
    Catalog.register catalog name (Relation.of_rows ~name arity (List.map Array.of_list rows))
  in
  table "d" 2 [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 4 ]; [ 5; 5 ] ];
  table "a" 3 [ [ 1; 7; 7 ]; [ 1; 8; 9 ]; [ 2; 6; 6 ]; [ 3; 7; 7 ]; [ 5; 9; 9 ] ];
  table "b" 2 [ [ 1; 7 ]; [ 7; 0 ]; [ 8; 1 ]; [ 9; 2 ]; [ 6; 3 ] ];
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let ex = Executor.create pool catalog in
  (* frame: d = 0..1, a = 2..4, b = 5..6; d.0 = a.0, d.0 = b.0 = d.1,
     a.1 = b'.0 = a.2 through a second b occurrence at 7..8 *)
  let da = Plan.join2 (Plan.Scan "d") [| 0 |] (Plan.Scan "a") [| 0 |] in
  let dab = Plan.join2 da [| 0; 1 |] (Plan.Scan "b") [| 0; 0 |] in
  let plan =
    Plan.join2 dab [| 3; 4 |] (Plan.Scan "b") [| 0; 0 |]
      ~out:[| Rs_exec.Expr.Col 0; Rs_exec.Expr.Col 3; Rs_exec.Expr.Col 8 |]
  in
  let expected = canon (Executor.run_query ex plan) in
  let k =
    match Rs_exec.Kernel.compile ex ~probe_table:"d" plan with
    | Ok k -> k
    | Error reason -> Alcotest.failf "chain refused: %s" reason
  in
  let dedup = Dedup.create Dedup.Fast 3 and out = Relation.create 3 in
  let emitted = Rs_exec.Kernel.run ex k ~dedup ~out in
  Dedup.release dedup;
  Alcotest.(check (list (list int))) "kernel = executor" expected (canon out);
  Alcotest.(check int) "emitted = distinct rows" (List.length expected) emitted;
  check "the plan has answers" true (expected <> [])

let test_fallback_cross_product () =
  (* s(w) shares no variable with the rest of the body: the chain cannot
     reach it from the Δ-atom, so the IDB stays interpreted *)
  let src =
    ".input e0\n.input s\n\
     p(x, y) :- e0(x, y).\n\
     p(x, y) :- p(x, z), e0(z, y), s(w).\n\
     .output p"
  in
  let tr_on, _ = run_both src [ graph_edb "e0"; ("s", 1, [ [ 9 ] ]) ] in
  check "cross product refused" true (c tr_on "kernel.fallback_rules" > 0);
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0)

(* --- the cost-model gate and unsupported shapes --------------------------- *)

let test_fallback_wide_head () =
  (* head arity 4 > Cost.kernel_max_arity: gate says "arity", every rule
     stays interpreted, answers unchanged *)
  let src =
    ".input e3\n\
     p0(x, y, z, w) :- e3(x, y, z, w).\n\
     p0(x, y, z, w) :- p0(x, y, z, u), e3(u, y, z, w).\n\
     .output p0"
  in
  let edb = [ ("e3", 4, [ [ 0; 1; 1; 2 ]; [ 2; 1; 1; 3 ]; [ 3; 1; 1; 0 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "gate refused" true (c tr_on "kernel.fallback_rules" > 0);
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0);
  check "nothing executed" true (c tr_on "kernel.execs" = 0)

let test_fallback_negation () =
  (* a negated atom in the recursive rule is outside the fused shape: the
     whole IDB stays on the interpreted path (all-or-nothing) *)
  let src =
    ".input e0\n.input bad\n\
     p0(x, y) :- e0(x, y).\n\
     p0(x, y) :- p0(x, z), e0(z, y), !bad(x, y).\n\
     .output p0"
  in
  let edb =
    [
      ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]);
      ("bad", 2, [ [ 0; 3 ] ]);
    ]
  in
  let tr_on, _ = run_both src edb in
  check "compile refused" true (c tr_on "kernel.fallback_rules" > 0);
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0)

let test_cold_rules_not_compiled () =
  (* a non-recursive program has no delta plans: the kernel path never
     engages and charges no counters at all *)
  let src = ".input e0\np0(y, x) :- e0(x, y).\n.output p0" in
  let edb = [ ("e0", 2, [ [ 0; 1 ]; [ 1; 2 ] ]) ] in
  let tr_on, _ = run_both src edb in
  check "nothing compiled" true (c tr_on "kernel.compiled_rules" = 0);
  check "nothing refused" true (c tr_on "kernel.fallback_rules" = 0);
  check "nothing executed" true (c tr_on "kernel.execs" = 0)

(* --- chaos: Kernel_fail is recovered, never a wrong answer ---------------- *)

let run_with_plan plan_str src edb =
  Inject.with_plan
    (Fault.plan_of_string ~seed:7 plan_str)
    (fun () -> run_one ~kernels:true src edb)

let test_chaos_compile_fault () =
  (* every compile probe fires: no kernel compiles, the whole run is
     interpreted, and the answer matches the clean kernels-off run *)
  let clean, _ = run_one ~kernels:false tc_src tc_edb in
  let faulted, tr = run_with_plan "kernel:p=1" tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "compile fault never changes the answer" clean faulted;
  check "nothing compiled" true (c tr "kernel.compiled_rules" = 0);
  check "refusals counted" true (c tr "kernel.fallback_rules" > 0);
  check "nothing executed" true (c tr "kernel.execs" = 0)

let test_chaos_exec_fault () =
  (* after=1 lets the single compile probe through, limit=1 degrades exactly
     one kernel execution: that round re-evaluates interpreted, later rounds
     run the kernel again, and the answer still matches the clean run *)
  let clean, _ = run_one ~kernels:false tc_src tc_edb in
  let faulted, tr = run_with_plan "kernel:p=1,after=1,limit=1" tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "exec fault never changes the answer" clean faulted;
  check "rules compiled" true (c tr "kernel.compiled_rules" > 0);
  check "one degraded execution" true (c tr "kernel.fallbacks" = 1);
  check "later rounds still fused" true (c tr "kernel.execs" > 0)

let test_chaos_persistent_exec_fault () =
  (* unbounded exec faults: every round degrades to the interpreted path;
     still the right answer, just slower *)
  let clean, _ = run_one ~kernels:false tc_src tc_edb in
  let faulted, tr = run_with_plan "kernel:p=1,after=1" tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "persistent exec fault never changes the answer" clean faulted;
  check "every round degraded" true (c tr "kernel.fallbacks" > 0);
  check "no fused execution completed" true (c tr "kernel.execs" = 0)

(* --- FAST-DEDUP sizing: small tables that grow inside kernel rounds -------- *)

(* Non-linear TC over a hub: ten sources into vertex 100, which fans out to
   a thousand sinks. Round 1 scans 1010 Δ rows in each of its two delta
   plans but emits 10,000 pairs, so the kernel round's table, sized from
   its live Δ rows, must grow by rehashing. Non-linear, so PBME never
   takes the stratum. *)
let hub_src = ".input arc\ntc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), tc(z, y).\n.output tc"

let hub_rows =
  List.init 10 (fun i -> [| i; 100 |]) @ List.init 1000 (fun j -> [| 100; 200 + j |])

let hub_edb () = [ ("arc", Relation.of_rows ~name:"arc" 2 hub_rows) ]

type ending = Rows of (string * int list list) list | Typed of Fault.cls * string

(* The hub run under "dedup:p=1,after=[after],limit=1", through the engine
   guard: one dedup probe fails, at whichever point it lands. *)
let hub_faulted ~kernels ~after =
  let plan = Printf.sprintf "dedup:p=1,after=%d,limit=1" after in
  match
    Rs_engines.Engine_intf.guard (fun () ->
        Inject.with_plan (Fault.plan_of_string ~seed:7 plan) (fun () ->
            run_rels ~kernels hub_src (hub_edb ())))
  with
  | Rs_engines.Engine_intf.Done (outs, _) -> Rows outs
  | Rs_engines.Engine_intf.Fault { cls; point } -> Typed (cls, point)
  | _ -> Alcotest.fail "hub run ended neither done nor with a typed fault"

(* The first [after] at which the single fault lands on a rehash. *)
let rehash_probe ~kernels =
  let rec go after =
    if after > 8 then None
    else
      match hub_faulted ~kernels ~after with
      | Typed (_, "dedup.rehash") -> Some after
      | _ -> go (after + 1)
  in
  go 0

let test_sizing_kernel_round_rehashes () =
  (* iteration 0 deduplicates the arc scan, whose estimate is exact, so its
     table never grows: every rehash of the kernels-on run, and the fault
     point below, belongs to a kernel round *)
  let tr_on, _ = run_both hub_src [ ("arc", 2, List.map Array.to_list hub_rows) ] in
  check "kernel round rehashed" true (c tr_on "dedup.rehashes" > 0);
  check "rehash fault reachable from a kernel round" true (rehash_probe ~kernels:true <> None)

let test_sizing_rehash_fault_is_typed () =
  (* every single-fault position ends as the right rows or a typed fault *)
  let clean, _ = run_rels ~kernels:false hub_src (hub_edb ()) in
  for after = 0 to 8 do
    match hub_faulted ~kernels:true ~after with
    | Rows outs ->
        Alcotest.(check (list (pair string (list (list int)))))
          "a fault that missed never changes the answer" clean outs
    | Typed (cls, _) -> check "typed as a dedup fault" true (cls = Fault.Dedup_fail)
  done

(* The same rehash fault through the service: the retry recomputes the
   right answer (one fault) or the query ends typed (every probe from the
   rehash on fails), and the tracker is back at its baseline either way. *)
let test_sizing_rehash_fault_served () =
  let module Service = Rs_service.Service in
  let module Memtrack = Rs_storage.Memtrack in
  let after =
    match rehash_probe ~kernels:true with Some a -> a | None -> Alcotest.fail "no rehash probe"
  in
  let clean, _ = run_rels ~kernels:false hub_src (hub_edb ()) in
  let serve plan =
    Memtrack.hard_reset ();
    Memtrack.set_budget None;
    let store = Rs_service.Edb_store.create () in
    let arc = Relation.of_rows ~name:"arc" 2 hub_rows in
    Relation.account arc;
    Rs_service.Edb_store.define store "g" [ ("arc", arc) ];
    let baseline = Memtrack.live () in
    let sub =
      Service.Submit (Service.submission ~tenant:"t" ~edb:"g" (Parser.parse hub_src))
    in
    let report =
      Inject.with_plan (Fault.plan_of_string ~seed:7 plan) (fun () ->
          Service.run ~config:(Service.config ~workers:4 ~seed:1 ()) ~edb:store [ sub ])
    in
    Alcotest.(check int) "live bytes back to baseline" baseline (Memtrack.live ());
    List.hd report.Service.completions
  in
  let as_lists value = List.map (fun (n, rows) -> (n, List.map Array.to_list rows)) value in
  let once = serve (Printf.sprintf "dedup:p=1,after=%d,limit=1" after) in
  (match once.Service.c_outcome with
  | Service.Done value ->
      Alcotest.(check (list (pair string (list (list int)))))
        "retried answer is right" clean (as_lists value)
  | o -> Alcotest.fail ("expected done after a retry, got " ^ Service.outcome_label o));
  check "the fault was retried" true (once.Service.c_retries >= 1);
  let always = serve (Printf.sprintf "dedup:p=1,after=%d" after) in
  match always.Service.c_outcome with
  | Service.Fault { cls = Fault.Dedup_fail; _ } -> ()
  | Service.Done value ->
      check "served only from a degraded rung" true (always.Service.c_degraded <> None);
      Alcotest.(check (list (pair string (list (list int)))))
        "degraded answer is right" clean (as_lists value)
  | o -> Alcotest.fail ("expected a typed fault, got " ^ Service.outcome_label o)

(* Andersen and CSPA on small generated inputs: kernels on = off, with
   fresh statistics and with none (OOF-NA). Stale statistics only ever
   lower the estimate that caps a table's size, so OOF-NA never rehashes
   less. Non-linear TC on a small random graph shows the cap binding: the
   interpreted rounds' bags would size their tables large enough, the stale
   estimates do not. *)
let test_sizing_program_analysis () =
  let run ?oof ~kernels src rels = run_rels ?oof ~kernels src (rels ()) in
  let same what a b = Alcotest.(check (list (pair string (list (list int))))) what a b in
  List.iter
    (fun (name, src, rels) ->
      let on, tr_on = run ~kernels:true src rels and off, tr_off = run ~kernels:false src rels in
      let on_na, tr_on_na = run ~oof:Interpreter.Oof_off ~kernels:true src rels
      and off_na, tr_off_na = run ~oof:Interpreter.Oof_off ~kernels:false src rels in
      same (name ^ ": kernels on = off") off on;
      same (name ^ ": kernels on = off under OOF-NA") off on_na;
      same (name ^ ": interpreted under OOF-NA") off off_na;
      check (name ^ ": compiled") true (c tr_on "kernel.compiled_rules" > 0);
      check (name ^ ": OOF-NA never sizes larger (kernels)") true
        (c tr_on_na "dedup.rehashes" >= c tr_on "dedup.rehashes");
      check (name ^ ": OOF-NA never sizes larger (interpreted)") true
        (c tr_off_na "dedup.rehashes" >= c tr_off "dedup.rehashes"))
    [
      ( "andersen", Recstep.Programs.andersen,
        fun () -> Rs_datagen.Prog_analysis.andersen ~seed:3 ~nvars:400 );
      ( "cspa", Recstep.Programs.cspa,
        fun () -> Rs_datagen.Prog_analysis.cspa_input ~seed:3 ~scale:1 "httpd" );
    ];
  let gnp () = [ ("arc", Rs_datagen.Graphs.gnp ~seed:3 ~n:60 ~p:0.04) ] in
  let fresh, tr_fresh = run ~kernels:false hub_src gnp
  and stale, tr_stale = run ~oof:Interpreter.Oof_off ~kernels:false hub_src gnp in
  same "non-linear TC under OOF-NA" fresh stale;
  check "stale estimates undersize the tables" true
    (c tr_stale "dedup.rehashes" > c tr_fresh "dedup.rehashes")

(* --- provenance × kernels: all-or-nothing tagging -------------------------- *)

(* Tags are recorded at the single absorption point both paths share, so a
   per-IDB compile decision (or a mid-fixpoint kernel fault bouncing rounds
   between the fused and interpreted paths) must never yield a relation
   where only the kernel-emitted tuples carry tags. *)
let run_prov ?plan ~kernels src edb =
  let program = Parser.parse src in
  let body () =
    let pool = Pool.create ~workers:4 () in
    Pool.begin_run pool;
    let edb =
      List.map
        (fun (name, arity, rows) ->
          (name, Relation.of_rows ~name arity (List.map Array.of_list rows)))
        edb
    in
    let prov = Recstep.Provenance.create () in
    let options =
      Interpreter.options ~pbme:false ~compiled_kernels:kernels ~provenance:prov ()
    in
    let result = Interpreter.run ~options ~pool ~edb program in
    let outs =
      List.map
        (fun name -> (name, canon (result.Interpreter.relation_of name)))
        program.Recstep.Ast.outputs
    in
    (outs, prov)
  in
  match plan with
  | None -> body ()
  | Some p -> Inject.with_plan (Fault.plan_of_string ~seed:7 p) body

let assert_full_coverage ~what outs prov =
  List.iter
    (fun (name, rows) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: every %s tuple tagged" what name)
        (List.length rows)
        (Recstep.Provenance.tagged prov ~pred:name);
      List.iter
        (fun row ->
          check
            (Printf.sprintf "%s: tag present for %s row" what name)
            true
            (Recstep.Provenance.find prov ~pred:name row <> None))
        rows)
    outs

let test_provenance_all_or_nothing () =
  let on, prov_on = run_prov ~kernels:true tc_src tc_edb in
  let off, prov_off = run_prov ~kernels:false tc_src tc_edb in
  Alcotest.(check (list (pair string (list (list int)))))
    "kernel and interpreted outputs identical under provenance" off on;
  assert_full_coverage ~what:"kernels on" on prov_on;
  assert_full_coverage ~what:"kernels off" off prov_off

let test_provenance_kernel_chaos () =
  (* one exec-time kernel fault: that round re-runs interpreted, later
     rounds run fused — the relation crosses both emit paths mid-fixpoint
     and must still end up fully tagged with the same rows *)
  let clean, _ = run_prov ~kernels:false tc_src tc_edb in
  let faulted, prov =
    run_prov ~plan:"kernel:p=1,after=1,limit=1" ~kernels:true tc_src tc_edb
  in
  Alcotest.(check (list (pair string (list (list int)))))
    "kernel fault never changes the answer under provenance" clean faulted;
  assert_full_coverage ~what:"faulted" faulted prov

let suite =
  [
    Alcotest.test_case "arity-2 kernel matches interpreted" `Quick test_arity2;
    Alcotest.test_case "arity-1 kernel matches interpreted" `Quick test_arity1;
    Alcotest.test_case "arity-3 kernel matches interpreted" `Quick test_arity3;
    Alcotest.test_case "unary (no-join) kernel shape" `Quick test_unary_shape;
    Alcotest.test_case "local predicates fused into the closure" `Quick test_filters_fused;
    Alcotest.test_case "chain: SG with the delta in the middle" `Quick test_chain_sg;
    Alcotest.test_case "chain: Andersen load/store self-joins" `Quick test_chain_andersen;
    Alcotest.test_case "chain: variable shared by three atoms" `Quick
      test_chain_shared_variable;
    Alcotest.test_case "chain: comparison bound by the last stage" `Quick
      test_chain_late_comparison;
    Alcotest.test_case "chain: four-atom body" `Quick test_chain_four_atoms;
    Alcotest.test_case "chain: dedup counters and kernel spans" `Quick
      test_chain_dedup_counters;
    Alcotest.test_case "chain: same-class columns of one atom" `Quick
      test_chain_same_class_columns;
    Alcotest.test_case "gate: cross product stays interpreted" `Quick
      test_fallback_cross_product;
    Alcotest.test_case "gate: wide head stays interpreted" `Quick test_fallback_wide_head;
    Alcotest.test_case "gate: negation stays interpreted" `Quick test_fallback_negation;
    Alcotest.test_case "cold rules never touch the kernel path" `Quick
      test_cold_rules_not_compiled;
    Alcotest.test_case "chaos: compile fault falls back" `Quick test_chaos_compile_fault;
    Alcotest.test_case "chaos: one exec fault degrades one round" `Quick
      test_chaos_exec_fault;
    Alcotest.test_case "chaos: persistent exec faults stay correct" `Quick
      test_chaos_persistent_exec_fault;
    Alcotest.test_case "sizing: a kernel round grows its table" `Quick
      test_sizing_kernel_round_rehashes;
    Alcotest.test_case "sizing: rehash fault is typed, never wrong rows" `Quick
      test_sizing_rehash_fault_is_typed;
    Alcotest.test_case "sizing: served rehash fault, memory back to baseline" `Quick
      test_sizing_rehash_fault_served;
    Alcotest.test_case "sizing: Andersen and CSPA on = off, OOF-NA capped" `Quick
      test_sizing_program_analysis;
    Alcotest.test_case "provenance: kernel and interpreted tag all-or-nothing"
      `Quick test_provenance_all_or_nothing;
    Alcotest.test_case "provenance: kernel chaos keeps full tag coverage" `Quick
      test_provenance_kernel_chaos;
  ]
