(** Compiled rule kernels vs the interpreted fixpoint.

    The interpreter's relational loop pays a fixed per-query dispatch
    overhead and materializes an intermediate bag per delta plan per
    iteration; the compiled kernels ({!Rs_exec.Kernel}) fuse
    join→project→dedup into one closure and skip both. This experiment runs
    the same recursive workloads with [compiled_kernels] on and off (PBME
    held off, so the relational path under test actually executes) on fresh
    pools and compares {e simulated} runtimes. TC's delta plan is a probe
    chain of length 1, so its speedup is the headline number; SG's
    recursive rule is a three-way join with the Δ-atom in the middle, a
    chain of length 2 that probes both [arc] occurrences from the Δ-scan.
    Outputs must be byte-identical on both sides of every row. Each
    side's time is the median of 5 alternating repeats, each from a
    compacted heap. Results land in [BENCH_kernel.json]. *)

module Interpreter = Recstep.Interpreter
module Programs = Recstep.Programs
module Relation = Rs_relation.Relation
module Graphs = Rs_datagen.Graphs
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace
module Json = Rs_obs.Json

let canon rel = List.map Array.to_list (Relation.sorted_distinct_rows rel)

(* Layered random DAG (forward edges only): the closure is deep — ~n
   semi-naive iterations — which is precisely the regime the kernels
   target; a dense or shallow graph would hide the per-iteration overhead
   they remove. Same shape as the IVM experiment's generator. *)
let dag ~seed ~n ~deg =
  let state = ref seed in
  let rand m =
    state := (!state * 48271) mod 0x7fffffff;
    !state mod m
  in
  let rows = ref [] in
  for u = 0 to n - 2 do
    for _ = 1 to deg do
      let v = u + 1 + rand (min 3 (n - 1 - u)) in
      rows := [| u; v |] :: !rows
    done
  done;
  Relation.of_rows ~name:"arc" 2 !rows

(* Each side starts from a compacted heap, so a major collection of the
   previous side's garbage does not land inside this side's few
   milliseconds of simulated time. *)
let run_side ~kernels program arc =
  Gc.compact ();
  let pool = Pool.create ~workers:8 () in
  Pool.begin_run pool;
  let trace = Trace.create ~now:(fun () -> Pool.vtime_now pool) () in
  let options =
    Interpreter.options ~pbme:false ~compiled_kernels:kernels ~trace ()
  in
  let edb = [ ("arc", Relation.copy arc) ] in
  let result = Interpreter.run ~options ~pool ~edb program in
  (* read the clock before sorting the outputs for the identity check,
     which is the harness's work, not the run's *)
  let vtime = (Pool.stats pool).Pool.vtime in
  let outputs =
    List.map
      (fun name -> (name, canon (result.Interpreter.relation_of name)))
      (List.sort compare program.Recstep.Ast.outputs)
  in
  (outputs, vtime, trace)

(* Sides alternate, kernels on then off, [repeats] times; each side's
   simulated time is the median of its repeats. *)
let repeats = 5

let workload ~name ~src ~arc =
  let program = Programs.parsed src in
  let runs =
    List.init repeats (fun _ ->
        let on = run_side ~kernels:true program arc in
        (on, run_side ~kernels:false program arc))
  in
  let (on_out, _, on_tr), _ = List.hd runs in
  let identical =
    List.for_all (fun ((on, _, _), (off, _, _)) -> on = on_out && off = on_out) runs
  in
  let on_s = Measure.median (List.map (fun ((_, s, _), _) -> s) runs) in
  let off_s = Measure.median (List.map (fun (_, (_, s, _)) -> s) runs) in
  let ratio = if on_s > 0. then off_s /. on_s else 0. in
  let compiled = Trace.counter on_tr "kernel.compiled_rules" in
  let row =
    [
      name;
      string_of_int (Relation.nrows arc);
      string_of_int compiled;
      Printf.sprintf "%.4f" off_s;
      Printf.sprintf "%.4f" on_s;
      Printf.sprintf "%.1fx" ratio;
      (if identical then "yes" else "NO");
    ]
  in
  let json =
    Json.Obj
      [
        ("workload", Json.String name);
        ("edges", Json.Int (Relation.nrows arc));
        ("compiled_rules", Json.Int compiled);
        ("fallback_rules", Json.Int (Trace.counter on_tr "kernel.fallback_rules"));
        ("fused_probes", Json.Int (Trace.counter on_tr "kernel.fused_probes"));
        ("emitted", Json.Int (Trace.counter on_tr "kernel.emitted"));
        ("kernels_off_s", Json.Float off_s);
        ("kernels_on_s", Json.Float on_s);
        ("ratio", Json.Float ratio);
        ("identical", Json.Bool identical);
      ]
  in
  (row, json, (name, ratio, identical, compiled))

let exp ~scale =
  Report.section ~id:"kernel"
    ~title:"EXTRA: compiled rule kernels vs interpreted fixpoint";
  let tc_arc = dag ~seed:11 ~n:(192 * scale) ~deg:2 in
  let sg_arc = Graphs.gnp ~seed:3 ~n:(48 * scale) ~p:0.06 in
  let results =
    [
      workload ~name:"tc" ~src:Programs.tc ~arc:tc_arc;
      workload ~name:"sg" ~src:Programs.sg ~arc:sg_arc;
    ]
  in
  Rs_util.Table_printer.print
    ~header:
      [ "workload"; "edges"; "compiled"; "interp (s)"; "kernels (s)"; "speedup";
        "identical" ]
    (List.map (fun (row, _, _) -> row) results);
  List.iter
    (fun (_, _, (name, ratio, identical, compiled)) ->
      Report.note
        (Printf.sprintf "(%s: %d compiled rules, %.1fx, outputs %s)" name compiled
           ratio
           (if identical then "identical" else "DIVERGED")))
    results;
  let json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("scale", Json.Int scale);
        ("repeats", Json.Int repeats);
        ("workloads", Json.List (List.map (fun (_, j, _) -> j) results));
      ]
  in
  let oc = open_out "BENCH_kernel.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Report.note "(wrote BENCH_kernel.json)"

let run ~scale = exp ~scale
