(** RecStep itself, behind the common engine interface. *)

module Ast = Recstep.Ast
module Interpreter = Recstep.Interpreter

let name = "RecStep"

let capabilities =
  {
    Engine_intf.scale_up = true;
    scale_out = false;
    memory_consumption = "low";
    cpu_utilization = "high";
    cpu_efficiency = "high";
    tuning_required = "no";
    mutual_recursion = true;
    nonrecursive_aggregation = true;
    recursive_aggregation = true;
    incremental = true;
  }

let run ~pool ?deadline_vs ?trace ~edb program =
  let options = Interpreter.options ?timeout_vs:deadline_vs ?trace () in
  let result = Interpreter.run ~options ~pool ~edb program in
  Engine_intf.mk_result ~pool ?trace ~iterations:result.Interpreter.iterations
    ~queries:result.Interpreter.queries result.Interpreter.relation_of

(* True IVM (counting + DRed over the semi-naive loop) where the maintenance
   fragment allows, seeded from this engine's own run; aggregates fall back
   to the generic recompute-and-diff path — same contract,
   m_incremental = false. *)
let maintain ~pool ?trace ~edb program =
  let ivm =
    if Recstep.Ivm.supported program then
      let result = run ~pool ?trace ~edb program in
      let snapshot =
        Recstep.Ivm.snapshot
          (List.map
             (fun (n, r) -> (n, List.map Array.to_list (Rs_relation.Relation.to_rows r)))
             edb)
      in
      match
        Recstep.Ivm.create ~edb:snapshot
          ~idb:(Recstep.Ivm.idb_rows program result.Engine_intf.relation_of)
          program
      with
      | ivm -> Some ivm
      | exception Recstep.Ivm.Unsupported _ -> None
    else None
  in
  match ivm with
  | Some ivm ->
      let outs = Engine_intf.output_names program in
      {
        Engine_intf.m_incremental = true;
        m_outputs =
          (fun () ->
            List.map (fun n -> (n, List.map Array.of_list (Recstep.Ivm.rows ivm n))) outs);
        m_apply = (fun d -> Recstep.Ivm.apply ivm d);
      }
  | None -> Engine_intf.maintain_by_recompute run ~pool ?trace ~edb program
