module Ast = Recstep.Ast
module Ivm = Recstep.Ivm
module Naive = Recstep.Naive
module Delta = Rs_relation.Delta
module Relation = Rs_relation.Relation
module Memtrack = Rs_storage.Memtrack
module Rng = Rs_util.Rng
module Json = Rs_obs.Json

type divergence = {
  div_seed : int;
  div_version : int;  (* 0 = bootstrap, k = after the k-th delta *)
  div_pred : string;
  div_missing : int list list;
  div_extra : int list list;
}

type report = {
  seed : int;
  cases : int;
  invalid : int;
  versions : int;  (* deltas applied and checked across all cases *)
  ops : int;  (* total insert/retract operations streamed *)
  divergences : divergence list;
}

(* --- delta-stream generation -------------------------------------------- *)

(* Arities as the differ recovers them: a [.input] without an explicit
   arity parses as 0, the analyzer infers the real one from the rules. *)
let input_arities (program : Ast.program) =
  let an = lazy (Recstep.Analyzer.analyze program) in
  List.map
    (fun (name, arity) ->
      (name, if arity > 0 then arity else Recstep.Analyzer.arity (Lazy.force an) name))
    program.Ast.inputs

(* A random delta against the mirror's current contents: mostly inserts of
   small-domain rows, retracts split between rows that exist (real
   deletions) and rows that may not (the no-op edge case), plus an
   occasional retract-then-reinsert of a held row inside one delta — the
   flip-flop [normalize] must cancel. The mirror is updated set-level, in
   op order, exactly like [Edb_store.apply]. *)
let gen_delta rng arities mirror =
  let n_ops = 1 + Rng.int rng 6 in
  let ops = ref [] in
  for _ = 1 to n_ops do
    let rel, arity = List.nth arities (Rng.int rng (List.length arities)) in
    let tbl = Hashtbl.find mirror rel in
    let existing () =
      let rows = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
      match rows with
      | [] -> None
      | _ -> Some (List.nth (List.sort compare rows) (Rng.int rng (List.length rows)))
    in
    let random_row () = List.init arity (fun _ -> Rng.int rng 8) in
    let emit sign row =
      ops := (rel, { Delta.sign; row = Array.of_list row }) :: !ops;
      match sign with
      | Delta.Insert -> Hashtbl.replace tbl row ()
      | Delta.Retract -> Hashtbl.remove tbl row
    in
    let r = Rng.float rng 1.0 in
    if r < 0.45 then emit Delta.Insert (random_row ())
    else if r < 0.7 then (
      match existing () with
      | Some row -> emit Delta.Retract row
      | None -> emit Delta.Insert (random_row ()))
    else if r < 0.9 then emit Delta.Retract (random_row ())
    else
      (* flip-flop: retract then reinsert a held row within one delta *)
      match existing () with
      | Some row ->
          emit Delta.Retract row;
          emit Delta.Insert row
      | None -> emit Delta.Insert (random_row ())
  done;
  (* group the op stream per relation, preserving order *)
  List.fold_left
    (fun acc (rel, op) -> Delta.merge acc [ (rel, [ op ]) ])
    Delta.empty (List.rev !ops)

(* --- the oracle check ---------------------------------------------------- *)

let sorted rows = List.sort_uniq compare rows

(* Diff a state against a from-scratch naive recompute on the mirrored
   EDB: every IDB, at one version. [got] reads the state's rows. *)
let check_version ~cseed ~version got mirror_rows program =
  let idbs, rows_of = Naive.run ~edb:mirror_rows program in
  List.filter_map
    (fun pred ->
      let expect = sorted (rows_of pred) in
      let got = sorted (got pred) in
      if expect = got then None
      else
        Some
          {
            div_seed = cseed;
            div_version = version;
            div_pred = pred;
            div_missing = List.filter (fun r -> not (List.mem r got)) expect;
            div_extra = List.filter (fun r -> not (List.mem r expect)) got;
          })
    idbs

(* The fixpoint a view is seeded from, as the serving layer seeds it: one
   Interpreter.run over the set-level EDB. The run's tracked bytes are
   handed back, since nothing keeps its relations. *)
let interpreter_fixpoint program edb =
  let an = Recstep.Analyzer.analyze program in
  let rels =
    List.filter_map
      (fun (n, rows) ->
        if List.mem n an.Recstep.Analyzer.edbs then
          Some
            ( n,
              Relation.of_rows ~name:n (Recstep.Analyzer.arity an n)
                (List.map Array.of_list rows) )
        else None)
      edb
  in
  let live0 = Memtrack.live () in
  Fun.protect
    ~finally:(fun () ->
      let grown = Memtrack.live () - live0 in
      if grown > 0 then Memtrack.free grown)
    (fun () ->
      let pool = Rs_parallel.Pool.create ~workers:4 () in
      Rs_parallel.Pool.begin_run pool;
      let result = Recstep.Interpreter.run ~pool ~edb:rels program in
      Ivm.idb_rows program result.Recstep.Interpreter.relation_of)

let mirror_rows mirror arities =
  List.map
    (fun (rel, _) ->
      let tbl = Hashtbl.find mirror rel in
      (rel, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])))
    arities

(* Stream [deltas] random updates through one case's IVM, checking every
   version against the naive oracle. Returns (versions, ops, divergences);
   raises nothing — an oracle rejection is reported by the caller. *)
let run_case ~cseed ~deltas (case : Gen.case) =
  let program = case.Gen.program in
  let arities = input_arities program in
  let mirror = Hashtbl.create 8 in
  List.iter
    (fun (rel, _) ->
      let tbl = Hashtbl.create 32 in
      let rows = try List.assoc rel case.Gen.edb with Not_found -> [] in
      List.iter (fun row -> Hashtbl.replace tbl row ()) rows;
      Hashtbl.add mirror rel tbl)
    arities;
  let edb0 = mirror_rows mirror arities in
  let idb0 = interpreter_fixpoint program edb0 in
  match Ivm.create ~edb:(Ivm.snapshot edb0) ~idb:idb0 program with
  | exception Invalid_argument m ->
      (* the interpreter's fixpoint disagrees with a counting stratum's
         rules: the naive diff of that fixpoint names the predicate, and a
         seed rejected with no naive diff is the view's own fault *)
      let divs = check_version ~cseed ~version:0 (fun p -> List.assoc p idb0) edb0 program in
      ( 0,
        0,
        if divs <> [] then divs
        else
          [
            {
              div_seed = cseed;
              div_version = 0;
              div_pred = "seed rejected: " ^ m;
              div_missing = [];
              div_extra = [];
            };
          ] )
  | ivm ->
      let rng = Rng.create (cseed lxor 0x5eed) in
      let divs = ref (check_version ~cseed ~version:0 (Ivm.rows ivm) edb0 program) in
      let ops = ref 0 in
      let v = ref 0 in
      while !v < deltas && !divs = [] do
        incr v;
        let d = gen_delta rng arities mirror in
        ops := !ops + Delta.size d;
        ignore (Ivm.apply ivm d);
        divs := check_version ~cseed ~version:!v (Ivm.rows ivm) (mirror_rows mirror arities) program
      done;
      (!v, !ops, !divs)

let case_seed ~seed i = (seed * 998_244_353) + i

let run ?(log = fun (_ : string) -> ()) ~seed ~iters ?(deltas = 8) () =
  let invalid = ref 0 and versions = ref 0 and ops = ref 0 in
  let divergences = ref [] in
  for i = 0 to iters - 1 do
    let cseed = case_seed ~seed i in
    let case = Gen.gen_case ~seed:cseed in
    match run_case ~cseed ~deltas case with
    | v, o, divs ->
        versions := !versions + v;
        ops := !ops + o;
        List.iter
          (fun d ->
            log
              (Printf.sprintf "case %d (seed %d): %s DIVERGED at version %d" i cseed d.div_pred
                 d.div_version))
          divs;
        divergences := !divergences @ divs
    | exception _ -> incr invalid
  done;
  {
    seed;
    cases = iters;
    invalid = !invalid;
    versions = !versions;
    ops = !ops;
    divergences = !divergences;
  }

let clean (r : report) = r.divergences = []

let report_json (r : report) =
  let rows l = Json.List (List.map (fun x -> Json.List (List.map (fun v -> Json.Int v) x)) l) in
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ("cases", Json.Int r.cases);
      ("invalid", Json.Int r.invalid);
      ("versions", Json.Int r.versions);
      ("ops", Json.Int r.ops);
      ( "divergences",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("seed", Json.Int d.div_seed);
                   ("version", Json.Int d.div_version);
                   ("pred", Json.String d.div_pred);
                   ("missing", rows d.div_missing);
                   ("extra", rows d.div_extra);
                 ])
             r.divergences) );
    ]
