module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Pool = Rs_parallel.Pool
module Fault = Rs_chaos.Fault
module Inject = Rs_chaos.Inject
module Union_find = Rs_util.Union_find

exception Degraded of string

let () =
  Printexc.register_printer (function
    | Degraded point -> Some (Printf.sprintf "Rs_exec.Kernel.Degraded(%s)" point)
    | _ -> None)

(* One body atom: its table and its slice [off, off + width) of the
   combined column frame. *)
type atom = { name : string; off : int; width : int }

(* One link of the chain. Stage 0 scans the Δ-table; stage s > 0 probes its
   atom's index on the local columns [keys] with the values of the bound
   frame columns [srcs]. [preds] need exactly the stages up to this one. *)
type stage = { atom : atom; keys : int array; srcs : int array; preds : Expr.pred list }

type t = { stages : stage array; stage_of : int array; out : Expr.t array }

exception Refuse of string

let refusal = function
  | Plan.AntiJoin _ -> "negation"
  | Plan.Aggregate _ -> "aggregate"
  | _ -> "shape"

(* Flatten a tree of filtered scans and projection-free joins (the
   planner's left-deep [join2] chain) rooted at frame column [off] into its
   atoms, its join equalities and its predicates, all over one frame. *)
let rec flatten arity_of off = function
  | Plan.Scan name -> ([ { name; off; width = arity_of name } ], [], [])
  | Plan.Filter (ps, src) ->
      let atoms, eqs, preds = flatten arity_of off src in
      (atoms, eqs, List.map (Expr.shift_pred off) ps @ preds)
  | Plan.Join { l; r; lkeys; rkeys; extra; out = None } ->
      let la, leqs, lpreds = flatten arity_of off l in
      let roff = List.fold_left (fun o a -> o + a.width) off la in
      let ra, reqs, rpreds = flatten arity_of roff r in
      let eqs = List.combine (Array.to_list lkeys) (Array.to_list rkeys) in
      ( la @ ra,
        List.map (fun (lk, rk) -> (off + lk, roff + rk)) eqs @ leqs @ reqs,
        List.map (Expr.shift_pred off) extra @ lpreds @ rpreds )
  | p -> raise (Refuse (refusal p))

let compile_shape (ex : Executor.t) ~probe_table plan =
  let body, out =
    match plan with
    | Plan.Project (out, src) -> (src, out)
    | Plan.Join ({ out = Some out; _ } as j) -> (Plan.Join { j with out = None }, out)
    | p -> raise (Refuse (refusal p))
  in
  let atoms, eqs, preds =
    flatten (fun name -> Relation.arity (Catalog.rel ex.catalog name)) 0 body
  in
  let width = List.fold_left (fun w a -> w + a.width) 0 atoms in
  (* Columns equated by the joins, transitively, form one class; a class is
     bound by its first column in chain order ([src]), and every later
     member is checked against that column. *)
  let uf = Union_find.create width in
  List.iter (fun (a, b) -> Union_find.union uf a b) eqs;
  let src = Array.make width (-1) and stage_of = Array.make width 0 in
  let bound c = src.(Union_find.find uf c) >= 0 in
  let cols a = List.init a.width (fun i -> a.off + i) in
  let same_class = ref [] in
  let bind s a =
    List.iter (fun c -> stage_of.(c) <- s) (cols a);
    let links =
      List.filter_map
        (fun c ->
          let k = Union_find.find uf c in
          if src.(k) < 0 then (src.(k) <- c; None)
          else if stage_of.(src.(k)) < s then Some (c - a.off, src.(k))
          else begin
            same_class := Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Col src.(k)) :: !same_class;
            None
          end)
        (cols a)
    in
    (a, Array.of_list (List.map fst links), Array.of_list (List.map snd links))
  in
  let delta =
    match List.filter (fun a -> a.name = probe_table) atoms with
    | [ a ] -> a
    | _ -> raise (Refuse "probe")
  in
  (* Greedy order from the Δ-atom: next is the atom with the most bound
     columns (earliest in the body on ties); one with none would be a cross
     product. *)
  let n_bound a = List.length (List.filter bound (cols a)) in
  let rec order s acc = function
    | [] -> List.rev acc
    | a0 :: _ as rest ->
        let a = List.fold_left (fun b a -> if n_bound a > n_bound b then a else b) a0 rest in
        if s > 0 && n_bound a = 0 then raise (Refuse "cross");
        let linked = bind s a in
        order (s + 1) (linked :: acc) (List.filter (( != ) a) rest)
  in
  let links = Array.of_list (order 0 [] (delta :: List.filter (( != ) delta) atoms)) in
  (* Residual predicates and the head read each class through its binding
     column, so a filter runs at the earliest stage that binds its classes. *)
  let canon c = src.(Union_find.find uf c) in
  let preds = List.map (Expr.map_pred_cols canon) preds @ !same_class in
  let at s p = List.fold_left (fun m c -> max m stage_of.(c)) 0 (Expr.pred_cols p) = s in
  let stage s (atom, keys, srcs) = { atom; keys; srcs; preds = List.filter (at s) preds } in
  { stages = Array.mapi stage links; stage_of; out = Array.map (Expr.map_cols canon) out }

let compile ex ~probe_table plan =
  match Inject.kernel_should_fail ~point:"kernel.compile" with
  | () -> ( try Ok (compile_shape ex ~probe_table plan) with Refuse reason -> Error reason)
  | exception Fault.Injected _ -> Error "chaos"

let count (ex : Executor.t) name n =
  match ex.trace with Some tr -> Rs_obs.Trace.count tr name n | None -> ()

let exec (ex : Executor.t) k ~dedup ~out =
  (* The exec probe sits before any write, so a fired fault leaves [dedup]
     and [out] untouched and the caller can re-evaluate interpreted. *)
  (try Inject.kernel_should_fail ~point:"kernel.exec"
   with Fault.Injected _ -> raise (Degraded "kernel.exec"));
  let stages = k.stages in
  let rels = Array.map (fun s -> Catalog.rel ex.catalog s.atom.name) stages in
  (* The current row of every stage, and every frame column's storage: a
     frame read is two array loads. Chunk-safe scratch, as the virtual pool
     runs chunks sequentially. *)
  let rows = Array.make (Array.length stages) 0 in
  let vecs = Array.mapi (fun c s -> Relation.col rels.(s) (c - stages.(s).atom.off)) k.stage_of in
  let get c = Rs_util.Int_vec.get vecs.(c) rows.(k.stage_of.(c)) in
  let claims = ref 0 and batches = ref 0 and before = Relation.nrows out in
  (* The last link, monomorphized on head arity: evaluate the head
     expressions, claim the tuple in FAST-DEDUP, and append on freshness —
     no intermediate relation ever exists. *)
  let emit =
    match k.out with
    | [| e0 |] ->
        fun () ->
          let v0 = Expr.eval get e0 in
          incr claims;
          if Dedup.add1 dedup v0 then Relation.push1 out v0
    | [| e0; e1 |] ->
        fun () ->
          let v0 = Expr.eval get e0 and v1 = Expr.eval get e1 in
          incr claims;
          if Dedup.add2 dedup v0 v1 then Relation.push2 out v0 v1
    | [| e0; e1; e2 |] ->
        (* both dedup layouts copy the scratch row on insert *)
        let row = Array.make 3 0 in
        fun () ->
          row.(0) <- Expr.eval get e0;
          row.(1) <- Expr.eval get e1;
          row.(2) <- Expr.eval get e2;
          incr claims;
          if Dedup.add_row dedup row then Relation.push3 out row.(0) row.(1) row.(2)
    | exprs ->
        let row = Array.make (Array.length exprs) 0 in
        fun () ->
          Array.iteri (fun i e -> row.(i) <- Expr.eval get e) exprs;
          incr claims;
          if Dedup.add_row dedup row then Relation.push_row out row
  in
  let passes ps =
    let test = Expr.test get in
    fun () -> List.for_all test ps
  in
  (* Build the chain back to front: each probe hands its surviving matches
     to the next link. 1- and 2-column keys use the specialized index entry
     points (no key array). *)
  let owned = ref [] in
  let rec link s =
    if s = Array.length stages then emit
    else
      let st = stages.(s) in
      let next = link (s + 1) and ok = passes st.preds in
      let on_match row = rows.(s) <- row; if ok () then next () in
      let idx, own = Executor.acquire_index ex ~scan_name:st.atom.name rels.(s) st.keys in
      if own then owned := idx :: !owned;
      match st.srcs with
      | [| c0 |] -> fun () -> Executor.index_iter_matches1 idx (get c0) on_match
      | [| c0; c1 |] -> fun () -> Executor.index_iter_matches2 idx (get c0) (get c1) on_match
      | srcs ->
          let key = Array.make (Array.length srcs) 0 in
          fun () ->
            Array.iteri (fun i c -> key.(i) <- get c) srcs;
            Executor.index_iter_matches idx key on_match
  in
  let probe = link 1 and ok0 = passes stages.(0).preds in
  let n = Relation.nrows rels.(0) in
  Pool.parallel_for ex.pool 0 n (fun lo hi ->
      incr batches;
      count ex "kernel.batch_rows" (hi - lo);
      for row = lo to hi - 1 do
        rows.(0) <- row;
        if ok0 () then probe ()
      done);
  List.iter Executor.index_release !owned;
  let emitted = Relation.nrows out - before in
  List.iter
    (fun (name, v) -> count ex name v)
    [ ("kernel.fused_probes", n); ("kernel.execs", 1); ("kernel.batches", !batches);
      ("kernel.emitted", emitted); ("dedup.probes", !claims); ("dedup.hits", !claims - emitted) ];
  emitted

let run (ex : Executor.t) k ~dedup ~out =
  let go () = exec ex k ~dedup ~out in
  match ex.trace with
  | Some tr -> Rs_obs.Trace.span tr ~kind:"kernel" k.stages.(0).atom.name go
  | None -> go ()
