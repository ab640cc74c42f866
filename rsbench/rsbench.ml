(* One run of one workload of the repo benchmark, and the independent check
   of its outputs.

     rsbench.exe measure --workload W --seed N --seconds S --trace 0|1
                         [--size full|tiny] [--corrupt] [--work DIR]
     rsbench.exe verify  --workload W --seed N [--size full|tiny]
                         [--work DIR] [--frozen DIR]

   [measure] generates the workload's inputs from the seed, enters the
   program the way its users do and times each call from outside:

   - batch workloads take the [recstep run] path per program:
     Parser.parse -> Analyzer.analyze -> Frontend.load_tsv ->
     Interpreter.run (CLI defaults: 16 simulated workers, every
     optimization on, the default 2 GiB simulated machine) ->
     Frontend.save_tsv;
   - serve-churn takes the [recstep load] path: Rs_load.Load.generate ->
     make_store -> Service.run (8 fixed workers, autoscaler off, 3 MiB
     result cache).

   It writes what every evaluation produced (row count and checksum per
   output relation) to DIR/obs-<workload>.json and prints one JSON record
   as its last line. With --trace 1 the passes run with an rs_obs trace and
   the record carries per-layer metrics; the spans are written to
   DIR/spans-<workload>-<program>.json (batch) or DIR/spans-<workload>.json
   (serve-churn) at the end of the run.

   [verify] checks those observations against reference checksums computed
   by a different engine (Souffle-like, or BigDatalog-like where it is
   faster or the program uses recursive MIN), never by RecStep. References
   come from the frozen file for the seed when one exists, else from
   DIR/refs, else they are computed and cached there. *)

module Relation = Rs_relation.Relation
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace
module Json = Rs_obs.Json
module Memtrack = Rs_storage.Memtrack
module Service = Rs_service.Service
module Load = Rs_load.Load
module Engine_intf = Rs_engines.Engine_intf

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("rsbench: " ^ m);
      exit 2)
    fmt

(* ---- command line -------------------------------------------------------- *)

type args = {
  mode : string;
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;
  corrupt : bool;
  work : string;
  frozen : string;
}

let parse_args () =
  let argv = Array.to_list Sys.argv in
  let mode, rest =
    match argv with
    | _ :: m :: rest -> (m, rest)
    | _ -> die "usage: rsbench.exe measure|verify --workload W --seed N ..."
  in
  let a =
    ref
      {
        mode;
        workload = "";
        seed = 1;
        seconds = 10.0;
        traced = false;
        tiny = false;
        corrupt = false;
        work = ".rsbench_work";
        frozen = "rsbench/refs";
      }
  in
  let int_of s = match int_of_string_opt s with Some v -> v | None -> die "bad integer %S" s in
  let rec go = function
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of v }; go r
    | "--seconds" :: v :: r -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> a := { !a with seconds = s }; go r
        | _ -> die "bad --seconds %S" v)
    | "--trace" :: v :: r -> a := { !a with traced = int_of v <> 0 }; go r
    | "--size" :: "tiny" :: r -> a := { !a with tiny = true }; go r
    | "--size" :: "full" :: r -> a := { !a with tiny = false }; go r
    | "--corrupt" :: r -> a := { !a with corrupt = true }; go r
    | "--work" :: v :: r -> a := { !a with work = v }; go r
    | "--frozen" :: v :: r -> a := { !a with frozen = v }; go r
    | [] -> ()
    | x :: _ -> die "unknown argument %S" x
  in
  go rest;
  !a

(* ---- small helpers ------------------------------------------------------- *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the smallest sample with at least q of the population at
   or below it *)
let nearest_rank q = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let mib bytes = float_of_int bytes /. 1048576.0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Order-independent digest of a set of rows: the count and the wrapping
   sum of a mixed hash of each row. Both sides of a comparison hash
   distinct rows, so a duplicate, a missing or an altered row shows. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3fb5d329728ea185 in
  let x = (x lxor (x lsr 27)) * 0x01dadef4bc2dd44d in
  x lxor (x lsr 33)

let row_hash (row : int array) =
  Array.fold_left (fun h v -> mix (h + v + 0x1e3779b97f4a7c15)) (Array.length row) row

type digest = { rows : int; sum : int }

let digest_rows rows =
  List.fold_left (fun d r -> { rows = d.rows + 1; sum = d.sum + row_hash r }) { rows = 0; sum = 0 } rows

(* Digest of a saved TSV output, parsed here rather than by the loader under
   test. *)
let digest_tsv path =
  let s = read_file path in
  let n = String.length s in
  let d = ref { rows = 0; sum = 0 } in
  let row = ref [] and v = ref 0 and neg = ref false and digits = ref false in
  let end_field () =
    if !digits then row := (if !neg then - !v else !v) :: !row;
    v := 0;
    neg := false;
    digits := false
  in
  for i = 0 to n do
    let c = if i = n then '\n' else s.[i] in
    match c with
    | '0' .. '9' ->
        v := (!v * 10) + Char.code c - 48;
        digits := true
    | '-' -> neg := true
    | '\n' ->
        end_field ();
        if !row <> [] then
          d := { rows = !d.rows + 1; sum = !d.sum + row_hash (Array.of_list (List.rev !row)) };
        row := []
    | _ -> end_field ()
  done;
  !d

let write_tsv path rel =
  let oc = open_out path in
  let ar = Relation.arity rel in
  for r = 0 to Relation.nrows rel - 1 do
    for c = 0 to ar - 1 do
      if c > 0 then output_char oc '\t';
      output_string oc (string_of_int (Relation.get rel ~row:r ~col:c))
    done;
    output_char oc '\n'
  done;
  close_out oc

let drop_last_line path =
  let s = read_file path in
  let body = if String.ends_with ~suffix:"\n" s then String.sub s 0 (String.length s - 1) else s in
  match String.rindex_opt body '\n' with
  | Some i -> write_file path (String.sub body 0 (i + 1))
  | None -> write_file path ""

let digest_json outs =
  Json.Obj (List.map (fun (rel, d) -> (rel, Json.List [ Json.Int d.rows; Json.Int d.sum ])) outs)

let digest_of_json j =
  match j with
  | Json.List [ r; s ] -> { rows = Json.to_int r; sum = Json.to_int s }
  | _ -> raise (Json.Parse_error "digest")

let outs_of_json = function
  | Json.Obj kv -> List.map (fun (k, v) -> (k, digest_of_json v)) kv
  | _ -> raise (Json.Parse_error "outputs")

(* ---- workloads: inputs ---------------------------------------------------- *)

(* Each batch program comes with its input relations and the engine that
   computes its reference outputs in [verify]. *)

(* A batch program: its text and the TSV file of each input relation. *)
type program = { p_name : string; p_text : string; p_facts : (string * string) list }

type batch = {
  programs : program list;
  sizes : (string * int) list;
}

(* Every workload's inputs have one shape for every seed: the generators
   draw them from [shape_seed], and the seed renumbers the constants (graph
   vertices, program variables). The work is set by the shape: Andersen's
   closure is a sum over independent blocks of variables with a heavy
   tail, and RMAT closures and the serve stream's tenant and program draws
   vary too, so inputs redrawn per seed move the work by a tenth to a third
   from seed to seed, and a metric's spread over seeds would measure the
   draw, not the program. All programs but CC compare constants only for
   equality, so a renumbered input is the same computation with other
   output rows; CC's MIN labels change with the numbering, its work little. *)
let shape_seed = 1

(* A permutation of 0..top drawn from [rng]. *)
let permutation rng top =
  let perm = Array.init (top + 1) Fun.id in
  for i = top downto 1 do
    let j = Rs_util.Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

(* [rels] with every value v replaced by perm.(v). Row order is kept, so the
   program loads the same rows in the same order under new names. *)
let renumber_rels perm rels =
  List.map
    (fun (name, r) ->
      (name, Relation.of_rows ~name (Relation.arity r) (List.map (Array.map (fun v -> perm.(v))) (Relation.to_rows r))))
    rels

let renumber ~seed rels =
  let top =
    List.fold_left
      (fun m (_, r) -> List.fold_left (fun m row -> Array.fold_left max m row) m (Relation.to_rows r))
      0 rels
  in
  renumber_rels (permutation (Rs_util.Rng.create seed) top) rels

let graph_inputs ~tiny seed =
  let n = if tiny then 96 else 512 in
  let arc = Rs_datagen.Graphs.rmat ~seed:shape_seed ~n ~m:(5 * n) in
  (* REACH starts from a drawn vertex that has an out-edge *)
  let src =
    let rng = Rs_util.Rng.create (shape_seed + 17) in
    Relation.get arc ~row:(Rs_util.Rng.int rng (Relation.nrows arc)) ~col:0
  in
  let id = Relation.of_rows ~name:"id" 1 [ [| src |] ] in
  let arc, id =
    match renumber ~seed [ ("arc", arc); ("id", id) ] with
    | [ (_, arc); (_, id) ] -> (arc, id)
    | _ -> assert false
  in
  let g = [ ("arc", arc) ] in
  ( [
      ("tc", Recstep.Programs.tc, g, "Souffle-like");
      ("sg", Recstep.Programs.sg, g, "BigDatalog-like");
      ("cc", Recstep.Programs.cc, g, "BigDatalog-like");
      ("reach", Recstep.Programs.reach, ("id", id) :: g, "Souffle-like");
    ],
    [ ("vertices", n); ("edges", Relation.nrows arc) ] )

let progan_inputs ~tiny seed =
  let ds, scale, cscale = if tiny then (1, 1, 1) else (3, 2, 2) in
  let aa = renumber ~seed (Rs_datagen.Prog_analysis.andersen_dataset ~seed:shape_seed ~scale ds) in
  let cs = renumber ~seed (Rs_datagen.Prog_analysis.cspa_input ~seed:shape_seed ~scale:cscale "httpd") in
  let rows pre l = List.map (fun (r, rel) -> (pre ^ "." ^ r, Relation.nrows rel)) l in
  ( [
      ("andersen", Recstep.Programs.andersen, aa, "Souffle-like");
      ("cspa", Recstep.Programs.cspa, cs, "Souffle-like");
    ],
    (("andersen.variables", 768 * scale * ds) :: rows "andersen" aa) @ rows "cspa" cs )

let batch_inputs ~work ~tiny workload seed =
  let progs, sizes =
    match workload with
    | "graph-analytics" -> graph_inputs ~tiny seed
    | "program-analysis" -> progan_inputs ~tiny seed
    | w -> die "unknown workload %S" w
  in
  let dir = Filename.concat work "inputs" in
  mkdir_p dir;
  let programs =
    List.map
      (fun (name, text, edb, _) ->
        let facts =
          List.map
            (fun (rel, r) ->
              let path = Filename.concat dir (Printf.sprintf "%s.%s.tsv" name rel) in
              write_tsv path r;
              (rel, path))
            edb
        in
        { p_name = name; p_text = text; p_facts = facts })
      progs
  in
  { programs; sizes }

(* serve-churn: Zipf(1.1) tenants, arrivals spread uniformly over the
   horizon with churn deltas between them. At ~3 queries per simulated
   second the 8-worker service is rarely busy when a query arrives, so the
   latency tail is set by execution rather than by chance collisions of
   slow queries, which would make p99 swing from seed to seed. *)
let serve_spec ~tiny seed =
  if tiny then
    Load.spec ~tenants:200 ~queries:60 ~seed ~duration_s:6.0 ~skew:1.1 ~burstiness:0.0
      ~deltas:3 ()
  else
    Load.spec ~tenants:10_000 ~queries:1000 ~seed ~duration_s:300.0 ~skew:1.1
      ~burstiness:0.0 ~deltas:12 ()

(* Smaller than the ~14 MB of distinct results, so the cache evicts, but
   large enough to hold the three shared SG results (about 1 MB each)
   most of the time. In a 1 MiB cache no SG result fits: every SG query
   recomputes, a pass takes 25 s and a 1 GB heap, few passes fit in a run
   and their wall time swings with the load on the host. *)
let serve_cache_bytes = 3 lsl 20

let serve_config (spec : Load.spec) =
  Service.config ~workers:8 ~queue_capacity:(spec.Load.queries + 8)
    ~cache_bytes:serve_cache_bytes ~seed:spec.Load.seed ()

(* Submissions by the id Service.run gives them (q1, q2, ... in event
   order), deltas by database in time order. *)
let serve_index events =
  let subs = Hashtbl.create 1024 in
  let deltas = Hashtbl.create 4 in
  let k = ref 0 in
  List.iter
    (function
      | Service.Submit s ->
          incr k;
          Hashtbl.replace subs (Printf.sprintf "q%d" !k) s
      | Service.Delta { at; edb; delta } ->
          let l = Option.value ~default:[] (Hashtbl.find_opt deltas edb) in
          Hashtbl.replace deltas edb (l @ [ (at, delta) ])
      | Service.Explain _ -> ())
    events;
  (subs, deltas)

(* The serve stream and its databases are drawn from [shape_seed]; the
   seed renumbers the vertices of each database, in its graph, in its
   deltas and in the constants of the queries against it. *)
type serve_input = {
  load : Load.t;  (** the stream as drawn, before renumbering *)
  events : Service.event list;  (** the renumbered stream *)
  renumber_store : Rs_service.Edb_store.t -> Rs_service.Edb_store.t;
      (** a new store holding the databases of a [load.make_store] store,
          renumbered *)
}

let map_consts f (p : Recstep.Ast.program) =
  let open Recstep.Ast in
  let term = function Const c -> Const (f c) | t -> t in
  let rec expr = function
    | T t -> T (term t)
    | Add (a, b) -> Add (expr a, expr b)
    | Sub (a, b) -> Sub (expr a, expr b)
    | Mul (a, b) -> Mul (expr a, expr b)
  in
  let atom a = { a with args = List.map term a.args } in
  let lit = function
    | L_pos a -> L_pos (atom a)
    | L_neg a -> L_neg (atom a)
    | L_cmp (c, a, b) -> L_cmp (c, expr a, expr b)
  in
  let head = function H_term t -> H_term (term t) | H_agg (o, e) -> H_agg (o, expr e) in
  {
    p with
    rules =
      List.map (fun r -> { r with head_args = List.map head r.head_args; body = List.map lit r.body }) p.rules;
  }

let map_delta f (d : Rs_relation.Delta.t) =
  List.map
    (fun (rel, ops) ->
      (rel, List.map (fun (op : Rs_relation.Delta.op) -> { op with Rs_relation.Delta.row = Array.map f op.Rs_relation.Delta.row }) ops))
    d

let serve_inputs ~tiny seed =
  let module Store = Rs_service.Edb_store in
  let load = Load.generate (serve_spec ~tiny shape_seed) in
  let base = load.Load.make_store () in
  let dbs = Store.names base in
  (* the largest vertex of each database, over its graph, its deltas and
     the queries against it *)
  let top = Hashtbl.create 4 in
  let see edb v = Hashtbl.replace top edb (max v (Option.value ~default:0 (Hashtbl.find_opt top edb))) in
  List.iter
    (fun edb -> List.iter (fun (_, r) -> List.iter (Array.iter (see edb)) (Relation.to_rows r)) (Store.lookup base edb))
    dbs;
  List.iter
    (function
      | Service.Submit s -> ignore (map_consts (fun c -> see s.Service.edb c; c) s.Service.program)
      | Service.Delta { edb; delta; _ } -> ignore (map_delta (fun v -> see edb v; v) delta)
      | Service.Explain _ -> ())
    load.Load.events;
  let rng = Rs_util.Rng.create seed in
  let perms = List.map (fun edb -> (edb, permutation rng (Hashtbl.find top edb))) dbs in
  let perm edb v = (List.assoc edb perms).(v) in
  let events =
    List.map
      (function
        | Service.Submit s ->
            Service.Submit { s with Service.program = map_consts (perm s.Service.edb) s.Service.program }
        | Service.Delta { at; edb; delta } -> Service.Delta { at; edb; delta = map_delta (perm edb) delta }
        | e -> e)
      load.Load.events
  in
  let renumber_store store =
    let t = Store.create () in
    List.iter
      (fun edb ->
        let rels = Store.lookup store edb in
        let renumbered = renumber_rels (List.assoc edb perms) rels in
        (* the simulated memory holds the served databases, not both *)
        List.iter (fun (_, r) -> Relation.release r) rels;
        List.iter (fun (_, r) -> Relation.account r) renumbered;
        Store.define t edb renumbered)
      dbs;
    t
  in
  { load; events; renumber_store }

(* deltas of [edb] the service had applied when it dispatched at [t] *)
let version_at deltas edb t =
  List.length
    (List.filter (fun (at, _) -> at <= t) (Option.value ~default:[] (Hashtbl.find_opt deltas edb)))

let serve_key edb k (p : Recstep.Ast.program) =
  Printf.sprintf "%s|%d|%s|%s" edb k (Recstep.Ast.program_to_string p)
    (String.concat "," p.Recstep.Ast.outputs)

(* ---- per-layer accounting from a trace ----------------------------------- *)

(* Self time per span kind: a span's duration minus what its direct
   children cover. Spans come in open order with their depth, so a span's
   children are the following spans one level deeper until the next span at
   its own depth or above. Also returns the time the top-level spans
   cover. *)
let self_times (spans : Trace.span list) =
  let a = Array.of_list spans in
  let n = Array.length a in
  let dur i =
    match a.(i).Trace.sp_stop with Some s -> s -. a.(i).Trace.sp_start | None -> 0.0
  in
  let self = Hashtbl.create 8 in
  let top = ref 0.0 in
  for i = 0 to n - 1 do
    let d = a.(i).Trace.sp_depth in
    let children = ref 0.0 in
    let j = ref (i + 1) in
    while !j < n && a.(!j).Trace.sp_depth > d do
      if a.(!j).Trace.sp_depth = d + 1 then children := !children +. dur !j;
      incr j
    done;
    if d = 0 then top := !top +. dur i;
    let k = a.(i).Trace.sp_kind in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt self k) in
    Hashtbl.replace self k (prev +. dur i -. !children)
  done;
  (self, !top)

(* The per-layer metrics every traced run reports, in order, with units.
   Those a workload does not exercise read 0. The interpreter's time per
   program is in the record's "programs" field rather than here, where it
   would read 0 on every workload but the one that runs the program. *)
let per_layer_units =
  [
    ("frontend.load_s", "s"); ("frontend.parse_s", "s"); ("frontend.analyze_s", "s");
    ("frontend.save_s", "s"); ("interpreter.wall_s", "s"); ("interpreter.sim_s", "s");
  ]
  @ [
      ("interpreter.self_sim_s", "s"); ("interpreter.iterations", "count");
      ("interpreter.pbme_strata", "count"); ("executor.self_sim_s", "s");
      ("executor.queries", "count"); ("executor.est_ratio", "ratio");
      ("executor.index_builds", "count"); ("executor.index_appends", "count");
      ("executor.index_reuse_ratio", "ratio"); ("kernel.compiled_rules", "count");
      ("kernel.fallback_rules", "count"); ("kernel.fused_probes", "count");
      ("kernel.emitted", "count"); ("dedup.self_sim_s", "s"); ("dedup.probes", "count");
      ("dedup.dup_ratio", "ratio"); ("storage.self_sim_s", "s");
      ("storage.flush_bytes", "bytes"); ("storage.flushes", "count");
      ("memtrack.peak_mb", "MiB"); ("pool.batches", "count"); ("pool.busy_s", "s");
      ("pool.utilization", "ratio"); ("gc.minor", "count"); ("gc.major", "count");
      ("gc.top_heap_mb", "MiB"); ("service.self_sim_s", "s");
      ("service.queue_wait_p50_s", "s"); ("service.queue_wait_p99_s", "s");
      ("service.exec_p50_s", "s"); ("service.exec_p99_s", "s"); ("cache.hit_ratio", "ratio");
      ("ivm.refreshed_per_delta", "ratio"); ("ivm.view_built", "count");
      ("ivm.view_dropped", "count"); ("service.retried", "count");
      ("service.degraded", "count"); ("service.rejected", "count");
      ("trace.eval_sim_s", "s"); ("trace.layers_sim_s", "s");
      ("trace.unspanned_sim_s", "s"); ("trace.eval_wall_s", "s");
      ("trace.layers_wall_s", "s"); ("trace.overhead_s", "s");
    ]

(* Layer figures of one traced pass: span self times by kind plus the
   counters, summed over the pass's traces. *)
type layers = {
  mutable self : (string * float) list;
  mutable covered : float;
  mutable counters : (string * int) list;
}

let add_assoc l k v = (k, v +. Option.value ~default:0.0 (List.assoc_opt k l)) :: List.remove_assoc k l
let add_count l k v = (k, v + Option.value ~default:0 (List.assoc_opt k l)) :: List.remove_assoc k l

let absorb_trace ly tr =
  let self, top = self_times (Trace.spans tr) in
  Hashtbl.iter (fun k v -> ly.self <- add_assoc ly.self k v) self;
  ly.covered <- ly.covered +. top;
  List.iter (fun (k, v) -> ly.counters <- add_count ly.counters k v) (Trace.counters tr)

let gself ly k = Option.value ~default:0.0 (List.assoc_opt k ly.self)
let gcount ly k = Option.value ~default:0 (List.assoc_opt k ly.counters)

let layer_metrics ly ~unspanned =
  let c = gcount ly in
  [
    ("interpreter.iterations", float_of_int (c "interpreter.iterations"));
    ("interpreter.pbme_strata", float_of_int (c "interpreter.pbme_strata"));
    ("executor.self_sim_s", gself ly "executor");
    ("executor.queries", float_of_int (c "executor.queries"));
    ("executor.est_ratio", ratio (c "executor.est_rows") (c "executor.actual_rows"));
    ("executor.index_builds", float_of_int (c "executor.index_builds"));
    ("executor.index_appends", float_of_int (c "executor.index_appends"));
    ( "executor.index_reuse_ratio",
      ratio (c "executor.index_reuse_hits") (c "executor.index_reuse_hits" + c "executor.index_builds") );
    ("kernel.compiled_rules", float_of_int (c "kernel.compiled_rules"));
    ("kernel.fallback_rules", float_of_int (c "kernel.fallback_rules"));
    ("kernel.fused_probes", float_of_int (c "kernel.fused_probes"));
    ("kernel.emitted", float_of_int (c "kernel.emitted"));
    ("dedup.self_sim_s", gself ly "dedup");
    ("dedup.probes", float_of_int (c "dedup.probes"));
    ("dedup.dup_ratio", ratio (c "dedup.hits") (c "dedup.probes"));
    ("storage.self_sim_s", gself ly "storage");
    ("storage.flush_bytes", float_of_int (c "storage.flush_bytes"));
    ("storage.flushes", float_of_int (c "storage.flushes"));
    ("trace.layers_sim_s", List.fold_left (fun s (_, v) -> s +. v) unspanned ly.self);
  ]

(* ---- measure: batch workloads --------------------------------------------- *)

type eval = {
  e_prog : string;
  e_ok : bool;
  e_outputs : (string * digest) list;
  e_wall : float;
  e_sim : float;
  e_parse : float;
  e_analyze : float;
  e_load : float;
  e_run_wall : float;
  e_save : float;
  e_peak : int;
  e_busy : float;
  e_util_workers : int;
  e_batches : int;
}

let out_dir work = Filename.concat work "out"

let run_program ~work ~traced ~(corrupt : bool ref) (p : program) =
  Memtrack.hard_reset ();
  let t0 = now () in
  let ast = Recstep.Parser.parse p.p_text in
  let t1 = now () in
  let an = Recstep.Analyzer.analyze ast in
  let t2 = now () in
  let edb =
    List.map
      (fun (rel, path) ->
        (rel, Recstep.Frontend.load_tsv ~name:rel ~arity:(Recstep.Analyzer.arity an rel) path))
      p.p_facts
  in
  let t3 = now () in
  let pool = Pool.create ~workers:16 () in
  Pool.begin_run pool;
  let trace =
    if traced then Some (Trace.create ~now:(fun () -> Pool.vtime_now pool) ()) else None
  in
  let options = Recstep.Interpreter.options ?trace () in
  let result = try Ok (Recstep.Interpreter.run ~options ~pool ~edb ast) with e -> Error e in
  let t4 = now () in
  let outputs =
    if ast.Recstep.Ast.outputs = [] then an.Recstep.Analyzer.idbs else ast.Recstep.Ast.outputs
  in
  let dir = out_dir work in
  let saved =
    match result with
    | Ok r ->
        List.map
          (fun name ->
            let path = Filename.concat dir (p.p_name ^ "." ^ name ^ ".tsv") in
            Recstep.Frontend.save_tsv (r.Recstep.Interpreter.relation_of name) path;
            (name, path))
          outputs
    | Error _ -> []
  in
  let t5 = now () in
  let stats = Pool.stats pool in
  let peak = Memtrack.peak () in
  (* outside the timed window: the independent digest of what was written *)
  (match saved with
  | (_, path) :: _ when !corrupt ->
      corrupt := false;
      drop_last_line path
  | _ -> ());
  let digests = List.map (fun (name, path) -> (name, digest_tsv path)) saved in
  let e =
    {
      e_prog = p.p_name;
      e_ok = Result.is_ok result;
      e_outputs = digests;
      e_wall = t5 -. t0;
      e_sim = stats.Pool.vtime;
      e_parse = t1 -. t0;
      e_analyze = t2 -. t1;
      e_load = t3 -. t2;
      e_run_wall = t4 -. t3;
      e_save = t5 -. t4;
      e_peak = peak;
      e_busy = stats.Pool.busy;
      e_util_workers = stats.Pool.workers;
      e_batches = List.length (Pool.events pool);
    }
  in
  (match result with
  | Error ex -> Printf.printf "# %s failed: %s\n%!" p.p_name (Printexc.to_string ex)
  | Ok _ -> ());
  (e, trace)

type pass = { evals : eval list; wall : float; sim : float; setup : float; layers : layers option; traces : (string * Trace.t) list }

let run_pass ~work ~traced ~corrupt b =
  let ly = { self = []; covered = 0.0; counters = [] } in
  let results =
    List.map
      (fun p -> run_program ~work ~traced ~corrupt p)
      b.programs
  in
  let evals = List.map fst results in
  let traces = List.filter_map (fun (e, t) -> Option.map (fun t -> (e.e_prog, t)) t) results in
  List.iter (fun (_, t) -> absorb_trace ly t) traces;
  let sum f = List.fold_left (fun s e -> s +. f e) 0.0 evals in
  {
    evals;
    wall = sum (fun e -> e.e_wall);
    sim = sum (fun e -> e.e_sim);
    setup = sum (fun e -> e.e_parse +. e.e_analyze +. e.e_load);
    layers = (if traced then Some ly else None);
    traces;
  }

(* Pass-level per-layer figures of a traced batch pass. *)
let batch_layer_metrics pass =
  let sum f = List.fold_left (fun s e -> s +. f e) 0.0 pass.evals in
  let ly = Option.get pass.layers in
  let busy = sum (fun e -> e.e_busy) in
  let capacity = sum (fun e -> float_of_int e.e_util_workers *. e.e_sim) in
  (* Interpreter.run is the root of each program's spans: the part of its
     simulated time no span covers is its own *)
  let unspanned = pass.sim -. ly.covered in
  [
    ("frontend.load_s", sum (fun e -> e.e_load));
    ("frontend.parse_s", sum (fun e -> e.e_parse));
    ("frontend.analyze_s", sum (fun e -> e.e_analyze));
    ("frontend.save_s", sum (fun e -> e.e_save));
    ("interpreter.wall_s", sum (fun e -> e.e_run_wall));
    ("interpreter.sim_s", pass.sim);
  ]
  @ [ ("interpreter.self_sim_s", gself ly "interpreter" +. unspanned) ]
  @ layer_metrics ly ~unspanned
  @ [
      ("memtrack.peak_mb", mib (List.fold_left (fun m e -> max m e.e_peak) 0 pass.evals));
      ("pool.batches", float_of_int (List.fold_left (fun s e -> s + e.e_batches) 0 pass.evals));
      ("pool.busy_s", busy);
      ("pool.utilization", if capacity > 0.0 then busy /. capacity else 0.0);
      ("trace.eval_sim_s", pass.sim);
      ("trace.unspanned_sim_s", unspanned);
      ("trace.eval_wall_s", pass.wall);
      ( "trace.layers_wall_s",
        sum (fun e -> e.e_load +. e.e_parse +. e.e_analyze +. e.e_save +. e.e_run_wall) );
    ]

(* ---- measure: serve-churn ------------------------------------------------- *)

(* What one Service.run leaves for the record. The report itself is
   dropped: it holds every served row, and keeping it alive into the next
   pass would grow the heap the next pass is measured in. *)
type serve_pass = {
  s_wall : float;
  s_peak : int;
  s_exec_sim : float;  (** simulated seconds from dispatch to completion, summed over served queries *)
  s_latencies : float list;  (** arrival to completion, served queries *)
  s_computed : float list;  (** the same, for the queries not served from the cache *)
  s_checked : (string * string * int * (string * digest) list) list;
      (** id, edb, version, served outputs *)
  s_ops : int;  (** submissions plus deltas *)
  s_unserved : int;  (** submissions not served, deltas whose apply aborted *)
  s_layers : (string * float) list;  (** per-layer metrics, traced passes only *)
}

let serve_layer_metrics (r : Service.report) ~workers ~wall ~peak ~store_s =
  let ly = { self = []; covered = 0.0; counters = [] } in
  absorb_trace ly r.Service.trace;
  let cnt = Service.counter r in
  let started =
    List.filter_map (fun c -> Option.map (fun s -> (c, s)) c.Service.c_started) r.Service.completions
  in
  let waits = List.map (fun ((c : Service.completion), s) -> s -. c.Service.c_at) started in
  let execs = List.map (fun ((c : Service.completion), s) -> c.Service.c_finished -. s) started in
  let hits = cnt "cache_hit" and misses = cnt "cache_miss" in
  let batches = Trace.batches r.Service.trace in
  let busy = List.fold_left (fun s b -> s +. b.Trace.bt_busy) 0.0 batches in
  (* Service.run is the root: its idle time between arrivals and anything
     else no span covers is the service's own *)
  let unspanned = r.Service.vtime -. ly.covered in
  (* engine runs nest their stratum spans directly under the query's span *)
  let interp =
    List.fold_left
      (fun s (sp : Trace.span) ->
        match sp.Trace.sp_stop with
        | Some stop when sp.Trace.sp_kind = "interpreter" && sp.Trace.sp_depth = 1 ->
            s +. stop -. sp.Trace.sp_start
        | _ -> s)
      0.0 (Trace.spans r.Service.trace)
  in
  [
    ("frontend.load_s", store_s);
    ("interpreter.sim_s", interp);
    ("interpreter.self_sim_s", gself ly "interpreter");
  ]
  @ layer_metrics ly ~unspanned
  @ [
      ("memtrack.peak_mb", mib peak);
      ("service.self_sim_s", gself ly "service" +. unspanned);
      ("service.queue_wait_p50_s", nearest_rank 0.5 waits);
      ("service.queue_wait_p99_s", nearest_rank 0.99 waits);
      ("service.exec_p50_s", nearest_rank 0.5 execs);
      ("service.exec_p99_s", nearest_rank 0.99 execs);
      ("cache.hit_ratio", ratio hits (hits + misses));
      ("ivm.refreshed_per_delta", ratio (cnt "refreshed") (cnt "delta_applied"));
      ("ivm.view_built", float_of_int (cnt "view_built"));
      ("ivm.view_dropped", float_of_int (cnt "view_dropped"));
      ("service.retried", float_of_int (cnt "retried"));
      ("service.degraded", float_of_int (cnt "degraded"));
      ("service.rejected", float_of_int (cnt "rejected"));
      ("pool.batches", float_of_int (List.length batches));
      ("pool.busy_s", busy);
      ("pool.utilization", busy /. (float_of_int workers *. r.Service.vtime));
      ("trace.eval_sim_s", r.Service.vtime);
      ("trace.unspanned_sim_s", unspanned);
      ("trace.eval_wall_s", wall);
      (* Service.run is the one wall-clock layer the benchmark can time *)
      ("trace.layers_wall_s", wall);
    ]

(* [keys] collects the bytes of the first result served per distinct
   (database, version, program): the working set the cache competes for. *)
let run_serve_pass ~corrupt ~subs ~deltas ~keys ~config ~(input : serve_input) ~spans =
  (* the simulated memory of this pass: its own store and what the service
     adds to it, not the stores of earlier passes left to the collector *)
  Memtrack.hard_reset ();
  let store, store_s = time input.load.Load.make_store in
  (* renumbering is input generation, outside the timed set-up *)
  let store = input.renumber_store store in
  let events = input.events in
  let report, wall = time (fun () -> Service.run ~config ~edb:store events) in
  let peak = Memtrack.peak () in
  let served =
    List.filter_map
      (fun (c : Service.completion) ->
        match (c.Service.c_outcome, c.Service.c_started) with
        | Service.Done v, Some started -> Some (c, v, version_at deltas c.Service.c_edb started)
        | _ -> None)
      report.Service.completions
  in
  let checked =
    List.map
      (fun ((c : Service.completion), v, k) ->
        let sub = Hashtbl.find subs c.Service.c_id in
        let key = serve_key c.Service.c_edb k sub.Service.program in
        if not (Hashtbl.mem keys key) then
          Hashtbl.add keys key (Rs_service.Result_cache.value_bytes v);
        let outs =
          List.map
            (fun (rel, rows) ->
              let rows =
                if !corrupt && rows <> [] then begin
                  corrupt := false;
                  List.tl rows
                end
                else rows
              in
              (rel, digest_rows rows))
            v
        in
        (c.Service.c_id, c.Service.c_edb, k, outs))
      served
  in
  let cnt = Service.counter report in
  let layers =
    match spans with
    | Some path ->
        Trace.dump report.Service.trace ~path;
        serve_layer_metrics report ~workers:config.Service.workers ~wall ~peak ~store_s
    | None -> []
  in
  {
    s_wall = wall;
    s_peak = peak;
    s_exec_sim =
      List.fold_left
        (fun s ((c : Service.completion), _, _) ->
          s +. c.Service.c_finished -. Option.get c.Service.c_started)
        0.0 served;
    s_latencies =
      List.map (fun ((c : Service.completion), _, _) -> c.Service.c_finished -. c.Service.c_at) served;
    s_computed =
      List.filter_map
        (fun ((c : Service.completion), _, _) ->
          if c.Service.c_cache_hit then None else Some (c.Service.c_finished -. c.Service.c_at))
        served;
    s_checked = checked;
    s_ops = cnt "submitted" + cnt "delta_applied" + cnt "delta_noop" + cnt "delta_fault";
    s_unserved = cnt "submitted" - List.length served + cnt "delta_fault";
    s_layers = layers;
  }

(* ---- output records ------------------------------------------------------- *)

let end_to_end_units =
  [
    ("setup_s", "s"); ("eval_wall_s", "s"); ("eval_sim_s", "s"); ("peak_mem_mb", "MiB");
    ("heap_top_mb", "MiB"); ("query_p50_s", "s"); ("query_p99_s", "s");
    ("serve_ops_per_s", "1/s");
  ]

let metrics_json units values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       units)

let heap_top_mb () = mib ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

let gc_metrics (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ("gc.minor", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("gc.major", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ("gc.top_heap_mb", heap_top_mb ());
  ]

(* Median of each per-layer metric over the traced passes. *)
let median_metrics (per_pass : (string * float) list list) =
  List.map
    (fun (name, _) ->
      (name, median (List.filter_map (List.assoc_opt name) per_pass)))
    per_layer_units
  |> List.filter (fun (n, _) -> List.exists (List.mem_assoc n) per_pass)

let print_record ?(programs = []) ~args ~inputs ~attempted ~passes ~samples ~metrics ~units () =
  let record =
    Json.Obj
      [
        ("workload", Json.String args.workload);
        ("seed", Json.Int args.seed);
        ("size", Json.String (if args.tiny then "tiny" else "full"));
        ("trace", Json.Int (if args.traced then 1 else 0));
        ("inputs", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) inputs));
        ("attempted", Json.Int attempted);
        ("passes", Json.Int passes);
        ("samples", Json.Obj (List.map (fun (k, l) -> (k, Json.List (List.map (fun v -> Json.Float v) l))) samples));
        ( "programs",
          Json.Obj
            (List.map
               (fun (p, wall, sim) ->
                 (p, Json.Obj [ ("wall_s", Json.Float wall); ("sim_s", Json.Float sim) ]))
               programs) );
        ("metrics", metrics_json units metrics);
      ]
  in
  print_endline (Json.to_string record)

(* Passes run back to back until [seconds] of measured time are spent; at
   least [min_passes]. Each starts from a compacted heap, as a fresh
   process starts from an empty one: in a heap left as the previous pass
   left it, the time of identical passes spread twice as wide. *)
let measure_loop ~seconds ~min_passes f =
  let rec go acc spent n =
    if n >= min_passes && spent >= seconds then List.rev acc
    else
      let () = Gc.compact () in
      let x, dt = time f in
      go (x :: acc) (spent +. dt) (n + 1)
  in
  go [] 0.0 0

let measure_batch args =
  let work = args.work in
  mkdir_p (out_dir work);
  let b = batch_inputs ~work ~tiny:args.tiny args.workload args.seed in
  (* set-up alone, repeated so its median is steady; it also warms the
     loader and parser *)
  let setup_samples =
    List.init 15 (fun _ ->
        List.fold_left
          (fun s p ->
            let t0 = now () in
            let an = Recstep.Analyzer.analyze (Recstep.Parser.parse p.p_text) in
            List.iter
              (fun (rel, path) ->
                ignore (Recstep.Frontend.load_tsv ~name:rel ~arity:(Recstep.Analyzer.arity an rel) path))
              p.p_facts;
            s +. (now () -. t0))
          0.0 b.programs)
  in
  (* --corrupt drops one row of the first output written, once *)
  let corrupt = ref args.corrupt in
  let warm = run_pass ~work ~traced:false ~corrupt b in
  let min_passes = if args.tiny then 1 else 3 in
  let untraced, traced =
    if args.traced then
      (* half the time untraced for the overhead figure, half traced *)
      let half = args.seconds /. 2.0 in
      let u = measure_loop ~seconds:half ~min_passes (fun () -> run_pass ~work ~traced:false ~corrupt b) in
      let g0 = Gc.quick_stat () in
      let t = measure_loop ~seconds:half ~min_passes (fun () -> run_pass ~work ~traced:true ~corrupt b) in
      (u, Some (t, g0))
    else
      (measure_loop ~seconds:args.seconds ~min_passes (fun () ->
           run_pass ~work ~traced:false ~corrupt b), None)
  in
  let all_passes = (warm :: untraced) @ (match traced with Some (t, _) -> t | None -> []) in
  let evals = List.concat_map (fun p -> p.evals) all_passes in
  (* observations for [verify] *)
  write_file
    (Filename.concat work ("obs-" ^ args.workload ^ ".json"))
    (Json.to_string
       (Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("key", Json.String e.e_prog);
                   ("ok", Json.Bool e.e_ok);
                   ("outputs", digest_json e.e_outputs);
                 ])
             evals)));
  let walls = List.map (fun p -> p.wall) untraced in
  let wall = median walls in
  let nprogs = List.length b.programs in
  (* each program's typical latency: the median of its simulated seconds
     over the passes *)
  let prog_latency =
    List.map
      (fun p ->
        median
          (List.concat_map
             (fun pass -> List.filter_map (fun e -> if e.e_prog = p.p_name then Some e.e_sim else None) pass.evals)
             untraced))
      b.programs
  in
  let e2e =
    [
      ("setup_s", median (setup_samples @ List.map (fun p -> p.setup) untraced));
      ("eval_wall_s", wall);
      ("eval_sim_s", median (List.map (fun p -> p.sim) untraced));
      ( "peak_mem_mb",
        median
          (List.map
             (fun p -> mib (List.fold_left (fun m e -> max m e.e_peak) 0 p.evals))
             untraced) );
      ("heap_top_mb", heap_top_mb ());
      ("query_p50_s", median prog_latency);
      ("query_p99_s", nearest_rank 0.99 prog_latency);
      ("serve_ops_per_s", float_of_int nprogs /. wall);
    ]
  in
  let metrics, units =
    match traced with
    | None -> (e2e, end_to_end_units)
    | Some (tpasses, g0) ->
        let per_pass = List.map batch_layer_metrics tpasses in
        let m = median_metrics per_pass in
        let overhead = median (List.map (fun p -> p.wall) tpasses) -. wall in
        (* the spans of the last traced pass, one file per program *)
        List.iter
          (fun (prog, tr) ->
            Trace.dump tr
              ~path:(Filename.concat work (Printf.sprintf "spans-%s-%s.json" args.workload prog)))
          (List.nth tpasses (List.length tpasses - 1)).traces;
        (m @ gc_metrics g0 @ [ ("trace.overhead_s", overhead) ], per_layer_units)
  in
  (* each program's Interpreter.run, median wall and simulated seconds *)
  let programs =
    List.map
      (fun p ->
        let mine f =
          median
            (List.concat_map
               (fun pass ->
                 List.filter_map (fun e -> if e.e_prog = p.p_name then Some (f e) else None) pass.evals)
               (untraced @ match traced with Some (t, _) -> t | None -> []))
        in
        (p.p_name, mine (fun e -> e.e_run_wall), mine (fun e -> e.e_sim)))
      b.programs
  in
  print_record ~programs ~args ~inputs:b.sizes ~attempted:(List.length evals)
    ~passes:(List.length untraced + match traced with Some (t, _) -> List.length t | None -> 0)
    ~samples:[ ("setup_s", setup_samples); ("eval_wall_s", walls);
      ("run_s", List.map (fun p -> List.fold_left (fun s e -> s +. e.e_run_wall) 0.0 p.evals) untraced);
      ("save_s", List.map (fun p -> List.fold_left (fun s e -> s +. e.e_save) 0.0 p.evals) untraced);
      ("sim_s", List.map (fun p -> p.sim) untraced) ]
    ~metrics ~units ()

let measure_serve args =
  let work = args.work in
  mkdir_p work;
  let input = serve_inputs ~tiny:args.tiny args.seed in
  let load = input.load in
  let spec = load.Load.spec in
  let subs, deltas = serve_index input.events in
  let config = serve_config spec in
  (* one store build is a fraction of a millisecond, short enough that
     whether a minor collection lands inside it decides its time; each
     sample therefore averages 100 builds, after three unrecorded samples
     that grow the heap to its working size *)
  let setup_sample () =
    snd (time (fun () -> for _ = 1 to 100 do ignore (load.Load.make_store ()) done)) /. 100.0
  in
  for _ = 1 to 3 do ignore (setup_sample ()) done;
  let setup_samples = List.init 15 (fun _ -> setup_sample ()) in
  let keys = Hashtbl.create 512 in
  let corrupt = ref args.corrupt in
  let run ?spans () =
    run_serve_pass ~corrupt ~subs ~deltas ~keys ~config ~input ~spans
  in
  (* No separate warm-up: a pass is long, and the first one pays for
     growing the heap, so every figure is a median over passes (three of
     them) and the first pass counts only as one vote. The service always
     records its trace; with --trace 1 two passes stand for the untraced
     run and a third is the one analysed. *)
  let min_passes = if args.tiny then 1 else 3 in
  let untraced, traced =
    if args.traced then
      let u = List.init (max 1 (min_passes - 1)) (fun _ -> run ()) in
      let g0 = Gc.quick_stat () in
      let spans = Filename.concat work (Printf.sprintf "spans-%s.json" args.workload) in
      (u, Some (run ~spans (), g0))
    else (measure_loop ~seconds:args.seconds ~min_passes run, None)
  in
  let all = untraced @ match traced with Some (t, _) -> [ t ] | None -> [] in
  let checked = List.concat_map (fun sp -> sp.s_checked) all in
  write_file
    (Filename.concat work ("obs-" ^ args.workload ^ ".json"))
    (Json.to_string
       (Json.Obj
          [
            ("unserved", Json.Int (List.fold_left (fun n sp -> n + sp.s_unserved) 0 all));
            ( "served",
              Json.List
                (List.map
                   (fun (id, edb, k, outs) ->
                     Json.Obj
                       [
                         ("id", Json.String id);
                         ("edb", Json.String edb);
                         ("version", Json.Int k);
                         ("outputs", digest_json outs);
                       ])
                   checked) );
          ]));
  let passes = untraced in
  let walls = List.map (fun sp -> sp.s_wall) passes in
  let wall = median walls in
  let per_pass q f = median (List.map (fun sp -> nearest_rank q (f sp)) passes) in
  let inputs =
    [
      ("tenants", spec.Load.tenants); ("tenants_used", load.Load.tenants_used);
      ("queries", spec.Load.queries); ("deltas", spec.Load.deltas);
      ("cache_bytes", serve_cache_bytes); ("distinct_keys", Hashtbl.length keys);
      ("distinct_result_bytes", Hashtbl.fold (fun _ b s -> s + b) keys 0);
    ]
  in
  let e2e =
    [
      ("setup_s", median setup_samples);
      ("eval_wall_s", wall);
      ("eval_sim_s", median (List.map (fun sp -> sp.s_exec_sim) passes));
      ("peak_mem_mb", median (List.map (fun sp -> mib sp.s_peak) passes));
      ("heap_top_mb", heap_top_mb ());
      (* a cache hit's latency is the configured hit cost, and hits are
         most of the queries: the median is taken over the computed ones *)
      ("query_p50_s", per_pass 0.5 (fun sp -> sp.s_computed));
      ("query_p99_s", per_pass 0.99 (fun sp -> sp.s_latencies));
      ("serve_ops_per_s", float_of_int (List.hd passes).s_ops /. wall);
    ]
  in
  let metrics, units =
    match traced with
    | None -> (e2e, end_to_end_units)
    | Some (sp, g0) ->
        (sp.s_layers @ gc_metrics g0 @ [ ("trace.overhead_s", sp.s_wall -. wall) ], per_layer_units)
  in
  print_record ~args ~inputs
    ~attempted:(List.fold_left (fun n sp -> n + sp.s_ops) 0 all)
    ~passes:(List.length all)
    ~samples:[ ("setup_s", setup_samples); ("eval_wall_s", walls); ("query_p99_s", List.map (fun sp -> nearest_rank 0.99 sp.s_latencies) passes) ]
    ~metrics ~units ()

(* ---- verify --------------------------------------------------------------- *)

let engine_named name =
  match Rs_engines.Engines.by_name name with Some e -> e | None -> die "no engine %S" name

(* Outputs of [program] over [edb] by an engine other than RecStep, as
   digests of the distinct rows. *)
let reference ~engine edb (ast : Recstep.Ast.program) =
  let pool = Pool.create ~workers:16 () in
  Memtrack.hard_reset ();
  match Engine_intf.run_guarded (engine_named engine) ~pool ~edb ast with
  | Engine_intf.Done r ->
      List.map
        (fun o -> (o, digest_rows (Relation.sorted_distinct_rows (r.Engine_intf.relation_of o))))
        ast.Recstep.Ast.outputs
  | _ -> die "reference engine %s failed" engine

let load_refs path =
  if Sys.file_exists path then
    match Json.of_string (read_file path) with
    | Json.Obj kv -> List.map (fun (k, v) -> (k, outs_of_json v)) kv
    | _ -> []
  else []

let save_refs path refs =
  mkdir_p (Filename.dirname path);
  write_file path (Json.to_string (Json.Obj (List.map (fun (k, o) -> (k, digest_json o)) refs)))

let verify args =
  let size = if args.tiny then "tiny" else "full" in
  let name = Printf.sprintf "%s-%s-%d.json" args.workload size args.seed in
  let frozen = load_refs (Filename.concat args.frozen name) in
  let cache_path = Filename.concat (Filename.concat args.work "refs") name in
  let cached = ref (load_refs cache_path) in
  let dirty = ref false in
  let lookup key compute =
    match List.assoc_opt key frozen with
    | Some o -> o
    | None -> (
        match List.assoc_opt key !cached with
        | Some o -> o
        | None ->
            let o = compute () in
            cached := (key, o) :: !cached;
            dirty := true;
            o)
  in
  let obs = Json.of_string (read_file (Filename.concat args.work ("obs-" ^ args.workload ^ ".json"))) in
  let same a b =
    List.length a = List.length b
    && List.for_all (fun (rel, d) -> List.assoc_opt rel b = Some d) a
  in
  let checked, mismatched, unserved =
    match args.workload with
    | "serve-churn" ->
        let input = serve_inputs ~tiny:args.tiny args.seed in
        let subs, deltas = serve_index input.events in
        let base = input.renumber_store (input.load.Load.make_store ()) in
        let sg = Recstep.Programs.parsed Recstep.Programs.sg in
        let edb_at edb k =
          (* the database after its first [k] deltas, rebuilt here from the
             generated stream rather than read back from the service *)
          let rows = Hashtbl.create 4096 in
          List.iter
            (fun (rel, r) -> List.iter (fun row -> Hashtbl.replace rows (rel, row) ()) (Relation.to_rows r))
            (Rs_service.Edb_store.lookup base edb);
          List.iteri
            (fun i (_, d) ->
              if i < k then
                List.iter
                  (fun rel ->
                    List.iter
                      (fun (op : Rs_relation.Delta.op) ->
                        match op.Rs_relation.Delta.sign with
                        | Rs_relation.Delta.Insert -> Hashtbl.replace rows (rel, op.Rs_relation.Delta.row) ()
                        | Rs_relation.Delta.Retract -> Hashtbl.remove rows (rel, op.Rs_relation.Delta.row))
                      (Rs_relation.Delta.ops d rel))
                  (Rs_relation.Delta.rels d))
            (Option.value ~default:[] (Hashtbl.find_opt deltas edb));
          List.map
            (fun (rel, r) ->
              let l = Hashtbl.fold (fun (rn, row) () acc -> if rn = rel then row :: acc else acc) rows [] in
              (rel, Relation.of_rows ~name:rel (Relation.arity r) l))
            (Rs_service.Edb_store.lookup base edb)
        in
        let served = Json.to_list (Json.member "served" obs) in
        let bad =
          List.fold_left
            (fun bad o ->
              let id = Json.to_str (Json.member "id" o) in
              let edb = Json.to_str (Json.member "edb" o) in
              let k = Json.to_int (Json.member "version" o) in
              let sub = Hashtbl.find subs id in
              let p = sub.Service.program in
              let engine = if p = sg then "BigDatalog-like" else "Souffle-like" in
              let expect = lookup (serve_key edb k p) (fun () -> reference ~engine (edb_at edb k) p) in
              if same (outs_of_json (Json.member "outputs" o)) expect then bad else bad + 1)
            0 served
        in
        (List.length served, bad, Json.to_int (Json.member "unserved" obs))
    | workload ->
        let progs, _ =
          match workload with
          | "graph-analytics" -> graph_inputs ~tiny:args.tiny args.seed
          | "program-analysis" -> progan_inputs ~tiny:args.tiny args.seed
          | w -> die "unknown workload %S" w
        in
        let evals = Json.to_list obs in
        let bad, failed =
          List.fold_left
            (fun (bad, failed) o ->
              let key = Json.to_str (Json.member "key" o) in
              if not (Json.member "ok" o = Json.Bool true) then (bad, failed + 1)
              else
                let _, text, edb, engine = List.find (fun (n, _, _, _) -> n = key) progs in
                let expect =
                  lookup key (fun () -> reference ~engine edb (Recstep.Parser.parse text))
                in
                if same (outs_of_json (Json.member "outputs" o)) expect then (bad, failed)
                else (bad + 1, failed))
            (0, 0) evals
        in
        (List.length evals - failed, bad, failed)
  in
  if !dirty then save_refs cache_path !cached;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("checked", Json.Int checked);
            ("mismatched", Json.Int mismatched);
            ("unserved", Json.Int unserved);
          ]))

let () =
  let args = parse_args () in
  match args.mode with
  | "measure" when args.workload = "serve-churn" -> measure_serve args
  | "measure" -> measure_batch args
  | "verify" -> verify args
  | m -> die "unknown mode %S (measure or verify)" m
