(** Sharded scale-out: makespan and movement vs node count.

    TC over a skewed RMAT graph through {!Rs_shard.Shard_exec} at 1, 2, 4
    and 8 simulated nodes, plus the 4-node run with colocation analysis
    disabled. Every configuration must produce byte-identical output; what
    changes is the simulated makespan (the coordinator clock, charged at
    the slowest node per superstep) and the movement counters. Left-linear
    TC is the planner's best case — the base rule is colocated and the
    recursive rule broadcasts only the delta bindings — so the colocated
    runs keep [shuffle_tuples = 0] while the forced-shuffle run charges
    every retained head tuple as a repartition and its makespan degrades.
    Makespans are medians of 5 rounds over all configurations, in
    alternating order, each run from a compacted heap. Results land in
    [BENCH_shard.json]. *)

module Graphs = Rs_datagen.Graphs
module Programs = Recstep.Programs
module Relation = Rs_relation.Relation
module Shard_exec = Rs_shard.Shard_exec
module Pool = Rs_parallel.Pool
module Json = Rs_obs.Json

type row = {
  r_shards : int;
  r_colocation : bool;
  r_makespan_s : float;
  r_busy_s : float;
  r_utilization : float;
  r_supersteps : int;
  r_shuffle_tuples : int;
  r_broadcast_tuples : int;
  r_rows : int list list;  (** sorted tc rows, for the identity check *)
}

(* every node runs an 8-worker pool *)
let utilization ~shards ~makespan ~busy =
  if makespan > 0. then busy /. (makespan *. float_of_int (shards * 8)) else 0.

let run_config ~arc ~program ~shards ~colocation =
  Gc.compact ();
  let edb = [ ("arc", Relation.copy arc) ] in
  let pool = Pool.create ~workers:8 () in
  Pool.begin_run pool;
  let options = Shard_exec.options ~shards ~colocation () in
  let result = Shard_exec.run ~options ~pool ~edb program in
  (* read the clock before the identity check sorts the output, which is
     the harness's work, not the run's *)
  let makespan = Pool.vtime_now pool in
  let tc = result.Shard_exec.relation_of "tc" in
  let rows = List.map Array.to_list (Relation.sorted_distinct_rows tc) in
  let busy =
    List.fold_left
      (fun acc (ns : Shard_exec.node_stats) -> acc +. ns.Shard_exec.ns_busy_s)
      0. result.Shard_exec.node_stats
  in
  {
    r_shards = shards;
    r_colocation = colocation;
    r_makespan_s = makespan;
    r_busy_s = busy;
    r_utilization = utilization ~shards ~makespan ~busy;
    r_supersteps = result.Shard_exec.supersteps;
    r_shuffle_tuples = result.Shard_exec.shuffle_tuples;
    r_broadcast_tuples = result.Shard_exec.broadcast_tuples;
    r_rows = rows;
  }

let repeats = 5

let exp ~scale =
  Report.section ~id:"shard"
    ~title:"EXTRA: sharded scale-out — makespan and movement vs node count";
  let program = Programs.parsed Programs.tc in
  let n = 256 * scale in
  let arc = Graphs.rmat ~seed:11 ~n ~m:(4 * n) in
  let configs =
    [ (1, true); (2, true); (4, true); (4, false); (8, true) ]
  in
  (* Every round runs each configuration once, each run from a compacted
     heap, in [configs] order on even rounds and reversed on odd ones, so
     the two 4-shard runs swap places; a configuration's makespan and busy
     time are the medians of its [repeats] runs. *)
  let rounds =
    List.init repeats (fun r ->
        let run (shards, colocation) = run_config ~arc ~program ~shards ~colocation in
        if r mod 2 = 0 then List.map run configs else List.rev (List.map run (List.rev configs)))
  in
  let reference = (List.hd (List.hd rounds)).r_rows in
  let identical = List.for_all (List.for_all (fun r -> r.r_rows = reference)) rounds in
  let rows =
    List.mapi
      (fun i first ->
        let runs = List.map (fun round -> List.nth round i) rounds in
        let makespan = Measure.median (List.map (fun r -> r.r_makespan_s) runs) in
        let busy = Measure.median (List.map (fun r -> r.r_busy_s) runs) in
        {
          first with
          r_makespan_s = makespan;
          r_busy_s = busy;
          r_utilization = utilization ~shards:first.r_shards ~makespan ~busy;
        })
      (List.hd rounds)
  in
  let label r =
    Printf.sprintf "%d%s" r.r_shards (if r.r_colocation then "" else " (no colocation)")
  in
  Rs_util.Table_printer.print
    ~header:
      [ "shards"; "makespan (s)"; "busy (s)"; "util"; "supersteps"; "shuffle"; "broadcast" ]
    (List.map
       (fun r ->
         [
           label r;
           Printf.sprintf "%.4f" r.r_makespan_s;
           Printf.sprintf "%.4f" r.r_busy_s;
           Printf.sprintf "%.2f" r.r_utilization;
           string_of_int r.r_supersteps;
           string_of_int r.r_shuffle_tuples;
           string_of_int r.r_broadcast_tuples;
         ])
       rows);
  let colocated4 = List.find (fun r -> r.r_shards = 4 && r.r_colocation) rows in
  let shuffled4 = List.find (fun r -> r.r_shards = 4 && not r.r_colocation) rows in
  let colocated_beats_shuffle = colocated4.r_makespan_s < shuffled4.r_makespan_s in
  Report.note
    (Printf.sprintf
       "(TC on RMAT n=%d m=%d, %d tc rows; outputs %s across configurations; colocated 4-shard %s forced shuffle: %.4fs vs %.4fs)"
       n (Relation.nrows arc)
       (List.length reference)
       (if identical then "identical" else "DIVERGED")
       (if colocated_beats_shuffle then "beats" else "DOES NOT BEAT")
       colocated4.r_makespan_s shuffled4.r_makespan_s);
  let json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("workload", Json.String "tc");
        ("repeats", Json.Int repeats);
        ("vertices", Json.Int n);
        ("edges", Json.Int (Relation.nrows arc));
        ("tc_rows", Json.Int (List.length reference));
        ("identical", Json.Bool identical);
        ("colocated_beats_shuffle", Json.Bool colocated_beats_shuffle);
        ( "configs",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("shards", Json.Int r.r_shards);
                     ("colocation", Json.Bool r.r_colocation);
                     ("makespan_s", Json.Float r.r_makespan_s);
                     ("busy_s", Json.Float r.r_busy_s);
                     ("utilization", Json.Float r.r_utilization);
                     ("supersteps", Json.Int r.r_supersteps);
                     ("shuffle_tuples", Json.Int r.r_shuffle_tuples);
                     ("broadcast_tuples", Json.Int r.r_broadcast_tuples);
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_shard.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Report.note "(wrote BENCH_shard.json)"

let run ~scale = exp ~scale
