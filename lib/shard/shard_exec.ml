module An = Recstep.Analyzer
module Ast = Recstep.Ast
module Planner = Recstep.Planner
module Interpreter = Recstep.Interpreter
module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Catalog = Rs_exec.Catalog
module Executor = Rs_exec.Executor
module Plan = Rs_exec.Plan
module Cost = Rs_exec.Cost
module Pool = Rs_parallel.Pool
module Trace = Rs_obs.Trace
module Inject = Rs_chaos.Inject
module Fault = Rs_chaos.Fault

exception Unsupported of string

type options = {
  shards : int;
  colocation : bool;
  rebalance : bool;
  rebalance_threshold : float;
  fast_dedup : bool;
  persistent_indexes : bool;
  dsd : Interpreter.dsd_mode;
  alpha : float;
  query_overhead_s : float;
  share_builds : bool;
  timeout_vs : float option;
  max_recoveries : int;
  reference_max_rows : int;
  trace : Trace.t option;
}

let options ?(shards = 4) ?(colocation = true) ?(rebalance = false)
    ?(rebalance_threshold = 1.5) ?(fast_dedup = true) ?(persistent_indexes = true)
    ?(dsd = Interpreter.Dsd_dynamic) ?(alpha = Cost.default_alpha)
    ?(query_overhead_s = 0.002) ?(share_builds = true) ?timeout_vs ?(max_recoveries = 3)
    ?(reference_max_rows = Partitioner.default_reference_max_rows) ?trace () =
  {
    shards = max 1 shards;
    colocation;
    rebalance;
    rebalance_threshold;
    fast_dedup;
    persistent_indexes;
    dsd;
    alpha;
    query_overhead_s;
    share_builds;
    timeout_vs;
    max_recoveries;
    reference_max_rows;
    trace;
  }

let default_options = options ()

type node_stats = {
  ns_node : int;
  ns_rows : int;
  ns_bytes : int;
  ns_busy_s : float;
  ns_sim_s : float;
  ns_queries : int;
}

type result = {
  outputs : (string * Relation.t) list;
  relation_of : string -> Relation.t;
  iterations : int;
  queries : int;
  supersteps : int;
  recoveries : int;
  colocated_rules : int;
  broadcast_rules : int;
  shuffled_rules : int;
  rebalance_moves : int;
  rebalance_rows : int;
  shuffle_tuples : int;
  shuffle_bytes : int;
  shuffle_msgs : int;
  broadcast_tuples : int;
  node_stats : node_stats list;
}

(* Extract one row of a relation into [buf]. *)
let read_row r ~row buf =
  for c = 0 to Array.length buf - 1 do
    buf.(c) <- Relation.get r ~row ~col:c
  done

let run ?(options = default_options) ~pool ~edb program =
  let an = An.analyze program in
  List.iter
    (fun n ->
      if An.agg_sig an n <> None then
        raise (Unsupported (Printf.sprintf "sharded execution: aggregate head %s" n)))
    an.An.idbs;
  let trace = options.trace in
  let n_shards = options.shards in
  let part = Partitioner.create ~reference_max_rows:options.reference_max_rows ~shards:n_shards () in
  let ex = Exchange.create ~shards:n_shards () in
  let nodes =
    Array.init n_shards (fun id ->
        Node.create ~id ~workers:(Pool.workers pool)
          ~query_overhead_s:options.query_overhead_s ~share_builds:options.share_builds
          ~persistent_indexes:options.persistent_indexes ())
  in
  Fun.protect ~finally:(fun () -> Array.iter Node.release nodes)
  @@ fun () ->
  let queries = ref 0 in
  let total_iterations = ref 0 in
  let supersteps = ref 0 in
  let recoveries = ref 0 in
  let rebalance_moves = ref 0 in
  let rebalance_rows = ref 0 in
  let classes = Hashtbl.create 4 in
  (* cumulative per-node simulated seconds, for skew detection and stats *)
  let node_sim = Array.make n_shards 0.0 in
  let node_busy = Array.make n_shards 0.0 in
  let check_timeout () =
    match options.timeout_vs with
    | Some budget ->
        let v = Pool.vtime_now pool in
        if v > budget then raise (Interpreter.Timeout_simulated v)
    | None -> ()
  in
  (* Charge one barrier of per-node work to the coordinator: every node's
     batch wall time comes off the serial account, the slowest node's
     simulated time goes on the clock (the superstep's makespan), and all
     busy time is kept for utilization. *)
  let superstep f =
    incr supersteps;
    let before = Array.map (fun nd -> Pool.consumed nd.Node.pool) nodes in
    Fun.protect
      ~finally:(fun () ->
        let real = ref 0.0 and busy = ref 0.0 and mx = ref 0.0 in
        Array.iteri
          (fun i nd ->
            let r0, s0, b0 = before.(i) in
            let r1, s1, b1 = Pool.consumed nd.Node.pool in
            real := !real +. (r1 -. r0);
            busy := !busy +. (b1 -. b0);
            node_sim.(i) <- node_sim.(i) +. (s1 -. s0);
            node_busy.(i) <- node_busy.(i) +. (b1 -. b0);
            if s1 -. s0 > !mx then mx := s1 -. s0)
          nodes;
        Pool.absorb pool ~real:!real ~sim:!mx ~busy:!busy)
      f
  in
  (* Nodes run concurrently, so a node's serial work between its pool
     batches is booked on that node's pool (one worker busy for its wall
     time). The superstep then charges the slowest node's serial plus batch
     time, not the sum of every node's serial time. *)
  let on_node nd f =
    let r0, _, _ = Pool.consumed nd.Node.pool in
    let t0 = Rs_util.Clock.now () in
    let v = f () in
    let r1, _, _ = Pool.consumed nd.Node.pool in
    let serial = Rs_util.Clock.now () -. t0 -. (r1 -. r0) in
    Pool.absorb nd.Node.pool ~real:serial ~sim:serial ~busy:serial;
    v
  in
  let issue nd plan =
    incr queries;
    nd.Node.queries <- nd.Node.queries + 1;
    Executor.run_query nd.Node.exec plan
  in
  let node_point nd what = Printf.sprintf "shard.node%d.%s" nd.Node.id what in
  (* --- placement ------------------------------------------------------- *)
  let register_fragments name r =
    match Partitioner.strategy part name with
    | Partitioner.Reference ->
        Array.iter
          (fun nd ->
            let c = Relation.copy ~name:(Shard_planner.local_name name) r in
            Relation.account c;
            Catalog.register nd.Node.catalog (Shard_planner.local_name name) c)
          nodes
    | Partitioner.Hash { col } ->
        let frags =
          Array.init n_shards (fun _ ->
              Relation.create ~name:(Shard_planner.local_name name) (Relation.arity r))
        in
        let buf = Array.make (Relation.arity r) 0 in
        for row = 0 to Relation.nrows r - 1 do
          read_row r ~row buf;
          Partitioner.note_routed part buf.(col);
          Relation.push_row frags.(Partitioner.node_of_key part buf.(col)) buf
        done;
        Array.iteri
          (fun i f ->
            Relation.account f;
            Catalog.register nodes.(i).Node.catalog (Shard_planner.local_name name) f)
          frags
  in
  List.iter
    (fun name ->
      match List.assoc_opt name edb with
      | Some r ->
          if Relation.arity r <> An.arity an name then
            raise
              (An.Analysis_error
                 (Printf.sprintf "input %s has arity %d, program expects %d" name
                    (Relation.arity r) (An.arity an name)));
          Relation.account r;
          ignore (Partitioner.decide_edb part name r);
          register_fragments name r
      | None -> raise (An.Analysis_error (Printf.sprintf "missing input relation %s" name)))
    an.An.edbs;
  List.iter
    (fun name ->
      let arity = An.arity an name in
      ignore (Partitioner.decide_idb part name ~arity);
      Array.iter
        (fun nd ->
          Catalog.register nd.Node.catalog (Shard_planner.local_name name)
            (Relation.create ~name:(Shard_planner.local_name name) arity))
        nodes)
    an.An.idbs;
  Array.iter
    (fun nd -> List.iter (Catalog.analyze_rows nd.Node.catalog) (Catalog.names nd.Node.catalog))
    nodes;
  (* Broadcast copies already built this run (static relations only). *)
  let bcast_built = Hashtbl.create 8 in
  (* Assemble the full content of a relation from its fragments (node order,
     so the result is deterministic). *)
  let assemble_global ?name rel_name =
    match Partitioner.strategy part rel_name with
    | Partitioner.Reference ->
        let c =
          Relation.copy ?name
            (Catalog.rel nodes.(0).Node.catalog (Shard_planner.local_name rel_name))
        in
        Relation.account c;
        c
    | Partitioner.Hash _ ->
        let arity = An.arity an rel_name in
        let out = Relation.create ?name arity in
        Array.iter
          (fun nd ->
            Relation.append_all out
              (Catalog.rel nd.Node.catalog (Shard_planner.local_name rel_name)))
          nodes;
        Relation.account out;
        out
  in
  let ensure_bcast rel_name =
    if not (Hashtbl.mem bcast_built rel_name) then begin
      Hashtbl.replace bcast_built rel_name ();
      let full = assemble_global ~name:(Shard_planner.bcast_name rel_name) rel_name in
      let arity = Relation.arity full in
      Array.iteri
        (fun dst nd ->
          (* every node's contribution travels to every other node *)
          Array.iter
            (fun src_nd ->
              let src = src_nd.Node.id in
              if src <> dst then
                Exchange.send ex ~kind:Exchange.Broadcast ~src ~dst
                  ~tuples:
                    (Relation.nrows
                       (Catalog.rel src_nd.Node.catalog (Shard_planner.local_name rel_name)))
                  ~arity ~dest_pool:nd.Node.pool
                  ~point:(Printf.sprintf "shard.broadcast.%s" rel_name))
            nodes;
          let c = Relation.copy ~name:(Shard_planner.bcast_name rel_name) full in
          Relation.account c;
          Node.replace_table nd (Shard_planner.bcast_name rel_name) c;
          Catalog.analyze_rows nd.Node.catalog (Shard_planner.bcast_name rel_name))
        nodes;
      Relation.release full
    end
  in
  (* Forced-shuffle cost model (--no-colocation): execution and placement
     are untouched, but rows that colocation let stay put are charged as a
     hash repartition — (N-1)/N of them cross the wire, spread evenly. *)
  let charge_repartition ~src ~tuples ~arity ~point =
    if n_shards > 1 && tuples > 0 then begin
      let share = tuples / n_shards in
      Array.iter
        (fun nd ->
          if nd.Node.id <> src then
            Exchange.send ex ~kind:Exchange.Shuffle ~src ~dst:nd.Node.id
              ~tuples:(max 1 share) ~arity ~dest_pool:nd.Node.pool ~point)
        nodes
    end
  in
  (* --- one stratum ------------------------------------------------------ *)
  let eval_stratum_once (sp : Shard_planner.stratum_plan) (stratum : An.stratum) =
    let preds = stratum.An.preds in
    let arity_of = An.arity an in
    (* register empty Δ bindings on every node *)
    let reset_delta name =
      List.iter
        (fun p ->
          let dn = name p in
          Array.iter
            (fun nd -> Node.replace_table nd dn (Relation.create ~name:dn (arity_of p)))
            nodes)
        preds
    in
    reset_delta Shard_planner.delta_local_name;
    List.iter
      (fun p ->
        let dn = Shard_planner.delta_bcast_name p in
        Array.iter
          (fun nd -> Node.replace_table nd dn (Relation.create ~name:dn (arity_of p)))
          nodes)
      sp.Shard_planner.sp_bcast_delta;
    List.iter ensure_bcast sp.Shard_planner.sp_bcast_full;
    (* per-(node, pred) DSD state *)
    let mu = Hashtbl.create 16 in
    let rules_of p =
      List.filter (fun rp -> rp.Shard_planner.rp_head = p) sp.Shard_planner.sp_rules
    in
    (* Evaluate the given variants of predicate [p] on node [nd], splitting
       plans whose heads are born local from plans whose candidates must be
       routed. Returns per-destination candidate fragments. *)
    let eval_on nd p variants =
      let local_plans, routed_plans =
        List.partition (fun (rp, _) -> rp.Shard_planner.rp_head_local)
          (List.filter
             (fun (rp, _) ->
               match rp.Shard_planner.rp_solo with
               | Some node -> node = nd.Node.id
               | None -> true)
             variants)
      in
      let arity = arity_of p in
      let inbox = Array.make n_shards None in
      let into dst =
        match inbox.(dst) with
        | Some r -> r
        | None ->
            let r = Relation.create arity in
            inbox.(dst) <- Some r;
            r
      in
      (match local_plans with
      | [] -> ()
      | plans ->
          let rt = issue nd (Plan.UnionAll (List.map (fun (_, v) -> v.Shard_planner.v_plan) plans)) in
          (* head-local: already at the owner; under --no-colocation the
             rows still count as a forced repartition *)
          if not options.colocation then
            charge_repartition ~src:nd.Node.id ~tuples:(Relation.nrows rt) ~arity
              ~point:(node_point nd "shuffle");
          let dst = into nd.Node.id in
          Relation.append_all dst rt;
          Relation.release rt);
      (match routed_plans with
      | [] -> ()
      | plans ->
          let rt = issue nd (Plan.UnionAll (List.map (fun (_, v) -> v.Shard_planner.v_plan) plans)) in
          let buf = Array.make arity 0 in
          (match Partitioner.strategy part p with
          | Partitioner.Reference ->
              let dst = into 0 in
              for row = 0 to Relation.nrows rt - 1 do
                read_row rt ~row buf;
                Relation.push_row dst buf
              done
          | Partitioner.Hash { col } ->
              for row = 0 to Relation.nrows rt - 1 do
                read_row rt ~row buf;
                Partitioner.note_routed part buf.(col);
                Relation.push_row (into (Partitioner.node_of_key part buf.(col))) buf
              done);
          Relation.release rt);
      inbox
    in
    (* Deliver inboxes: [all_inboxes.(src).(dst)] rows move src→dst. *)
    let deliver p (all_inboxes : Relation.t option array array) =
      let arity = arity_of p in
      Array.iteri
        (fun src per_dst ->
          Array.iteri
            (fun dst frag_opt ->
              match frag_opt with
              | None -> ()
              | Some frag ->
                  if dst <> src then
                    Exchange.send ex ~kind:Exchange.Shuffle ~src ~dst
                      ~tuples:(Relation.nrows frag) ~arity
                      ~dest_pool:nodes.(dst).Node.pool
                      ~point:(Printf.sprintf "shard.shuffle.%s" p))
            per_dst)
        all_inboxes
    in
    (* Absorb routed candidates at their owner: dedup, set-difference
       against the local fragment (per-shard persistent index on "@l"),
       append, publish the node's Δ as "@dl". Returns |Δ| on this node. *)
    let absorb nd p (frags : Relation.t list) =
      let arity = arity_of p in
      let frags = List.filter (fun f -> Relation.nrows f > 0) frags in
      let dn = Shard_planner.delta_local_name p in
      if frags = [] then begin
        Node.replace_table nd dn (Relation.create ~name:dn arity);
        Catalog.analyze_rows nd.Node.catalog dn;
        0
      end
      else begin
        let cand = Relation.concat_parallel nd.Node.pool arity frags in
        let expected = max 16 (Relation.nrows cand) in
        let rdelta =
          Dedup.dedup_relation_parallel ~expected ~pool:nd.Node.pool
            (if options.fast_dedup then Dedup.Fast else Dedup.Boxed)
            cand
        in
        Relation.release cand;
        let ln = Shard_planner.local_name p in
        let r = Catalog.rel nd.Node.catalog ln in
        let r_rows = Catalog.stat_rows nd.Node.catalog ln in
        let mu_key = (nd.Node.id, p) in
        let mu_prev = Option.join (Hashtbl.find_opt mu mu_key) in
        let choice =
          match options.dsd with
          | Interpreter.Dsd_force_opsd -> Cost.Opsd
          | Interpreter.Dsd_force_tpsd -> Cost.Tpsd
          | Interpreter.Dsd_dynamic ->
              Cost.choose ~alpha:options.alpha ~r_rows ~rdelta_rows:(Relation.nrows rdelta)
                ~mu_prev
        in
        let delta, intersection =
          match choice with
          | Cost.Opsd -> Executor.opsd nd.Node.exec ~name:ln ~rdelta ~r ()
          | Cost.Tpsd -> Executor.tpsd nd.Node.exec ~name:ln ~rdelta ~r ()
        in
        Hashtbl.replace mu mu_key
          (Some
             (Cost.observed_mu ~rdelta_rows:(Relation.nrows rdelta)
                ~intersection_rows:intersection));
        Relation.release rdelta;
        Relation.append_all r delta;
        Relation.account r;
        Node.replace_table nd dn delta;
        Catalog.analyze_rows nd.Node.catalog ln;
        Catalog.analyze_rows nd.Node.catalog dn;
        Relation.nrows delta
      end
    in
    (* After absorbing, propagate each predicate's Δ to its replicated
       bindings: "@db" (joins that need the full Δ everywhere), live "@b"
       copies, and — for reference-strategy IDBs — every node's "@l". *)
    let maintain_replicas p =
      let arity = arity_of p in
      let needs_db = List.mem p sp.Shard_planner.sp_bcast_delta in
      let needs_b = List.mem p sp.Shard_planner.sp_bcast_live in
      let is_reference = Partitioner.strategy part p = Partitioner.Reference in
      if needs_db || needs_b || is_reference then begin
        let global = Relation.create ~name:(Shard_planner.delta_bcast_name p) arity in
        Array.iter
          (fun src_nd ->
            let d = Catalog.rel src_nd.Node.catalog (Shard_planner.delta_local_name p) in
            let tuples = Relation.nrows d in
            Relation.append_all global d;
            if tuples > 0 then
              Array.iter
                (fun dst_nd ->
                  if dst_nd.Node.id <> src_nd.Node.id then
                    Exchange.send ex ~kind:Exchange.Broadcast ~src:src_nd.Node.id
                      ~dst:dst_nd.Node.id ~tuples ~arity ~dest_pool:dst_nd.Node.pool
                      ~point:(Printf.sprintf "shard.broadcast.%s" p))
                nodes)
          nodes;
        Array.iter
          (fun nd ->
            if needs_db then begin
              let c = Relation.copy ~name:(Shard_planner.delta_bcast_name p) global in
              Relation.account c;
              Node.replace_table nd (Shard_planner.delta_bcast_name p) c;
              Catalog.analyze_rows nd.Node.catalog (Shard_planner.delta_bcast_name p)
            end;
            if needs_b then begin
              let b = Catalog.rel nd.Node.catalog (Shard_planner.bcast_name p) in
              Relation.append_all b global;
              Relation.account b;
              Catalog.analyze_rows nd.Node.catalog (Shard_planner.bcast_name p)
            end;
            if is_reference && nd.Node.id <> 0 then begin
              let l = Catalog.rel nd.Node.catalog (Shard_planner.local_name p) in
              Relation.append_all l global;
              Relation.account l;
              Catalog.analyze_rows nd.Node.catalog (Shard_planner.local_name p)
            end)
          nodes;
        Relation.release global
      end
    in
    let note_round ~iteration deltas =
      incr total_iterations;
      (match trace with
      | Some tr -> Trace.count tr "interpreter.iterations" 1
      | None -> ());
      List.iter
        (fun (p, d) ->
          match trace with
          | Some tr ->
              Trace.iteration tr
                {
                  Trace.it_stratum = stratum.An.index;
                  it_iteration = iteration;
                  it_idb = p;
                  it_delta_rows = d;
                  it_vtime = Pool.vtime_now pool;
                }
          | None -> ())
        deltas
    in
    (* One evaluation round: eval everywhere, route, absorb at owners,
       replicate Δs. [variants_for nd p] picks this round's plans. *)
    let round ~iteration variants_for =
      check_timeout ();
      (* inboxes.(src).(dst) per pred *)
      let collected =
        superstep (fun () ->
            Array.map
              (fun nd ->
                Inject.node_should_fail ~point:(node_point nd "eval");
                on_node nd (fun () ->
                    List.map (fun p -> (p, eval_on nd p (variants_for nd p))) preds))
              nodes)
      in
      (* select pred p's inbox from each node, preserving node order *)
      let per_pred p =
        Array.map
          (fun per_node ->
            match List.assoc_opt p per_node with
            | Some inbox -> inbox
            | None -> Array.make n_shards None)
          collected
      in
      (* route (charged), then absorb at owners *)
      let deltas =
        superstep (fun () ->
            List.map
              (fun p ->
                let inboxes = per_pred p in
                deliver p inboxes;
                let fact_rows =
                  if iteration = 0 then
                    List.concat_map
                      (fun rp ->
                        match rp.Shard_planner.rp_fact with
                        | Some t when rp.Shard_planner.rp_head = p -> [ t ]
                        | _ -> [])
                      sp.Shard_planner.sp_rules
                  else []
                in
                let received dst =
                  let from_nodes =
                    Array.to_list inboxes
                    |> List.filter_map (fun per_dst -> per_dst.(dst))
                  in
                  let facts =
                    List.filter (fun t -> Partitioner.owner_of_row part p t = dst) fact_rows
                  in
                  if facts = [] then from_nodes
                  else begin
                    let f = Relation.create (arity_of p) in
                    List.iter (Relation.push_row f) facts;
                    f :: from_nodes
                  end
                in
                let d =
                  Array.fold_left
                    (fun acc nd ->
                      Inject.node_should_fail ~point:(node_point nd "absorb");
                      acc + on_node nd (fun () -> absorb nd p (received nd.Node.id)))
                    0 nodes
                in
                (p, d))
              preds)
      in
      superstep (fun () -> List.iter (fun (p, _) -> maintain_replicas p) deltas);
      note_round ~iteration deltas;
      deltas
    in
    (* iteration 0: facts + delta-free base variants *)
    let base_variants _nd p =
      List.concat_map
        (fun rp ->
          match rp.Shard_planner.rp_base with Some v -> [ (rp, v) ] | None -> [])
        (rules_of p)
    in
    let deltas0 = round ~iteration:0 base_variants in
    if stratum.An.recursive then begin
      let live = Hashtbl.create 8 in
      let set_live deltas =
        Hashtbl.reset live;
        List.iter (fun (p, d) -> if d > 0 then Hashtbl.replace live p ()) deltas
      in
      set_live deltas0;
      let iteration = ref 0 in
      while Hashtbl.length live > 0 do
        incr iteration;
        let delta_variants _nd p =
          List.concat_map
            (fun rp ->
              List.filter_map
                (fun v ->
                  match v.Shard_planner.v_driver with
                  | Some driver when Hashtbl.mem live driver -> Some (rp, v)
                  | _ -> None)
                rp.Shard_planner.rp_deltas)
            (rules_of p)
        in
        let deltas = round ~iteration:!iteration delta_variants in
        set_live deltas
      done
    end;
    (* later strata must see empty Δs *)
    reset_delta Shard_planner.delta_local_name;
    List.iter
      (fun p ->
        let dn = Shard_planner.delta_bcast_name p in
        Array.iter
          (fun nd ->
            if Catalog.mem nd.Node.catalog dn then
              Node.replace_table nd dn (Relation.create ~name:dn (arity_of p)))
          nodes)
      sp.Shard_planner.sp_bcast_delta
  in
  (* --- recovery-wrapped stratum driver --------------------------------- *)
  let eval_stratum (stratum : An.stratum) =
    check_timeout ();
    if options.rebalance then begin
      let moves =
        Rebalancer.plan ~shards:n_shards ~assign:(Partitioner.assignment part)
          ~weights:(Partitioner.weights part) ~busy:(Array.copy node_sim)
          ~threshold:options.rebalance_threshold
      in
      if moves <> [] then begin
        let rows = Rebalancer.apply part ex ~nodes ~moves in
        rebalance_moves := !rebalance_moves + List.length moves;
        rebalance_rows := !rebalance_rows + rows
      end
    end;
    let sp = Shard_planner.plan_stratum an part stratum in
    List.iter
      (fun (c, n) ->
        Hashtbl.replace classes c (n + Option.value ~default:0 (Hashtbl.find_opt classes c)))
      sp.Shard_planner.sp_classes;
    (* Committed-state snapshot for typed recovery, taken only when a chaos
       plan is armed (the only time a shard fault can fire). The copies are
       modeled as checkpoint storage outside the working set, so they stay
       unaccounted until a restore promotes them. *)
    if not (Inject.active ()) then eval_stratum_once sp stratum
    else begin
      let snapshot =
        Array.map
          (fun nd ->
            List.map
              (fun name -> (name, Relation.copy (Catalog.rel nd.Node.catalog name)))
              (Catalog.names nd.Node.catalog))
          nodes
      in
      let snap_assign = Partitioner.assignment part in
      let snap_weights = Partitioner.weights part in
      let snap_bcast = Hashtbl.copy bcast_built in
      let restore () =
        Partitioner.restore part ~assign:snap_assign ~weights:snap_weights;
        Hashtbl.reset bcast_built;
        Hashtbl.iter (fun k v -> Hashtbl.replace bcast_built k v) snap_bcast;
        Array.iteri
          (fun i nd ->
            List.iter (fun name -> Catalog.drop nd.Node.catalog name)
              (Catalog.names nd.Node.catalog);
            List.iter
              (fun (name, r) ->
                let c = Relation.copy ~name r in
                Relation.account c;
                Catalog.register nd.Node.catalog name c)
              snapshot.(i);
            List.iter (Catalog.analyze_rows nd.Node.catalog) (Catalog.names nd.Node.catalog))
          nodes
      in
      let rec attempt k =
        try eval_stratum_once sp stratum
        with
        | Fault.Injected { cls = (Fault.Node_loss | Fault.Shuffle_drop) as cls; point }
        ->
          if k >= options.max_recoveries then raise (Fault.Injected { cls; point })
          else begin
            incr recoveries;
            (match trace with
            | Some tr -> Trace.count tr "shard.recoveries" 1
            | None -> ());
            restore ();
            attempt (k + 1)
          end
      in
      attempt 0
    end
  in
  List.iter eval_stratum an.An.strata;
  (* --- results ---------------------------------------------------------- *)
  let assembled = Hashtbl.create 16 in
  let relation_of name =
    match Hashtbl.find_opt assembled name with
    | Some r -> r
    | None ->
        let r = assemble_global ~name name in
        Hashtbl.replace assembled name r;
        r
  in
  let output_names =
    if program.Ast.outputs = [] then an.An.idbs else program.Ast.outputs
  in
  let outputs = List.map (fun n -> (n, relation_of n)) output_names in
  let class_count c = Option.value ~default:0 (Hashtbl.find_opt classes c) in
  let node_stats =
    Array.to_list
      (Array.mapi
         (fun i nd ->
           {
             ns_node = i;
             ns_rows =
               Node.rows nd
                 (List.map Shard_planner.local_name (an.An.edbs @ an.An.idbs));
             ns_bytes = Node.bytes nd;
             ns_busy_s = node_busy.(i);
             ns_sim_s = node_sim.(i);
             ns_queries = nd.Node.queries;
           })
         nodes)
  in
  (match trace with
  | Some tr ->
      Trace.count tr "shard.shards" n_shards;
      Trace.count tr "shard.supersteps" !supersteps;
      Trace.count tr "shard.colocated_rules" (class_count Shard_planner.Colocated);
      Trace.count tr "shard.broadcast_rules" (class_count Shard_planner.Broadcast_static);
      Trace.count tr "shard.shuffled_rules" (class_count Shard_planner.Shuffled);
      Trace.count tr "shard.shuffle_tuples" ex.Exchange.shuffle_tuples;
      Trace.count tr "shard.shuffle_bytes" ex.Exchange.shuffle_bytes;
      Trace.count tr "shard.shuffle_msgs" ex.Exchange.shuffle_msgs;
      Trace.count tr "shard.broadcast_tuples" ex.Exchange.broadcast_tuples;
      Trace.count tr "shard.rebalance_moves" !rebalance_moves;
      Trace.count tr "shard.rebalance_rows" !rebalance_rows
  | None -> ());
  {
    outputs;
    relation_of;
    iterations = !total_iterations;
    queries = !queries;
    supersteps = !supersteps;
    recoveries = !recoveries;
    colocated_rules = class_count Shard_planner.Colocated;
    broadcast_rules = class_count Shard_planner.Broadcast_static;
    shuffled_rules = class_count Shard_planner.Shuffled;
    rebalance_moves = !rebalance_moves;
    rebalance_rows = !rebalance_rows;
    shuffle_tuples = ex.Exchange.shuffle_tuples;
    shuffle_bytes = ex.Exchange.shuffle_bytes;
    shuffle_msgs = ex.Exchange.shuffle_msgs;
    broadcast_tuples = ex.Exchange.broadcast_tuples;
    node_stats;
  }
