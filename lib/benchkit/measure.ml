module Pool = Rs_parallel.Pool
module Memtrack = Rs_storage.Memtrack
module Engine_intf = Rs_engines.Engine_intf

type 'a engine_outcome = 'a Engine_intf.outcome =
  | Done of 'a
  | Oom
  | Timeout
  | Unsupported of string
  | Fault of { cls : Rs_chaos.Fault.cls; point : string }

type outcome = float engine_outcome

type run = {
  run_name : string;
  outcome : outcome;
  peak_mem_pct : float;
  mem_timeline : (float * float) list;
  util_timeline : (float * float) list;
  workers : int;
  wall_s : float;
  trace : Rs_obs.Trace.t option;
}

let util_series pool ~buckets =
  let events = Pool.events pool in
  let stats = Pool.stats pool in
  let span = max stats.Pool.vtime 1e-9 in
  let width = span /. float_of_int buckets in
  let busy = Array.make buckets 0.0 in
  (* batches spread their busy time uniformly over their makespan *)
  List.iter
    (fun e ->
      let t0 = e.Pool.ev_vstart and len = max e.Pool.ev_vlen 1e-12 in
      let rate = e.Pool.ev_busy /. len in
      let b0 = int_of_float (t0 /. width) and b1 = int_of_float ((t0 +. len) /. width) in
      for b = max 0 b0 to min (buckets - 1) b1 do
        let lo = max t0 (float_of_int b *. width) in
        let hi = min (t0 +. len) (float_of_int (b + 1) *. width) in
        if hi > lo then busy.(b) <- busy.(b) +. (rate *. (hi -. lo))
      done)
    events;
  (* time not covered by batches is serial: one worker busy *)
  let batch_cover = Array.make buckets 0.0 in
  List.iter
    (fun e ->
      let t0 = e.Pool.ev_vstart and len = e.Pool.ev_vlen in
      let b0 = int_of_float (t0 /. width) and b1 = int_of_float ((t0 +. len) /. width) in
      for b = max 0 b0 to min (buckets - 1) b1 do
        let lo = max t0 (float_of_int b *. width) in
        let hi = min (t0 +. len) (float_of_int (b + 1) *. width) in
        if hi > lo then batch_cover.(b) <- batch_cover.(b) +. (hi -. lo)
      done)
    events;
  let k = float_of_int stats.Pool.workers in
  List.init buckets (fun b ->
      let serial = max 0.0 (width -. batch_cover.(b)) in
      let total_busy = busy.(b) +. serial in
      (float_of_int b *. width, 100.0 *. total_busy /. (k *. width)))

let run_once ?workers ?mem_budget ?timeout_vs ?(with_trace = true) ~name ~make_inputs f =
  Memtrack.hard_reset ();
  Memtrack.set_budget None;
  let inputs = make_inputs () in
  Memtrack.set_budget
    (Some (Option.value mem_budget ~default:(Memtrack.machine_bytes ())));
  let pool = Pool.create ?workers () in
  let trace =
    if with_trace then Some (Rs_obs.Trace.create ~now:(fun () -> Pool.vtime_now pool) ())
    else None
  in
  let mem_samples = ref [] in
  let last_sample = ref (-1.0) in
  Pool.on_progress pool (fun vt ->
      if vt -. !last_sample > 0.0005 then begin
        last_sample := vt;
        mem_samples := (vt, Memtrack.percent (Memtrack.live ())) :: !mem_samples
      end);
  Memtrack.reset_peak ();
  let wall0 = Rs_util.Clock.now () in
  Pool.begin_run pool;
  (* the simulated failures fold into [outcome] at this one boundary *)
  let outcome =
    Engine_intf.outcome_map
      (fun () -> (Pool.stats pool).Pool.vtime)
      (Engine_intf.guard (fun () -> f inputs pool ~deadline_vs:timeout_vs ~trace))
  in
  Memtrack.set_budget None;
  let stats = Pool.stats pool in
  mem_samples := (stats.Pool.vtime, Memtrack.percent (Memtrack.live ())) :: !mem_samples;
  (* mirror the pool's batch events so the profile is self-contained *)
  (match trace with
  | Some tr ->
      List.iter
        (fun e ->
          Rs_obs.Trace.add_batch tr ~start:e.Pool.ev_vstart ~len:e.Pool.ev_vlen
            ~busy:e.Pool.ev_busy)
        (Pool.events pool)
  | None -> ());
  {
    run_name = name;
    outcome;
    peak_mem_pct = Memtrack.percent (Memtrack.peak ());
    mem_timeline = List.rev !mem_samples;
    util_timeline = util_series pool ~buckets:20;
    workers = stats.Pool.workers;
    wall_s = Rs_util.Clock.now () -. wall0;
    trace;
  }

let run ?workers ?mem_budget ?timeout_vs ?(repeats = 1) ?with_trace ~name ~make_inputs f =
  if repeats <= 1 then run_once ?workers ?mem_budget ?timeout_vs ?with_trace ~name ~make_inputs f
  else begin
    (* paper methodology: discard the first run, average the rest *)
    ignore
      (run_once ?workers ?mem_budget ?timeout_vs ~with_trace:false ~name ~make_inputs f);
    let runs =
      List.init repeats (fun _ ->
          run_once ?workers ?mem_budget ?timeout_vs ?with_trace ~name ~make_inputs f)
    in
    let last = List.nth runs (repeats - 1) in
    let times =
      List.filter_map (fun r -> match r.outcome with Done t -> Some t | _ -> None) runs
    in
    if List.length times = repeats then
      let avg = List.fold_left ( +. ) 0.0 times /. float_of_int repeats in
      { last with outcome = Done avg }
    else last
  end

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Measure.median"
  | sorted -> List.nth sorted (List.length sorted / 2)

let outcome_cell = function
  | Done t -> Printf.sprintf "%.3f" t
  | Oom -> "OOM"
  | Timeout -> "timeout"
  | Unsupported _ -> "-"
  | Fault { cls; _ } -> Printf.sprintf "fault:%s" (Rs_chaos.Fault.cls_name cls)
