(** Measured runs: one engine on one workload under a memory budget and a
    simulated-time budget, with memory and CPU-utilization sampling.

    The harness's failure vocabulary matches the paper's: a run ends
    {!constructor-Done}, "Out of Memory", "timeout", or unsupported (a blank
    bar / missing system in the figures). It is the same vocabulary as
    {!Rs_engines.Engine_intf.outcome}, instantiated at [float]. *)

module Pool = Rs_parallel.Pool

type 'a engine_outcome = 'a Rs_engines.Engine_intf.outcome =
  | Done of 'a  (** for a measured run: simulated seconds *)
  | Oom
  | Timeout
  | Unsupported of string
  | Fault of { cls : Rs_chaos.Fault.cls; point : string }

type outcome = float engine_outcome

type run = {
  run_name : string;
  outcome : outcome;
  peak_mem_pct : float;  (** peak tracked bytes / machine bytes *)
  mem_timeline : (float * float) list;  (** (simulated s, mem %) *)
  util_timeline : (float * float) list;  (** (simulated s, utilization %) *)
  workers : int;
  wall_s : float;  (** real seconds the measurement took *)
  trace : Rs_obs.Trace.t option;  (** per-run profile, unless [with_trace:false] *)
}

val run :
  ?workers:int ->
  ?mem_budget:int ->
  ?timeout_vs:float ->
  ?repeats:int ->
  ?with_trace:bool ->
  name:string ->
  make_inputs:(unit -> 'i) ->
  ('i -> Pool.t -> deadline_vs:float option -> trace:Rs_obs.Trace.t option -> unit) ->
  run
(** [run ~name ~make_inputs f] builds the inputs (untimed, outside the
    budget), resets the memory tracker, and executes [f] on a fresh pool.
    [mem_budget] defaults to the machine size; [timeout_vs] to no limit.
    [repeats > 1] applies the paper's methodology: one discarded warm-up
    run, then the average of [repeats] measured runs (timelines, peak
    memory and trace come from the last).

    A trace on the pool's simulated clock is handed to [f] unless
    [with_trace:false]; after the run the pool's batch events are mirrored
    into it, so [run.trace] is a self-contained profile. The warm-up run is
    never traced.

    The three simulated failures are folded into the {!outcome} via
    {!Rs_engines.Engine_intf.guard} — [f] should let them propagate. *)

val median : float list -> float
(** The middle sample (the upper one of an even count). Raises
    [Invalid_argument] on an empty list. *)

val outcome_cell : outcome -> string
(** Short table cell: "12.3", "OOM", ">10h" (timeout), "-" (unsupported). *)

val util_series : Pool.t -> buckets:int -> (float * float) list
(** Post-hoc CPU-utilization timeline from the pool's batch events. *)
