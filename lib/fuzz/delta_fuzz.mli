(** Delta-sequence fuzzing: incremental maintenance vs recompute.

    Where {!Fuzz} diffs engines on a single evaluation, this mode diffs
    {e maintenance over time}: each generated case gets a random stream of
    typed insert/retract deltas ({!Rs_relation.Delta.t}), applied through
    the counting/DRed IVM ({!Recstep.Ivm}), and at {e every} version the
    maintained IDB state is compared against a from-scratch naive recompute
    on a set-level mirror of the EDB. The view is seeded the way the
    serving layer seeds it, from an interpreter run on the mirror, so
    version 0 also diffs that run against the oracle. The streams deliberately cover the
    retraction edge cases: retracting absent rows, retract-then-reinsert of
    a held row within one delta, and deletions that empty a relation.
    Deterministic per seed — the CI smoke pins one. *)

type divergence = {
  div_seed : int;  (** the case seed, for replay *)
  div_version : int;  (** 0 = bootstrap, k = after the k-th delta *)
  div_pred : string;
  div_missing : int list list;  (** oracle rows the IVM lost *)
  div_extra : int list list;  (** IVM rows the oracle refutes *)
}

type report = {
  seed : int;
  cases : int;
  invalid : int;  (** cases the naive oracle rejected at bootstrap *)
  versions : int;  (** deltas applied and checked, across all cases *)
  ops : int;  (** total insert/retract operations streamed *)
  divergences : divergence list;
}

val case_seed : seed:int -> int -> int
(** The derived per-case seed (the {!Gen.gen_case} input) for iteration
    [i]. *)

val interpreter_fixpoint :
  Recstep.Ast.program -> (string * int list list) list -> (string * int list list) list
(** [interpreter_fixpoint program edb] evaluates [program] once with
    {!Recstep.Interpreter.run} over set-level EDB rows and returns every
    IDB's rows — the [~idb] seed of {!Recstep.Ivm.create}. Bytes the run
    accounts are released. Raises what the interpreter raises. *)

val run_case :
  cseed:int -> deltas:int -> Gen.case -> int * int * divergence list
(** Stream [deltas] random updates through one case, checking every version;
    returns (versions checked, ops streamed, divergences). Stops at the
    first diverging version. *)

val run :
  ?log:(string -> unit) -> seed:int -> iters:int -> ?deltas:int -> unit -> report
(** [iters] cases, [deltas] (default 8) versions each. *)

val clean : report -> bool

val report_json : report -> Rs_obs.Json.t
