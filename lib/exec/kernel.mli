(** Compiled rule kernels: the fused join→project→dedup fast path.

    The interpreter's per-iteration loop issues one "SQL query" per delta
    plan, materializes the bag result, and deduplicates it in a separate
    pass — faithful to RecStep-over-QuickStep, but it pays the per-query
    dispatch overhead and an intermediate relation every iteration.
    "Making Formulog Fast" and the GPU Datalog work (PAPERS.md) both show
    what specialized, fused evaluation buys; this module reproduces that
    shape over the columnar substrate.

    {!compile} turns one delta plan of a hot recursive rule into a probe
    chain, scan→probe*→project→dedup: a batched scan of the Δ-table (over
    the worker pool), then one index probe per remaining body atom — each
    index acquired through the executor's three-tier policy, so recursive
    and EDB tables hit the persistent {!Index_manager} indexes — then head
    projection and FAST-DEDUP ({!Rs_relation.Dedup}) insertion, all fused
    into one loop nest. No intermediate relation is materialized and no
    query is issued.

    The planner's left-deep join tree is flattened into atoms over one
    column frame whose columns are grouped into classes under the join
    equalities; each probe keys on every column of its atom whose class is
    already bound, so transitive equalities become probe keys. Every
    filter, residual comparison and same-class equality runs at the
    earliest stage that binds all of its classes. A projection-only rule is
    a chain of length 0, a binary join a chain of length 1; k-way bodies
    (SG, Andersen, CSPA) are longer chains. Negation, aggregates and cross
    products (an atom the Δ-atom cannot reach through shared variables)
    return [Error reason] and stay interpreted; {!Cost.kernel_gate} screens
    out cold / aggregate / wide-headed rules before plans are even
    inspected. The last link is monomorphic in head arity (1/2/3 fast
    paths, generic fallback) and each probe in key width (1/2-column
    specializations).

    Chaos: both entry points probe {!Rs_chaos.Inject.kernel_should_fail}.
    A compile-time fire yields [Error "chaos"]; an exec-time fire raises
    {!Degraded} {e before any write}, so the interpreter can always fall
    back to the interpreted plan — a kernel fault can cost time, never
    correctness. *)

exception Degraded of string
(** Raised by {!run} when an armed {!Rs_chaos.Fault.Kernel_fail} plan fires
    at [kernel.exec]. Guaranteed to be raised before the kernel writes to
    its dedup table or output relation. *)

type t
(** A compiled kernel for one delta plan of one rule. *)

val compile :
  Executor.t -> probe_table:string -> Plan.t -> (t, string) result
(** [compile ex ~probe_table plan] compiles [plan] into a fused kernel that
    scans [probe_table] (the rule's Δ-table for this plan) and probes the
    other body atoms in turn. [Error reason] (["shape"] / ["negation"] /
    ["aggregate"] / ["cross"] / ["probe"] / ["chaos"]) means the rule must
    stay on the interpreted path. Compilation never touches table contents
    — only the catalog's arities — so it is safe at stratum setup. *)

val run :
  Executor.t -> t -> dedup:Rs_relation.Dedup.t -> out:Rs_relation.Relation.t -> int
(** [run ex k ~dedup ~out] executes the kernel batch-at-a-time over the
    pool: every surviving match is claimed in [dedup] and appended to [out]
    iff fresh. Returns the number of tuples emitted. The caller owns
    [dedup] and [out], including their memory accounting after the batch.
    Runs inside a trace span of kind ["kernel"] and records
    [kernel.execs] / [kernel.fused_probes] (Δ rows scanned) /
    [kernel.emitted] / [kernel.batches] / [kernel.batch_rows], plus its
    FAST-DEDUP claims as [dedup.probes] and claims minus emitted as
    [dedup.hits], on the executor's trace. May raise {!Degraded} (chaos) —
    always before any write. *)
