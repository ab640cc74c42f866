(** Compiled rule kernels vs the interpreted fixpoint: the same recursive
    workloads (TC, whose delta plan is a probe chain of length 1, and SG,
    whose three-way join is a chain of length 2) run with
    [compiled_kernels] on and off, PBME held off, on fresh pools. Prints
    the per-workload table and writes the machine-readable summary —
    per-side simulated runtimes, the off/on speedup ratio, kernel counters,
    and whether outputs were byte-identical — to [BENCH_kernel.json] in the
    working directory. *)

val exp : scale:int -> unit

val run : scale:int -> unit
