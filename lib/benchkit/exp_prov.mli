(** Why-provenance recording overhead: TC and SG evaluated with a tag
    store attached vs without. Prints the per-workload table and writes
    the machine-readable summary — per-side median simulated runtimes over
    5 alternating repeats, the on/off overhead ratio, tag counts and
    coverage, and whether outputs were byte-identical — to [BENCH_prov.json] in the working directory. The
    acceptance bar ([bench/check.sh]): outputs identical and overhead at
    most 2x on every workload. *)

val exp : scale:int -> unit

val run : scale:int -> unit
