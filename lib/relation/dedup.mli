(** Tuple-set structures for deduplication (the paper's FAST-DEDUP).

    The paper's CCK-GSCHT is a global separate-chaining hash table whose
    entries are Compact Concatenated Keys: the whole tuple packed into one
    machine word that serves as key, value and hash at once. We provide:

    - {!Fast}: the CCK-GSCHT. Tuples of arity <= 2 are packed with
      {!Rs_util.Int_key.pack2} while every attribute stays in [0, 2^31);
      the first out-of-range pair (e.g. a negative constant from a parsed
      program) migrates the table to the wider flattened-arena layout that
      arity > 2 tuples always use — combined hashing, still pointer-free.
    - {!Boxed}: the "un-specialized" baseline used for the FAST-DEDUP-off
      ablation — a stdlib [Hashtbl] keyed by boxed [int array] tuples, which
      costs extra allocation, hashing and per-entry overhead.

    Memory is accounted to {!Rs_storage.Memtrack} (real array sizes for
    {!Fast}; a per-entry estimate of the GC-heap footprint for {!Boxed}).

    Fault injection: the {!Fast} insert paths probe
    {!Rs_chaos.Inject.dedup_drops} (silent per-key derivation loss — the
    corruption the differential fuzzer must catch) and table creation/growth
    probe {!Rs_chaos.Inject.dedup_should_fail}. Both are no-ops unless a
    chaos plan is armed in scope; {!Boxed} is unaffected. *)

type mode = Fast | Boxed

type t

val create : ?expected:int -> mode -> int -> t
(** [create mode arity] makes an empty set. [expected] pre-sizes the bucket
    array (the paper's pre-allocation, §5.1); a {!Fast} table that receives
    more distinct tuples than its buckets doubles them ({!rehashes}). *)

val mode : t -> mode

val arity : t -> int

val add2 : t -> int -> int -> bool
(** [add2 t x y] inserts the pair; [true] iff it was new. Arity must be 2. *)

val add_row : t -> int array -> bool

val add1 : t -> int -> bool

val mem_row : t -> int array -> bool

val mem2 : t -> int -> int -> bool

val cardinal : t -> int

val rehashes : t -> int
(** Times a {!Fast} table has doubled its bucket array since {!create}
    (always 0 for {!Boxed}, whose growth [Hashtbl] hides). *)

val bytes : t -> int

val account : t -> unit
(** Reconcile with the memory tracker (may raise [Simulated_oom]). *)

val release : t -> unit

val dedup_relation : ?expected:int -> ?trace:Rs_obs.Trace.t -> mode -> Relation.t -> Relation.t
(** [dedup_relation mode r] returns a fresh relation with [r]'s distinct
    tuples in first-occurrence order — the engine's [dedup(R)] call
    (Algorithm 1, line 10). When [trace] is given the call records a
    ["dedup"] span named after [r] plus [dedup.probes] (input tuples),
    [dedup.hits] (duplicates absorbed) and [dedup.rehashes] ({!rehashes})
    counters. *)

val dedup_relation_parallel :
  ?expected:int -> ?trace:Rs_obs.Trace.t -> pool:Rs_parallel.Pool.t -> mode -> Relation.t
  -> Relation.t
(** Like {!dedup_relation}, but tuples are inserted chunk-parallel through
    the worker pool — the CCK-GSCHT is a *global latch-free* table built for
    exactly this access pattern (paper Figure 5), so the engine's dedup step
    scales with cores. Output order is per-chunk first-occurrence. *)
