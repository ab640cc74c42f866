(** Incremental view maintenance over a stratified program (the typed
    delta-stream consumer behind the serving layer's warm refresh).

    A maintained view holds the full materialized state of every relation
    plus, for non-recursive strata, per-tuple {e derivation counts}.
    {!apply} consumes a typed {!Rs_relation.Delta.t} over the EDB and
    returns the exact net delta it induced on the IDB relations, updating
    the materialized state in place.

    Maintenance mode is chosen {e per stratum}:

    - {b Counting} (non-recursive strata): each rule's contribution to a
      head tuple is a signed derivation count, maintained exactly by the
      telescoping delta-rule expansion
      [Δ(L1 ⋈ … ⋈ Ln) = Σ_i new(L1..L(i-1)) ⋈ ΔLi ⋈ old(L(i+1)..Ln)].
      A tuple enters the view when its count goes 0 → positive and leaves
      when it returns to 0. Counts through a negated literal invert the
      sign of the underlying relation's delta. Counting is exact here
      because a non-recursive stratum is a single SCC with no internal
      edge — no derivation cycles, so counts are finite and well-defined.

    - {b DRed} (recursive strata): derivation counts diverge on cycles
      (a tuple can transitively support itself), so recursive strata keep
      sets only and maintain them by delete-and-rederive: overestimate
      deletions against the old state, remove them, re-derive survivors
      from the remaining database, then propagate insertions semi-naively.

    A view is {e seeded}, not evaluated: {!create} installs a fixpoint the
    caller already has (the engine run that served the query) and does no
    fixpoint iteration of its own. Recursive strata take the supplied rows
    as their whole state. Counting strata enumerate each rule body once
    over them, only to seed the derivation counts, and reject rows their
    rules do not derive. Seeding is what makes rules whose bodies hold with
    no positive support (empty bodies, negation over an empty relation)
    safe: no delta would ever trigger them, but the supplied fixpoint
    already contains their heads.

    EDB relations come from a {!snapshot}, an immutable set per relation.
    Many views may share one snapshot: {!apply} replaces a view's own
    relation values with new persistent sets and never mutates a shared
    one, so a delta folded into one view leaves its siblings' rows intact. *)

exception Unsupported of string
(** The program uses a feature maintenance does not cover (aggregates —
    the same frontier as the {!Naive} oracle). *)

exception Count_underflow of { pred : string; row : int list; count : int }
(** A derivation count went negative: an internal invariant violation
    (retracting more derivations than were ever counted), never a
    user-input error — user-level over-retraction nets to a no-op during
    delta normalization. *)

type t

val supported : Ast.program -> bool
(** [true] when {!create} would not raise {!Unsupported} (the program has
    no aggregates). Analysis errors are not masked — an ill-formed program
    still raises {!Analyzer.Analysis_error} at {!create}. *)

type snapshot
(** One immutable EDB state (relation name to its rows), shareable by every
    view built over the same database version. *)

val snapshot : (string * int list list) list -> snapshot
(** Build a snapshot. Raises [Invalid_argument] when the rows of one
    relation disagree on arity. *)

val idb_rows :
  Ast.program -> (string -> Rs_relation.Relation.t) -> (string * int list list) list
(** [idb_rows program relation_of] reads every IDB of [program] from an
    evaluation's relation lookup, sorted and duplicate-free: the [~idb]
    argument of {!create} for a view seeded from an engine run. *)

val create :
  ?prov:Provenance.t ->
  edb:snapshot ->
  idb:(string * int list list) list ->
  Ast.program ->
  t
(** Seed the maintained view of [program] from the EDB snapshot [edb] and
    the program's fixpoint over it, [idb] (every IDB predicate's rows). No
    fixpoint is computed here; counting strata enumerate their rule bodies
    once to seed derivation counts. Raises {!Unsupported} on aggregates,
    [Analyzer.Analysis_error] on an ill-formed program, and
    [Invalid_argument] when [edb] lacks an input, [idb] lacks a predicate,
    a row's arity disagrees with the program, or a counting stratum's
    enumeration disagrees with its supplied rows. With [prov], every IDB
    row is tagged at iteration 0 of its stratum, and each {!apply}
    afterwards reconciles the store against its net change (inserted rows
    tagged at the apply's sequence point, retracted rows dropped) — so a
    maintained view stays {!Explain}-able across EDB deltas. *)

val apply : t -> Rs_relation.Delta.t -> Rs_relation.Delta.t
(** [apply t d] folds a typed EDB delta into the view and returns the net
    IDB delta (insertions and retractions across all IDB predicates, in
    stratum order). [d] has set-level semantics: inserting a present tuple
    or retracting an absent one is a counted no-op, and flip-flops within
    the batch net out ({!Rs_relation.Delta.normalize}). Unknown relation
    names and rows whose arity disagrees with the program raise
    [Invalid_argument]; deltas naming IDB predicates are rejected the same
    way (IDBs change only through maintenance). *)

val rows : t -> string -> int list list
(** Current materialized rows of any relation, sorted ascending,
    duplicate-free — same contract as the {!Naive} oracle's lookup. *)

val idbs : t -> string list

val analyzer : t -> Analyzer.t
(** The program analysis backing the view — what {!Explain.explain}
    needs alongside {!rows}. *)

val provenance : t -> Provenance.t option
(** The tag store supplied at {!create}, kept current by every {!apply}. *)

val outputs : t -> (string * int list list) list
(** [rows] for every IDB predicate, in stratum order — the shape the
    serving layer caches. *)

type stats = {
  applies : int;  (** {!apply} calls, plus one for the {!create} seeding *)
  count_updates : int;  (** signed derivation-count adjustments *)
  dred_deleted : int;  (** DRed overestimated deletions *)
  dred_rederived : int;  (** deletions taken back by re-derivation *)
  emitted_inserts : int;  (** IDB insertions across all emitted deltas *)
  emitted_retracts : int;  (** IDB retractions across all emitted deltas *)
}

val stats : t -> stats
