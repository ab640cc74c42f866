(** Scalar expressions and predicates over relation rows.

    The query generator compiles Datalog terms (variables, constants,
    arithmetic in aggregate arguments, comparison atoms) into these
    expressions; the executor evaluates them against a column accessor. *)

type t =
  | Col of int  (** column of the operator's input schema *)
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred = Cmp of cmp * t * t

val eval : (int -> int) -> t -> int
(** [eval get e] evaluates [e] where [get c] reads column [c]. *)

val test : (int -> int) -> pred -> bool

val cols : t -> int list
(** Columns referenced by the expression. *)

val pred_cols : pred -> int list

val map_cols : (int -> int) -> t -> t
(** [map_cols f e] renames every column [c] of [e] to [f c]. *)

val map_pred_cols : (int -> int) -> pred -> pred

val shift : int -> t -> t
(** [shift k e] adds [k] to every column index (for re-basing expressions
    onto a concatenated join schema). *)

val shift_pred : int -> pred -> pred

val to_string : t -> string

val pred_to_string : pred -> string
