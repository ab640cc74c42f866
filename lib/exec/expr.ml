type t =
  | Col of int
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred = Cmp of cmp * t * t

let rec eval get = function
  | Col c -> get c
  | Const k -> k
  | Add (a, b) -> eval get a + eval get b
  | Sub (a, b) -> eval get a - eval get b
  | Mul (a, b) -> eval get a * eval get b

let test get (Cmp (op, a, b)) =
  let x = eval get a and y = eval get b in
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let rec cols = function
  | Col c -> [ c ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> cols a @ cols b

let pred_cols (Cmp (_, a, b)) = cols a @ cols b

let rec map_cols f = function
  | Col c -> Col (f c)
  | Const x -> Const x
  | Add (a, b) -> Add (map_cols f a, map_cols f b)
  | Sub (a, b) -> Sub (map_cols f a, map_cols f b)
  | Mul (a, b) -> Mul (map_cols f a, map_cols f b)

let map_pred_cols f (Cmp (op, a, b)) = Cmp (op, map_cols f a, map_cols f b)

let shift k = map_cols (fun c -> c + k)

let shift_pred k = map_pred_cols (fun c -> c + k)

let rec to_string = function
  | Col c -> Printf.sprintf "$%d" c
  | Const k -> string_of_int k
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)

let cmp_to_string = function
  | Eq -> "=" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pred_to_string (Cmp (op, a, b)) =
  Printf.sprintf "%s %s %s" (to_string a) (cmp_to_string op) (to_string b)
