module Int_vec = Rs_util.Int_vec
module Int_key = Rs_util.Int_key

type tag = { t_stratum : int; t_iteration : int; t_seq : int }

(* Rows hash and compare as plain ints, not through the polymorphic
   [Hashtbl]'s generic hash and compare. *)
module Row_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash row = List.fold_left Int_key.hash_combine 0x9E3779B9 row
end)

(* Open addressing from a non-negative packed row (an arity-1 value, or an
   arity-2 pair under [Int_key.pack2]) to its tag's sequence number, with
   no heap block per tuple: boxed keys and buckets made tagging a PBME
   solve's output cost more than the solve. Slots marked [empty] or [gone]
   (retracted) hold negative keys, which no packed row has. *)
module Packed = struct
  type t = { mutable keys : int array; mutable seqs : int array; mutable live : int; mutable used : int }

  let empty = -1
  let gone = -2

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    { keys = Array.make !cap empty; seqs = Array.make !cap 0; live = 0; used = 0 }

  (* the slot holding [key], or else the empty slot ending its probe run *)
  let slot t key =
    let mask = Array.length t.keys - 1 in
    let rec go i =
      let k = t.keys.(i) in
      if k = key || k = empty then i else go ((i + 1) land mask)
    in
    go (Int_key.hash key land mask)

  (* 0 when absent: sequence numbers start at 1 *)
  let find t key =
    let i = slot t key in
    if t.keys.(i) = key then t.seqs.(i) else 0

  let insert t i key seq =
    t.keys.(i) <- key;
    t.seqs.(i) <- seq;
    t.live <- t.live + 1;
    t.used <- t.used + 1

  (* Stores [seq] under [key] unless [key] is present; true iff stored.
     Past half full (retracted slots included), the live keys first move to
     a table at most a quarter full. *)
  let add t key seq =
    let i = slot t key in
    if t.keys.(i) = key then false
    else begin
      if 2 * (t.used + 1) <= Array.length t.keys then insert t i key seq
      else begin
        let keys = t.keys and seqs = t.seqs in
        let fresh = create (2 * (t.live + 1)) in
        t.keys <- fresh.keys;
        t.seqs <- fresh.seqs;
        t.live <- 0;
        t.used <- 0;
        Array.iteri (fun j k -> if k >= 0 then insert t (slot t k) k seqs.(j)) keys;
        insert t (slot t key) key seq
      end;
      true
    end

  let remove t key =
    let i = slot t key in
    if t.keys.(i) = key then begin
      t.keys.(i) <- gone;
      t.live <- t.live - 1
    end
end

(* A row is packed when it can be; every other row (arity > 2, negative
   attributes) keys [rows]. *)
type table = { packed : Packed.t; rows : int Row_tbl.t }

let packed_key = function
  | [| x |] when x >= 0 -> x
  | [| x; y |] when Int_key.fits2 x y -> Int_key.pack2 x y
  | _ -> -1

(* A table maps a row to its tag's [t_seq]; the stratum and iteration of
   tag [seq] sit at index [seq - 1] of [strata] and [iters], so a tag is
   no heap block either. A retracted tuple's slots stay behind (16 bytes
   per tag ever recorded). *)
type t = {
  tables : (string, table) Hashtbl.t;
  strata : Int_vec.t;
  iters : Int_vec.t;
  sample_rate : float;
  mutable seq : int;
  mutable n_recorded : int;
  mutable n_skipped : int;
}

let create ?(sample = 1.0) () =
  if sample < 0.0 || sample > 1.0 then
    invalid_arg (Printf.sprintf "provenance: sample %g outside [0,1]" sample);
  {
    tables = Hashtbl.create 16;
    strata = Int_vec.create ();
    iters = Int_vec.create ();
    sample_rate = sample;
    seq = 0;
    n_recorded = 0;
    n_skipped = 0;
  }

let sample t = t.sample_rate

(* Deterministic content hash: the decision to tag a tuple must not depend
   on which evaluation path absorbed it, which attempt of the retry ladder
   is running, or the order tuples arrived in — only on the tuple itself.
   FNV-1a over the pred name and the row values. *)
let content_hash pred row =
  let h = ref 0x811c9dc5 in
  let mix v =
    h := (!h lxor (v land 0xff)) * 0x01000193;
    h := (!h lxor ((v asr 8) land 0xffff)) * 0x01000193;
    h := (!h lxor ((v asr 24) land 0xffff)) * 0x01000193
  in
  String.iter (fun c -> mix (Char.code c)) pred;
  List.iter mix row;
  !h land max_int

let sampled t ~pred row =
  t.sample_rate >= 1.0
  || (t.sample_rate > 0.0 && content_hash pred row mod 1_000_000 < int_of_float (t.sample_rate *. 1e6))

let table_of t pred ~expected =
  match Hashtbl.find_opt t.tables pred with
  | Some tbl -> tbl
  | None ->
      let tbl = { packed = Packed.create expected; rows = Row_tbl.create 16 } in
      Hashtbl.replace t.tables pred tbl;
      tbl

let next_seq t ~stratum ~iteration =
  t.seq <- t.seq + 1;
  Int_vec.push t.strata stratum;
  Int_vec.push t.iters iteration;
  t.n_recorded <- t.n_recorded + 1;
  t.seq

let recorder t ~pred ~stratum ~iteration ~expected =
  let tbl = table_of t pred ~expected in
  fun row ->
    if not (t.sample_rate >= 1.0 || sampled t ~pred (Array.to_list row)) then
      t.n_skipped <- t.n_skipped + 1
    else
      let key = packed_key row in
      if key >= 0 then begin
        if Packed.add tbl.packed key (t.seq + 1) then ignore (next_seq t ~stratum ~iteration)
      end
      else
        let row = Array.to_list row in
        if not (Row_tbl.mem tbl.rows row) then
          Row_tbl.add tbl.rows row (next_seq t ~stratum ~iteration)

let record t ~pred ~stratum ~iteration row =
  recorder t ~pred ~stratum ~iteration ~expected:1 (Array.of_list row)

let retract t ~pred row =
  match Hashtbl.find_opt t.tables pred with
  | Some tbl ->
      let key = packed_key (Array.of_list row) in
      if key >= 0 then Packed.remove tbl.packed key else Row_tbl.remove tbl.rows row
  | None -> ()

let find t ~pred row =
  match Hashtbl.find_opt t.tables pred with
  | None -> None
  | Some tbl -> (
      let key = packed_key (Array.of_list row) in
      let seq =
        if key >= 0 then Packed.find tbl.packed key
        else Option.value ~default:0 (Row_tbl.find_opt tbl.rows row)
      in
      match seq with
      | 0 -> None
      | seq ->
          Some
            {
              t_stratum = Int_vec.get t.strata (seq - 1);
              t_iteration = Int_vec.get t.iters (seq - 1);
              t_seq = seq;
            })

let tagged t ~pred =
  match Hashtbl.find_opt t.tables pred with
  | Some tbl -> tbl.packed.Packed.live + Row_tbl.length tbl.rows
  | None -> 0

let recorded t = t.n_recorded

let skipped t = t.n_skipped
