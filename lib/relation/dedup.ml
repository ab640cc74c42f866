module Int_vec = Rs_util.Int_vec
module Int_key = Rs_util.Int_key
module Memtrack = Rs_storage.Memtrack

type mode = Fast | Boxed

(* Fast arity<=2: packed keys in [keys]; chains in [nexts]; bucket heads in
   [heads] (-1 = empty). Fast arity>2: tuples flattened into [wide], keyed by
   combined hash; [keys] then stores the row index into [wide]. *)
type fast = {
  farity : int;
  mutable heads : int array;
  nexts : Int_vec.t;
  keys : Int_vec.t;
  wide : Int_vec.t;  (* used when [packed] is false and farity > 1 *)
  mutable count : int;
  mutable mask : int;
  mutable rehashes : int;  (* bucket-array doublings since [create] *)
  mutable packed : bool;
      (* arity-2 tables start packed and migrate to the wide layout on the
         first tuple outside [0, 2^31) (e.g. a negative attribute); arity-1
         keys are raw values and stay packed for any int *)
}

type impl = F of fast | B of (int array, unit) Hashtbl.t

type t = { mode : mode; arity : int; impl : impl; mutable accounted : int }

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let create ?(expected = 64) mode arity =
  if arity < 1 then invalid_arg "Dedup.create";
  let impl =
    match mode with
    | Boxed -> B (Hashtbl.create (max 16 expected))
    | Fast ->
        (* Chaos fault point: allocation of a fast dedup table fails. *)
        Rs_chaos.Inject.dedup_should_fail ~point:"dedup.create";
        let cap = pow2_at_least (2 * max 16 expected) in
        F
          {
            farity = arity;
            heads = Array.make cap (-1);
            nexts = Int_vec.create ();
            keys = Int_vec.create ();
            wide = Int_vec.create ();
            count = 0;
            mask = cap - 1;
            rehashes = 0;
            packed = arity <= 2;
          }
  in
  { mode; arity; impl; accounted = 0 }

let mode t = t.mode
let arity t = t.arity

let rehash f =
  (* Chaos fault point: growth of a fast dedup table fails. *)
  Rs_chaos.Inject.dedup_should_fail ~point:"dedup.rehash";
  let cap = 2 * Array.length f.heads in
  let heads = Array.make cap (-1) in
  let mask = cap - 1 in
  let nexts = Int_vec.unsafe_data f.nexts in
  let keys = Int_vec.unsafe_data f.keys in
  for slot = 0 to f.count - 1 do
    let h =
      if f.packed then Int_key.hash keys.(slot) land mask else keys.(slot) land mask
    in
    nexts.(slot) <- heads.(h);
    heads.(h) <- slot
  done;
  f.heads <- heads;
  f.mask <- mask;
  f.rehashes <- f.rehashes + 1

(* --- packed (arity <= 2) path --- *)

let fast_add_packed f key =
  let h = Int_key.hash key land f.mask in
  let rec walk slot =
    if slot < 0 then false
    else if Int_vec.get f.keys slot = key then true
    else walk (Int_vec.get f.nexts slot)
  in
  if walk f.heads.(h) then false
  else if Rs_chaos.Inject.dedup_drops ~key then false
  else begin
    let slot = f.count in
    Int_vec.push f.keys key;
    Int_vec.push f.nexts f.heads.(h);
    f.heads.(h) <- slot;
    f.count <- f.count + 1;
    if f.count > Array.length f.heads then rehash f;
    true
  end

let fast_mem_packed f key =
  let h = Int_key.hash key land f.mask in
  let rec walk slot =
    if slot < 0 then false
    else if Int_vec.get f.keys slot = key then true
    else walk (Int_vec.get f.nexts slot)
  in
  walk f.heads.(h)

(* --- wide (arity > 2) path: keys stores the combined hash; wide stores the
   flattened tuple; equality re-checks attributes. --- *)

let wide_hash row =
  Array.fold_left Int_key.hash_combine 0x9E3779B9 row

let wide_eq f slot row =
  let base = slot * f.farity in
  let rec go i = i = f.farity || (Int_vec.get f.wide (base + i) = row.(i) && go (i + 1)) in
  go 0

let fast_add_wide f row =
  let hk = wide_hash row in
  let h = hk land f.mask in
  let rec walk slot =
    if slot < 0 then false
    else if Int_vec.get f.keys slot = hk && wide_eq f slot row then true
    else walk (Int_vec.get f.nexts slot)
  in
  if walk f.heads.(h) then false
  else if Rs_chaos.Inject.dedup_drops ~key:hk then false
  else begin
    let slot = f.count in
    Int_vec.push f.keys hk;
    Int_vec.push f.nexts f.heads.(h);
    Array.iter (Int_vec.push f.wide) row;
    f.heads.(h) <- slot;
    f.count <- f.count + 1;
    if f.count > Array.length f.heads then rehash f;
    true
  end

let fast_mem_wide f row =
  let hk = wide_hash row in
  let h = hk land f.mask in
  let rec walk slot =
    if slot < 0 then false
    else if Int_vec.get f.keys slot = hk && wide_eq f slot row then true
    else walk (Int_vec.get f.nexts slot)
  in
  walk f.heads.(h)

(* Packed arity-2 keys require attributes in [0, 2^31): the integer-mapped
   active domains of the paper's workloads satisfy this (§5.2), but parsed
   programs and EDBs may carry negative constants. The first tuple outside
   the packed range migrates the table to the wide layout: unpack every
   stored pair, re-key by tuple hash, and rebuild the buckets in place. *)
let migrate_to_wide f =
  let keys = Int_vec.unsafe_data f.keys in
  for slot = 0 to f.count - 1 do
    let x, y = Int_key.unpack2 keys.(slot) in
    Int_vec.push f.wide x;
    Int_vec.push f.wide y;
    keys.(slot) <- wide_hash [| x; y |]
  done;
  f.packed <- false;
  Array.fill f.heads 0 (Array.length f.heads) (-1);
  let nexts = Int_vec.unsafe_data f.nexts in
  for slot = 0 to f.count - 1 do
    let h = keys.(slot) land f.mask in
    nexts.(slot) <- f.heads.(h);
    f.heads.(h) <- slot
  done

let fast_add2 f x y =
  if f.packed then
    if Int_key.fits2 x y then fast_add_packed f (Int_key.pack2 x y)
    else begin
      migrate_to_wide f;
      fast_add_wide f [| x; y |]
    end
  else fast_add_wide f [| x; y |]

let fast_mem2 f x y =
  if f.packed then Int_key.fits2 x y && fast_mem_packed f (Int_key.pack2 x y)
  else fast_mem_wide f [| x; y |]

let add2 t x y =
  assert (t.arity = 2);
  match t.impl with
  | F f -> fast_add2 f x y
  | B h ->
      let k = [| x; y |] in
      if Hashtbl.mem h k then false
      else begin
        Hashtbl.add h k ();
        true
      end

let add1 t x =
  assert (t.arity = 1);
  match t.impl with
  | F f -> fast_add_packed f x
  | B h ->
      let k = [| x |] in
      if Hashtbl.mem h k then false
      else begin
        Hashtbl.add h k ();
        true
      end

let add_row t row =
  if Array.length row <> t.arity then invalid_arg "Dedup.add_row";
  match t.impl with
  | F f ->
      if t.arity = 1 then fast_add_packed f row.(0)
      else if t.arity = 2 then fast_add2 f row.(0) row.(1)
      else fast_add_wide f row
  | B h ->
      if Hashtbl.mem h row then false
      else begin
        Hashtbl.add h (Array.copy row) ();
        true
      end

let mem_row t row =
  match t.impl with
  | F f ->
      if t.arity = 1 then fast_mem_packed f row.(0)
      else if t.arity = 2 then fast_mem2 f row.(0) row.(1)
      else fast_mem_wide f row
  | B h -> Hashtbl.mem h row

let mem2 t x y = mem_row t [| x; y |]

let cardinal t =
  match t.impl with F f -> f.count | B h -> Hashtbl.length h

let rehashes t = match t.impl with F f -> f.rehashes | B _ -> 0

(* Estimated GC-heap footprint of a Hashtbl entry: bucket cons (3 words) +
   boxed key array header+data. *)
let boxed_entry_bytes arity = 8 * (3 + 1 + arity) + 16

let bytes t =
  match t.impl with
  | F f ->
      (8 * Array.length f.heads)
      + Int_vec.capacity_bytes f.nexts + Int_vec.capacity_bytes f.keys
      + Int_vec.capacity_bytes f.wide
  | B h -> (Hashtbl.length h * boxed_entry_bytes t.arity) + (8 * 16)

let account t =
  let b = bytes t in
  let delta = b - t.accounted in
  if delta > 0 then Memtrack.alloc delta else Memtrack.free (-delta);
  t.accounted <- b

let release t =
  Memtrack.free t.accounted;
  t.accounted <- 0

let dedup_chunk t r out lo hi =
  match Relation.arity r with
  | 1 ->
      let c0 = Relation.col r 0 in
      for i = lo to hi - 1 do
        let x = Int_vec.get c0 i in
        if add1 t x then Relation.push1 out x
      done
  | 2 ->
      let c0 = Relation.col r 0 and c1 = Relation.col r 1 in
      for i = lo to hi - 1 do
        let x = Int_vec.get c0 i and y = Int_vec.get c1 i in
        if add2 t x y then Relation.push2 out x y
      done
  | arity ->
      let row = Array.make arity 0 in
      for i = lo to hi - 1 do
        for c = 0 to arity - 1 do
          row.(c) <- Relation.get r ~row:i ~col:c
        done;
        if add_row t row then Relation.push_row out row
      done

(* probes = input tuples, hits = duplicates absorbed by the table,
   rehashes = times the table outgrew its pre-allocated buckets *)
let record_trace trace t r distinct =
  match trace with
  | None -> ()
  | Some tr ->
      let probes = Relation.nrows r in
      Rs_obs.Trace.count tr "dedup.probes" probes;
      Rs_obs.Trace.count tr "dedup.hits" (max 0 (probes - distinct));
      Rs_obs.Trace.count tr "dedup.rehashes" (rehashes t)

let dedup_relation_parallel ?expected ?trace ~pool mode r =
  let go () =
    let arity = Relation.arity r in
    let n = Relation.nrows r in
    let t = create ~expected:(Option.value expected ~default:(max 16 n)) mode arity in
    let fragments = ref [] in
    Rs_parallel.Pool.parallel_for pool 0 n (fun lo hi ->
        let frag = Relation.create arity in
        dedup_chunk t r frag lo hi;
        fragments := frag :: !fragments);
    let merged = Relation.concat_parallel pool arity (List.rev !fragments) in
    account t;
    release t;
    record_trace trace t r (Relation.nrows merged);
    merged
  in
  match trace with
  | Some tr -> Rs_obs.Trace.span tr ~kind:"dedup" (Relation.name r) go
  | None -> go ()

let dedup_relation ?expected ?trace mode r =
  let go () =
    let arity = Relation.arity r in
    let n = Relation.nrows r in
    let t = create ~expected:(Option.value expected ~default:(max 16 n)) mode arity in
    let out = Relation.create ~name:(Relation.name r ^ "_dedup") arity in
    dedup_chunk t r out 0 n;
    account t;
    Relation.account out;
    release t;
    record_trace trace t r (Relation.nrows out);
    out
  in
  match trace with
  | Some tr -> Rs_obs.Trace.span tr ~kind:"dedup" (Relation.name r) go
  | None -> go ()
