module Relation = Rs_relation.Relation
module Dedup = Rs_relation.Dedup
module Hash_index = Rs_relation.Hash_index
module Radix_index = Rs_relation.Radix_index
module Cck = Rs_relation.Cck_concurrent
module Pool = Rs_parallel.Pool

let check = Alcotest.(check bool)

let test_relation_basic () =
  let r = Relation.create ~name:"t" 3 in
  Relation.push3 r 1 2 3;
  Relation.push_row r [| 4; 5; 6 |];
  Alcotest.(check int) "nrows" 2 (Relation.nrows r);
  Alcotest.(check int) "get" 5 (Relation.get r ~row:1 ~col:1);
  Alcotest.(check string) "name" "t" (Relation.name r);
  Alcotest.check_raises "arity" (Invalid_argument "Relation.push_row: arity mismatch")
    (fun () -> Relation.push_row r [| 1 |])

let test_relation_roundtrip () =
  let rows = [ [| 3; 1 |]; [| 1; 2 |]; [| 3; 1 |] ] in
  let r = Relation.of_rows 2 rows in
  Alcotest.(check int) "kept duplicates (bag)" 3 (Relation.nrows r);
  Alcotest.(check int) "distinct" 2 (List.length (Relation.sorted_distinct_rows r))

let test_relation_copy_append () =
  let a = Relation.of_rows 2 [ [| 1; 2 |] ] in
  let b = Relation.copy a in
  Relation.push2 b 3 4;
  Alcotest.(check int) "copy isolated" 1 (Relation.nrows a);
  Relation.append_all a b;
  Alcotest.(check int) "appended" 3 (Relation.nrows a)

let test_concat_parallel () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let frags =
    List.init 5 (fun i -> Relation.of_rows 2 (List.init (i + 1) (fun j -> [| i; j |])))
  in
  let merged = Relation.concat_parallel pool 2 frags in
  let expected = List.concat_map Relation.to_rows frags in
  Alcotest.(check int) "rows" (List.length expected) (Relation.nrows merged);
  check "order preserved" true (Relation.to_rows merged = expected)

let test_accounting () =
  Rs_storage.Memtrack.hard_reset ();
  let r = Relation.of_rows 2 (List.init 100 (fun i -> [| i; i |])) in
  Relation.account r;
  check "accounted" true (Rs_storage.Memtrack.live () > 0);
  Relation.release r;
  Alcotest.(check int) "released" 0 (Rs_storage.Memtrack.live ())

(* --- dedup --- *)

let gen_pairs =
  QCheck2.Gen.(list (pair (int_range 0 50) (int_range 0 50)))

let prop_dedup_matches_set mode name =
  QCheck2.Test.make ~name ~count:200 gen_pairs (fun pairs ->
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let d = Dedup.dedup_relation mode r in
      Refs.sorted_pairs (Relation.to_rows d |> List.map (fun a -> a))
      = List.sort_uniq compare pairs)

let prop_dedup_parallel_matches =
  QCheck2.Test.make ~name:"parallel dedup = set" ~count:100 gen_pairs (fun pairs ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let d = Dedup.dedup_relation_parallel ~pool Dedup.Fast r in
      Refs.sorted_pairs (Relation.to_rows d) = List.sort_uniq compare pairs)

let prop_dedup_fast_eq_boxed =
  QCheck2.Test.make ~name:"fast dedup = boxed dedup" ~count:100
    QCheck2.Gen.(list (array_size (return 3) (int_range 0 30)))
    (fun rows ->
      let mk mode =
        let t = Dedup.create mode 3 in
        List.map (fun row -> Dedup.add_row t row) rows
      in
      mk Dedup.Fast = mk Dedup.Boxed)

let test_dedup_wide_membership () =
  let t = Dedup.create Dedup.Fast 4 in
  check "add" true (Dedup.add_row t [| 1; 2; 3; 4 |]);
  check "dup" false (Dedup.add_row t [| 1; 2; 3; 4 |]);
  check "mem" true (Dedup.mem_row t [| 1; 2; 3; 4 |]);
  check "not mem" false (Dedup.mem_row t [| 1; 2; 3; 5 |]);
  Alcotest.(check int) "cardinal" 1 (Dedup.cardinal t)

let test_dedup_rehash_growth () =
  let t = Dedup.create ~expected:4 Dedup.Fast 2 in
  for i = 0 to 9999 do
    check "new" true (Dedup.add2 t i (i * 31))
  done;
  for i = 0 to 9999 do
    check "dup" false (Dedup.add2 t i (i * 31))
  done;
  Alcotest.(check int) "cardinal" 10000 (Dedup.cardinal t)

(* Grow a Fast table from the smallest pre-allocation to >= 100k distinct
   tuples against a Hashtbl reference: every add must report freshness
   exactly as the reference does, and the final set must match it. [draw i]
   gives the i-th tuple (with repeats); [midway] runs once after [switch_at]
   draws, with the rehash count seen so far. *)
let grow_against_reference ?(switch_at = -1) ?(midway = fun _ -> ()) ~arity ~draws draw =
  let t = Dedup.create ~expected:16 Dedup.Fast arity in
  let reference = Hashtbl.create 1024 in
  let wrong = ref 0 in
  for i = 0 to draws - 1 do
    if i = switch_at then midway (Dedup.rehashes t);
    let row = draw i in
    let fresh = not (Hashtbl.mem reference row) in
    if fresh then Hashtbl.add reference row ();
    if Dedup.add_row t (Array.copy row) <> fresh then incr wrong
  done;
  Alcotest.(check int) "add agrees with the reference" 0 !wrong;
  Alcotest.(check int) "cardinal" (Hashtbl.length reference) (Dedup.cardinal t);
  check ">= 100k distinct" true (Dedup.cardinal t >= 100_000);
  check "grew by rehashing" true (Dedup.rehashes t > 0);
  let missing = Hashtbl.fold (fun row () n -> if Dedup.mem_row t row then n else n + 1) reference 0 in
  Alcotest.(check int) "every accepted tuple is a member" 0 missing;
  (* tuples never drawn: one attribute outside every draw's range *)
  let absent = ref 0 in
  for i = 0 to 999 do
    let row = Array.init arity (fun c -> if c = 0 then 10_000_000 + i else i) in
    if Dedup.mem_row t row then incr absent
  done;
  Alcotest.(check int) "no phantom members" 0 !absent;
  t

let growth_draw ~seed ~range ~arity =
  let st = Random.State.make [| seed |] in
  fun _ -> Array.init arity (fun _ -> Random.State.int st range)

let test_dedup_growth_arity1 () =
  ignore (grow_against_reference ~arity:1 ~draws:250_000 (growth_draw ~seed:1 ~range:300_000 ~arity:1))

let test_dedup_growth_arity2 () =
  ignore (grow_against_reference ~arity:2 ~draws:250_000 (growth_draw ~seed:2 ~range:1000 ~arity:2))

let test_dedup_growth_arity3 () =
  ignore (grow_against_reference ~arity:3 ~draws:250_000 (growth_draw ~seed:3 ~range:100 ~arity:3))

(* Packed pairs until the table has rehashed, then a negative attribute
   migrates it to the wide layout, which keeps growing. *)
let test_dedup_growth_packed_to_wide () =
  let st = Random.State.make [| 4 |] in
  let switch_at = 50_000 in
  let at_switch = ref 0 in
  let draw i =
    let x = Random.State.int st 1000 and y = Random.State.int st 1000 in
    if i < switch_at then [| x; y |] else [| x - 500; y |]
  in
  let midway r =
    check "rehashed while packed" true (r > 0);
    at_switch := r
  in
  let t = grow_against_reference ~switch_at ~midway ~arity:2 ~draws:300_000 draw in
  check "rehashed again after migrating" true (Dedup.rehashes t > !at_switch)

(* --- CCK concurrent, including a real multi-domain stress test --- *)

let test_cck_sequential () =
  let t = Cck.create ~capacity:1000 ~buckets:64 in
  check "add" true (Cck.add t 42);
  check "dup" false (Cck.add t 42);
  check "mem" true (Cck.mem t 42);
  check "not mem" false (Cck.mem t 43);
  Alcotest.(check int) "cardinal" 1 (Cck.cardinal t)

let test_cck_concurrent_domains () =
  (* Four real OCaml 5 domains hammer one table with overlapping ranges;
     the final set must be exactly [0, 4000). *)
  let t = Cck.create ~capacity:20000 ~buckets:1024 in
  let worker seed () =
    let rng = Rs_util.Rng.create seed in
    for _ = 1 to 8000 do
      ignore (Cck.add t (Rs_util.Rng.int rng 4000))
    done;
    for v = 0 to 3999 do
      ignore (Cck.add t v)
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  Alcotest.(check int) "exactly the range" 4000 (Cck.cardinal t);
  Alcotest.(check (list int)) "sorted contents" (List.init 4000 (fun i -> i)) (Cck.to_sorted_list t)

let test_cck_capacity_exhausted () =
  (* a full table fails with the typed exception (folded into Oom at the
     engine boundary), never a bare [failwith] *)
  let t = Cck.create ~capacity:4 ~buckets:16 in
  for v = 0 to 3 do
    check "add" true (Cck.add t v)
  done;
  Alcotest.check_raises "typed capacity failure"
    (Cck.Capacity_exhausted { capacity = 4 })
    (fun () -> ignore (Cck.add t 99));
  Alcotest.(check bool) "guard folds it to Oom" true
    (Rs_engines.Engine_intf.guard (fun () -> ignore (Cck.add t 100)) = Rs_engines.Engine_intf.Oom)

(* --- hash index --- *)

let prop_index_matches_scan =
  QCheck2.Test.make ~name:"hash index = naive scan" ~count:200
    QCheck2.Gen.(pair gen_pairs (int_range 0 50))
    (fun (pairs, probe) ->
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let idx = Hash_index.build r [| 0 |] in
      let via_index = ref [] in
      Hash_index.iter_matches1 idx probe (fun row -> via_index := row :: !via_index);
      let naive = List.filteri (fun _ _ -> true) pairs in
      let expected =
        List.mapi (fun i (x, _) -> (i, x)) naive
        |> List.filter_map (fun (i, x) -> if x = probe then Some i else None)
      in
      List.sort compare !via_index = List.sort compare expected)

let prop_build_pool_equals_build =
  QCheck2.Test.make ~name:"build_pool = build" ~count:100 gen_pairs (fun pairs ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) pairs;
      let a = Hash_index.build r [| 0; 1 |] and b = Hash_index.build_pool pool r [| 0; 1 |] in
      List.for_all
        (fun (x, y) ->
          let ra = ref [] and rb = ref [] in
          Hash_index.iter_matches a [| x; y |] (fun i -> ra := i :: !ra);
          Hash_index.iter_matches b [| x; y |] (fun i -> rb := i :: !rb);
          List.sort compare !ra = List.sort compare !rb)
        pairs)

let test_index_two_col_and_mem () =
  let r = Relation.of_rows 2 [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 2 |] ] in
  let idx = Hash_index.build r [| 0; 1 |] in
  check "mem" true (Hash_index.mem idx [| 1; 3 |]);
  check "not mem" false (Hash_index.mem idx [| 3; 1 |]);
  let hits = ref 0 in
  Hash_index.iter_matches2 idx 1 2 (fun _ -> incr hits);
  Alcotest.(check int) "exact match" 1 !hits

let test_index_three_col () =
  (* arity >= 3 exercises the generic fold branch of row_key_hash and the
     array-key iter_matches path (vs the 1/2-column specializations) *)
  let r =
    Relation.of_rows 4
      [ [| 1; 2; 3; 9 |]; [| 1; 2; 4; 8 |]; [| 1; 2; 3; 7 |]; [| 2; 2; 3; 6 |] ]
  in
  let idx = Hash_index.build r [| 0; 1; 2 |] in
  let hits = ref [] in
  Hash_index.iter_matches idx [| 1; 2; 3 |] (fun row -> hits := row :: !hits);
  Alcotest.(check (list int)) "3-col key matches" [ 0; 2 ] (List.sort compare !hits);
  check "3-col mem" true (Hash_index.mem idx [| 2; 2; 3 |]);
  check "3-col not mem" false (Hash_index.mem idx [| 2; 2; 4 |]);
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let radix = Radix_index.build_pool pool r [| 0; 1; 2 |] in
  let rhits = ref [] in
  Radix_index.iter_matches radix [| 1; 2; 3 |] (fun row -> rhits := row :: !rhits);
  Alcotest.(check (list int)) "radix 3-col key matches" [ 0; 2 ] (List.sort compare !rhits);
  check "radix 3-col mem" true (Radix_index.mem radix [| 2; 2; 3 |]);
  check "radix 3-col not mem" false (Radix_index.mem radix [| 2; 2; 4 |])

let test_index_memtrack_roundtrip () =
  Rs_storage.Memtrack.hard_reset ();
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let r = Relation.of_rows 3 (List.init 500 (fun i -> [| i mod 17; i mod 5; i |])) in
  let chained = Hash_index.build r [| 0; 1; 2 |] in
  Hash_index.account chained;
  let live_chained = Rs_storage.Memtrack.live () in
  check "chained accounted" true (live_chained > 0);
  let radix = Radix_index.build_pool pool r [| 0; 1; 2 |] in
  Radix_index.account radix;
  check "radix accounted on top" true (Rs_storage.Memtrack.live () > live_chained);
  Radix_index.release radix;
  Alcotest.(check int) "radix released" live_chained (Rs_storage.Memtrack.live ());
  Hash_index.release chained;
  Alcotest.(check int) "all released" 0 (Rs_storage.Memtrack.live ())

let gen_triples =
  QCheck2.Gen.(list (pair (int_range 0 30) (pair (int_range 0 30) (int_range 0 30))))

let prop_radix_eq_chained =
  QCheck2.Test.make ~name:"radix index = chained index (incl. order)" ~count:150
    gen_triples
    (fun triples ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 3 in
      List.iter (fun (x, (y, z)) -> Relation.push3 r x y z) triples;
      let chained = Hash_index.build_pool pool r [| 0; 1 |] in
      let radix = Radix_index.build_pool pool r [| 0; 1 |] in
      List.for_all
        (fun (x, (y, _)) ->
          let a = ref [] and b = ref [] in
          Hash_index.iter_matches2 chained x y (fun i -> a := i :: !a);
          Radix_index.iter_matches2 radix x y (fun i -> b := i :: !b);
          (* exact list equality: the two layouts must enumerate matches in
             the same (newest-first) order for byte-identical join output *)
          !a = !b)
        triples)

let prop_append_eq_rebuild =
  QCheck2.Test.make ~name:"append_pool = fresh rebuild" ~count:100
    QCheck2.Gen.(pair gen_pairs gen_pairs)
    (fun (base, extra) ->
      let pool = Pool.create ~workers:4 () in
      Pool.begin_run pool;
      let r = Relation.create 2 in
      List.iter (fun (x, y) -> Relation.push2 r x y) base;
      let idx = Hash_index.build_pool pool r [| 0 |] in
      List.iter (fun (x, y) -> Relation.push2 r x y) extra;
      let added = Hash_index.append_pool pool idx in
      let fresh = Hash_index.build r [| 0 |] in
      added = List.length extra
      && Hash_index.indexed_rows idx = Relation.nrows r
      && List.for_all
           (fun (x, _) ->
             let a = ref [] and b = ref [] in
             Hash_index.iter_matches1 idx x (fun i -> a := i :: !a);
             Hash_index.iter_matches1 fresh x (fun i -> b := i :: !b);
             !a = !b)
           (base @ extra))

let test_append_rehash_growth () =
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let r = Relation.create 2 in
  for i = 0 to 15 do
    Relation.push2 r i i
  done;
  let idx = Hash_index.build_pool pool r [| 0 |] in
  Alcotest.(check int) "no rehash yet" 0 (Hash_index.rehashes idx);
  (* grow the relation 64x through repeated appends: the bucket table must
     double (rehash) several times and stay correct throughout *)
  for round = 1 to 6 do
    let n = Relation.nrows r in
    for i = 0 to n - 1 do
      Relation.push2 r (i + (round * 10000)) i
    done;
    ignore (Hash_index.append_pool pool idx)
  done;
  check "rehashed" true (Hash_index.rehashes idx > 0);
  Alcotest.(check int) "covers all rows" (Relation.nrows r) (Hash_index.indexed_rows idx);
  let hits = ref 0 in
  Hash_index.iter_matches1 idx 3 (fun _ -> incr hits);
  let expected = ref 0 in
  for row = 0 to Relation.nrows r - 1 do
    if Relation.get r ~row ~col:0 = 3 then incr expected
  done;
  Alcotest.(check int) "post-rehash probe" !expected !hits

let test_radix_multi_partition () =
  (* enough rows to force partition_bits > 0 and exercise the partitioned
     probe path (partition select on low bits, home slot on high bits) *)
  let pool = Pool.create ~workers:4 () in
  Pool.begin_run pool;
  let n = 40_000 in
  let r = Relation.create 2 in
  for i = 0 to n - 1 do
    Relation.push2 r (i mod 4096) i
  done;
  let radix = Radix_index.build_pool pool r [| 0 |] in
  check "multiple partitions" true (Radix_index.partitions radix > 1);
  let hits = ref [] in
  Radix_index.iter_matches1 radix 17 (fun row -> hits := row :: !hits);
  let expected = List.init (n / 4096 + (if 17 < n mod 4096 then 1 else 0)) (fun k -> 17 + (k * 4096)) in
  Alcotest.(check (list int)) "all occurrences found" expected (List.sort compare !hits);
  check "absent key" false (Radix_index.mem radix [| 5000 |])

let test_generation_tracking () =
  let r = Relation.of_rows 2 [ [| 1; 2 |] ] in
  let g0 = Relation.generation r in
  Relation.push2 r 3 4;
  Alcotest.(check int) "appends do not bump generation" g0 (Relation.generation r);
  Relation.clear r;
  check "clear bumps generation" true (Relation.generation r > g0);
  Alcotest.(check int) "clear empties" 0 (Relation.nrows r)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dedup_matches_set Dedup.Fast "fast dedup = set semantics";
      prop_dedup_matches_set Dedup.Boxed "boxed dedup = set semantics";
      prop_dedup_parallel_matches;
      prop_dedup_fast_eq_boxed;
      prop_index_matches_scan;
      prop_build_pool_equals_build;
      prop_radix_eq_chained;
      prop_append_eq_rebuild;
    ]

let suite =
  [
    Alcotest.test_case "relation basics" `Quick test_relation_basic;
    Alcotest.test_case "relation bag vs distinct" `Quick test_relation_roundtrip;
    Alcotest.test_case "relation copy/append" `Quick test_relation_copy_append;
    Alcotest.test_case "concat_parallel order" `Quick test_concat_parallel;
    Alcotest.test_case "memory accounting" `Quick test_accounting;
    Alcotest.test_case "dedup wide rows" `Quick test_dedup_wide_membership;
    Alcotest.test_case "dedup rehash growth" `Quick test_dedup_rehash_growth;
    Alcotest.test_case "dedup growth from 16, arity 1" `Quick test_dedup_growth_arity1;
    Alcotest.test_case "dedup growth from 16, arity 2" `Quick test_dedup_growth_arity2;
    Alcotest.test_case "dedup growth from 16, arity 3" `Quick test_dedup_growth_arity3;
    Alcotest.test_case "dedup growth: packed to wide after rehash" `Quick
      test_dedup_growth_packed_to_wide;
    Alcotest.test_case "cck sequential" `Quick test_cck_sequential;
    Alcotest.test_case "cck 4-domain stress" `Quick test_cck_concurrent_domains;
    Alcotest.test_case "cck capacity exhaustion is typed" `Quick test_cck_capacity_exhausted;
    Alcotest.test_case "index two-column" `Quick test_index_two_col_and_mem;
    Alcotest.test_case "index three-column (fold branch)" `Quick test_index_three_col;
    Alcotest.test_case "index memtrack round-trip" `Quick test_index_memtrack_roundtrip;
    Alcotest.test_case "append rehash growth" `Quick test_append_rehash_growth;
    Alcotest.test_case "radix multi-partition probe" `Quick test_radix_multi_partition;
    Alcotest.test_case "relation generation tracking" `Quick test_generation_tracking;
  ]
  @ qsuite
