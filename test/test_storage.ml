(* Tests for snapdiff_storage: value/tuple codecs, schemas, slotted pages,
   page stores, buffer pool, heap tables. *)

open Snapdiff_storage

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal

(* ------------------------------------------------------------------ *)
(* Values *)

let sample_values =
  [
    Value.Null;
    Value.Int 0L;
    Value.Int Int64.max_int;
    Value.Int Int64.min_int;
    Value.Int (-42L);
    Value.Float 3.14159;
    Value.Float (-0.0);
    Value.Float infinity;
    Value.Str "";
    Value.Str "hello world";
    Value.Str (String.make 1000 'x');
    Value.Bool true;
    Value.Bool false;
  ]

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      checki "encoded_size exact" (Value.encoded_size v) (Buffer.length buf);
      let v', off = Value.decode (Buffer.to_bytes buf) 0 in
      Alcotest.check value "roundtrip" v v';
      checki "consumed all" (Buffer.length buf) off)
    sample_values

let test_value_decode_garbage () =
  Alcotest.check_raises "bad tag" (Failure "Value.decode: bad tag") (fun () ->
      ignore (Value.decode (Bytes.of_string "\255") 0));
  Alcotest.check_raises "truncated" (Failure "Value.decode: truncated") (fun () ->
      ignore (Value.decode (Bytes.of_string "\001\000") 0))

let test_value_compare_order () =
  checkb "null first" true (Value.compare Value.Null (Value.Int 0L) < 0);
  checkb "int order" true (Value.compare (Value.Int 1L) (Value.Int 2L) < 0);
  checkb "str order" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  checki "equal" 0 (Value.compare (Value.Bool true) (Value.Bool true))

let test_value_types () =
  checkb "null has every type" true (Value.has_type Value.Null Value.Tint);
  checkb "int is int" true (Value.has_type (Value.Int 1L) Value.Tint);
  checkb "int is not string" false (Value.has_type (Value.Int 1L) Value.Tstring)

(* ------------------------------------------------------------------ *)
(* Schemas *)

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring; Schema.col "salary" Value.Tint ]

let test_schema_lookup () =
  checki "arity" 2 (Schema.arity emp_schema);
  Alcotest.(check (option int)) "name idx" (Some 0) (Schema.index_of emp_schema "name");
  Alcotest.(check (option int)) "case-insensitive" (Some 1) (Schema.index_of emp_schema "SALARY");
  Alcotest.(check (option int)) "missing" None (Schema.index_of emp_schema "age")

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column \"A\"")
    (fun () -> ignore (Schema.make [ Schema.col "a" Value.Tint; Schema.col "A" Value.Tint ]))

let test_schema_extend_project () =
  let ext = Schema.extend emp_schema [ Schema.col "__timestamp" Value.Tint ] in
  checki "extended arity" 3 (Schema.arity ext);
  checkb "hidden detected" true (Schema.is_hidden (Schema.column ext 2));
  checki "visible" 2 (List.length (Schema.visible_columns ext));
  let proj = Schema.project ext [ "salary" ] in
  checki "projected arity" 1 (Schema.arity proj)

let test_schema_validate_tuple () =
  let ok = Schema.validate_tuple emp_schema [| Value.str "Bruce"; Value.int 15 |] in
  checkb "valid" true (ok = Ok ());
  checkb "null in not-null" true
    (Schema.validate_tuple emp_schema [| Value.Null; Value.int 1 |] <> Ok ());
  checkb "wrong type" true
    (Schema.validate_tuple emp_schema [| Value.str "x"; Value.str "y" |] <> Ok ());
  checkb "wrong arity" true (Schema.validate_tuple emp_schema [| Value.str "x" |] <> Ok ())

(* ------------------------------------------------------------------ *)
(* Tuples *)

let test_tuple_roundtrip () =
  let t = Tuple.make [ Value.str "Bruce"; Value.int 15; Value.Null; Value.Bool false ] in
  let b = Tuple.encode_to_bytes t in
  Alcotest.check tuple "roundtrip" t (Tuple.decode_exactly b);
  checki "size exact" (Tuple.encoded_size t) (Bytes.length b)

let test_tuple_ops () =
  let t = Tuple.make [ Value.str "a"; Value.int 1 |> fun v -> v ] in
  let t2 = Tuple.set t 1 (Value.int 2) in
  Alcotest.check value "set" (Value.int 2) (Tuple.get t2 1);
  Alcotest.check value "original untouched" (Value.int 1) (Tuple.get t 1);
  Alcotest.check value "by name" (Value.str "a") (Tuple.get_by_name emp_schema t "name");
  let p = Tuple.project emp_schema t [ "salary"; "name" ] in
  Alcotest.check tuple "project reorders" (Tuple.make [ Value.int 1; Value.str "a" ]) p

let test_tuple_compare () =
  let a = Tuple.make [ Value.int 1; Value.str "x" ] in
  let b = Tuple.make [ Value.int 1; Value.str "y" ] in
  checkb "lex" true (Tuple.compare a b < 0);
  checkb "prefix shorter" true (Tuple.compare (Tuple.make [ Value.int 1 ]) a < 0)

(* ------------------------------------------------------------------ *)
(* Pages *)

let record s = Bytes.of_string s

let test_page_insert_read () =
  let p = Page.create ~page_size:256 in
  let s0 = Option.get (Page.insert p (record "alpha")) in
  let s1 = Option.get (Page.insert p (record "beta")) in
  checki "slots sequential" 0 s0;
  checki "slots sequential" 1 s1;
  checks "read back" "alpha" (Bytes.to_string (Option.get (Page.read p 0)));
  checks "read back" "beta" (Bytes.to_string (Option.get (Page.read p 1)));
  checkb "missing slot" true (Page.read p 2 = None);
  checkb "validate" true (Page.validate p = Ok ())

let test_page_delete_and_slot_reuse () =
  let p = Page.create ~page_size:256 in
  ignore (Page.insert p (record "a"));
  ignore (Page.insert p (record "b"));
  ignore (Page.insert p (record "c"));
  checkb "delete live" true (Page.delete p 1);
  checkb "delete dead" false (Page.delete p 1);
  checkb "slot dead" false (Page.slot_is_live p 1);
  checki "live count" 2 (Page.live_records p);
  (* The lowest empty slot is reused. *)
  checki "reuse slot 1" 1 (Option.get (Page.insert p (record "B2")));
  checks "new content" "B2" (Bytes.to_string (Option.get (Page.read p 1)))

let test_page_fill_and_compact () =
  let p = Page.create ~page_size:128 in
  (* Fill the page with small records until refusal. *)
  let inserted = ref 0 in
  (try
     while true do
       match Page.insert p (record "0123456789") with
       | Some _ -> incr inserted
       | None -> raise Exit
     done
   with Exit -> ());
  checkb "held several" true (!inserted >= 5);
  checkb "full refuses" true (Page.insert p (record "0123456789") = None);
  (* Delete two, then a record of double size must fit via compaction. *)
  checkb "del 0" true (Page.delete p 0);
  checkb "del 2" true (Page.delete p 2);
  checkb "compacted insert fits" true (Page.insert p (record "01234567890123456789") <> None);
  checkb "validate after compaction" true (Page.validate p = Ok ())

let test_page_update_in_place_and_grow () =
  let p = Page.create ~page_size:256 in
  let s = Option.get (Page.insert p (record "short")) in
  checkb "shrink" true (Page.update p s (record "sh"));
  checks "shrunk" "sh" (Bytes.to_string (Option.get (Page.read p s)));
  checkb "grow" true (Page.update p s (record (String.make 50 'z')));
  checks "grown" (String.make 50 'z') (Bytes.to_string (Option.get (Page.read p s)));
  checkb "update dead slot" false (Page.update p 99 (record "x"));
  checkb "validate" true (Page.validate p = Ok ())

let test_page_update_too_big_fails_cleanly () =
  let p = Page.create ~page_size:128 in
  let s = Option.get (Page.insert p (record "aaaa")) in
  ignore (Page.insert p (record (String.make 80 'b')));
  checkb "no room to grow" false (Page.update p s (record (String.make 60 'c')));
  checks "original intact" "aaaa" (Bytes.to_string (Option.get (Page.read p s)))

let test_page_insert_at () =
  let p = Page.create ~page_size:256 in
  checkb "place at 3" true (Page.insert_at p 3 (record "three"));
  checki "directory grew" 4 (Page.nslots p);
  checkb "slots 0-2 empty" true (not (Page.slot_is_live p 0));
  checkb "occupied refused" false (Page.insert_at p 3 (record "again"));
  checkb "fill another" true (Page.insert_at p 0 (record "zero"));
  checks "read 3" "three" (Bytes.to_string (Option.get (Page.read p 3)));
  checkb "validate" true (Page.validate p = Ok ())

let test_page_of_bytes_roundtrip () =
  let p = Page.create ~page_size:256 in
  ignore (Page.insert p (record "persist me"));
  let q = Page.of_bytes (Bytes.copy (Page.bytes p)) in
  checks "round trip" "persist me" (Bytes.to_string (Option.get (Page.read q 0)))

let test_page_zeroed_is_empty () =
  let q = Page.of_bytes (Bytes.make 256 '\000') in
  checki "no slots" 0 (Page.nslots q);
  checkb "can insert" true (Page.insert q (record "x") <> None)

let test_page_iter_order () =
  let p = Page.create ~page_size:512 in
  for i = 0 to 9 do
    ignore (Page.insert p (record (string_of_int i)))
  done;
  ignore (Page.delete p 4);
  let seen = Page.fold_live p ~init:[] ~f:(fun acc slot _ -> slot :: acc) in
  Alcotest.(check (list int)) "ascending slots" [ 0; 1; 2; 3; 5; 6; 7; 8; 9 ] (List.rev seen)

(* ------------------------------------------------------------------ *)
(* Page stores *)

let test_mem_store_basics () =
  let s = Page_store.in_memory ~page_size:256 () in
  checki "empty" 0 (Page_store.page_count s);
  let p0 = Page_store.allocate s in
  checki "first page" 0 p0;
  let img = Bytes.make 256 'A' in
  Page_store.write s p0 img;
  checks "read back" (Bytes.to_string img) (Bytes.to_string (Page_store.read s p0));
  (* Stores copy on write: mutating the caller's buffer must not leak in. *)
  Bytes.fill img 0 256 'B';
  checks "isolated" (String.make 256 'A') (Bytes.to_string (Page_store.read s p0));
  Alcotest.check_raises "bad page" (Page_store.Bad_page 7) (fun () ->
      ignore (Page_store.read s 7))

let with_tmp_file f =
  let path = Filename.temp_file "snapdiff_test" ".db" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_file_store_persists () =
  with_tmp_file (fun path ->
      let s = Page_store.open_file ~page_size:256 path in
      let p = Page_store.allocate s in
      Page_store.write s p (Bytes.make 256 'Z');
      Page_store.sync s;
      Page_store.close s;
      let s2 = Page_store.open_file path in
      checki "page size recovered" 256 (Page_store.page_size s2);
      checki "page count recovered" 1 (Page_store.page_count s2);
      checks "data recovered" (String.make 256 'Z') (Bytes.to_string (Page_store.read s2 p));
      Page_store.close s2)

let test_file_store_rejects_mismatch () =
  with_tmp_file (fun path ->
      let s = Page_store.open_file ~page_size:256 path in
      Page_store.close s;
      Alcotest.check_raises "mismatch" (Failure "Page_store.open_file: page size mismatch")
        (fun () -> ignore (Page_store.open_file ~page_size:512 path)))

(* ------------------------------------------------------------------ *)
(* Buffer pool *)

let test_buffer_pool_caching () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 s in
  let p0 = Buffer_pool.allocate_page bp in
  let p1 = Buffer_pool.allocate_page bp in
  let p2 = Buffer_pool.allocate_page bp in
  let touch n =
    Buffer_pool.with_page bp n (fun page ->
        ignore (Page.nslots page);
        (`Clean, ()))
  in
  touch p0;
  touch p0;
  let st = Buffer_pool.stats bp in
  checki "one miss" 1 st.Buffer_pool.misses;
  checki "one hit" 1 st.Buffer_pool.hits;
  touch p1;
  touch p2;
  (* Capacity 2: loading p2 must evict someone. *)
  checkb "evicted" true ((Buffer_pool.stats bp).Buffer_pool.evictions >= 1)

let test_buffer_pool_writeback () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:4 s in
  let p0 = Buffer_pool.allocate_page bp in
  Buffer_pool.with_page bp p0 (fun page ->
      ignore (Page.insert page (Bytes.of_string "dirty data"));
      (`Dirty, ()));
  (* Not yet written back. *)
  let raw = Page_store.read s p0 in
  checkb "store still clean" true (Page.read (Page.of_bytes raw) 0 = None);
  Buffer_pool.flush_all bp;
  let raw = Page_store.read s p0 in
  checks "flushed" "dirty data" (Bytes.to_string (Option.get (Page.read (Page.of_bytes raw) 0)))

let test_buffer_pool_eviction_preserves_data () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 s in
  let pages = List.init 6 (fun _ -> Buffer_pool.allocate_page bp) in
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          ignore (Page.insert page (Bytes.of_string (Printf.sprintf "page %d" i)));
          (`Dirty, ())))
    pages;
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          checks "data survived eviction"
            (Printf.sprintf "page %d" i)
            (Bytes.to_string (Option.get (Page.read page 0)));
          (`Clean, ())))
    pages

let test_buffer_pool_invalidate () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:4 s in
  let p0 = Buffer_pool.allocate_page bp in
  Buffer_pool.with_page bp p0 (fun page ->
      ignore (Page.insert page (Bytes.of_string "x"));
      (`Dirty, ()));
  Buffer_pool.invalidate bp;
  Buffer_pool.with_page bp p0 (fun page ->
      checkb "flushed then dropped: data still there" true (Page.read page 0 <> None);
      (`Clean, ()))

(* ------------------------------------------------------------------ *)
(* Heap *)

let mk_emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let test_heap_insert_get () =
  let h = Heap.create ~page_size:256 emp_schema in
  let a = Heap.insert h (mk_emp "Bruce" 15) in
  let b = Heap.insert h (mk_emp "Laura" 6) in
  checkb "distinct addrs" true (not (Addr.equal a b));
  Alcotest.check (Alcotest.option tuple) "get a" (Some (mk_emp "Bruce" 15)) (Heap.get h a);
  Alcotest.check (Alcotest.option tuple) "get b" (Some (mk_emp "Laura" 6)) (Heap.get h b);
  checki "count" 2 (Heap.count h);
  checkb "validate" true (Heap.validate h = Ok ())

let test_heap_rejects_bad_tuple () =
  let h = Heap.create emp_schema in
  Alcotest.check_raises "type error" (Heap.Tuple_error "column salary expects INT, got 'oops'")
    (fun () -> ignore (Heap.insert h (Tuple.make [ Value.str "x"; Value.str "oops" ])))

let test_heap_update_delete () =
  let h = Heap.create ~page_size:256 emp_schema in
  let a = Heap.insert h (mk_emp "Hamid" 9) in
  Heap.update h a (mk_emp "Hamid" 15);
  Alcotest.check (Alcotest.option tuple) "updated" (Some (mk_emp "Hamid" 15)) (Heap.get h a);
  Heap.delete h a;
  checkb "gone" true (Heap.get h a = None);
  checki "count" 0 (Heap.count h);
  Alcotest.check_raises "double delete" Not_found (fun () -> Heap.delete h a);
  Alcotest.check_raises "update missing" Not_found (fun () -> Heap.update h a (mk_emp "x" 1))

let test_heap_scan_order () =
  let h = Heap.create ~page_size:128 emp_schema in
  (* Enough tuples to span several pages. *)
  let addrs = List.init 40 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "e%02d" i) i)) in
  checkb "multiple pages" true (Heap.data_pages h > 1);
  let scanned = List.map fst (Heap.to_list h) in
  checki "all scanned" 40 (List.length scanned);
  let sorted = List.sort Addr.compare scanned in
  checkb "address order" true (scanned = sorted);
  checkb "same set" true (List.sort Addr.compare addrs = sorted)

let test_heap_address_reuse () =
  let h = Heap.create ~page_size:128 emp_schema in
  let addrs = List.init 20 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "e%02d" i) i)) in
  let victim = List.nth addrs 3 in
  Heap.delete h victim;
  let fresh = Heap.insert h (mk_emp "reuser" 99) in
  checkb "lowest empty address reused" true (Addr.equal fresh victim)

let test_heap_insert_at () =
  let h = Heap.create ~page_size:256 emp_schema in
  let addr = Addr.make ~page:3 ~slot:2 in
  Heap.insert_at h addr (mk_emp "placed" 1);
  Alcotest.check (Alcotest.option tuple) "get placed" (Some (mk_emp "placed" 1)) (Heap.get h addr);
  checki "count" 1 (Heap.count h);
  Alcotest.check_raises "occupied" (Heap.Tuple_error "Heap.insert_at: slot live or page full")
    (fun () -> Heap.insert_at h addr (mk_emp "again" 2));
  (* Scan still works with the gap pages. *)
  checki "scan finds it" 1 (List.length (Heap.to_list h))

let test_heap_update_during_iter () =
  let h = Heap.create ~page_size:256 emp_schema in
  let _ = List.init 10 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "e%d" i) i)) in
  (* Give everyone a raise mid-scan (what the fix-up pass does). *)
  Heap.iter h (fun addr t ->
      let salary = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> 0 in
      Heap.update h addr (Tuple.set t 1 (Value.int (salary + 100))));
  Heap.iter h (fun _ t ->
      match Tuple.get t 1 with
      | Value.Int s -> checkb "raised" true (Int64.to_int s >= 100)
      | _ -> Alcotest.fail "bad salary")

let test_heap_first_last () =
  let h = Heap.create ~page_size:256 emp_schema in
  checkb "empty first" true (Heap.first_addr h = None);
  let a = Heap.insert h (mk_emp "a" 1) in
  let b = Heap.insert h (mk_emp "b" 2) in
  Alcotest.(check (option int)) "first" (Some a) (Heap.first_addr h);
  Alcotest.(check (option int)) "last" (Some b) (Heap.last_addr h)

let test_heap_large_population () =
  let h = Heap.create ~page_size:1024 ~frames:8 emp_schema in
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore (Heap.insert h (mk_emp (Printf.sprintf "emp%04d" i) (i mod 100)))
  done;
  checki "count" n (Heap.count h);
  checki "scan" n (List.length (Heap.to_list h));
  checkb "validate" true (Heap.validate h = Ok ());
  (* Delete every third, count again. *)
  let deleted = ref 0 in
  List.iteri
    (fun i (addr, _) ->
      if i mod 3 = 0 then begin
        Heap.delete h addr;
        incr deleted
      end)
    (Heap.to_list h);
  checki "count after deletes" (n - !deleted) (Heap.count h)

let test_heap_persists_through_pool () =
  with_tmp_file (fun path ->
      let store = Page_store.open_file ~page_size:512 path in
      let pool = Buffer_pool.create ~frames:4 store in
      let h = Heap.on_pool pool emp_schema in
      let a = Heap.insert h (mk_emp "durable" 7) in
      Heap.flush h;
      Page_store.close store;
      let store2 = Page_store.open_file path in
      let pool2 = Buffer_pool.create ~frames:4 store2 in
      let h2 = Heap.on_pool pool2 emp_schema in
      checki "count recovered" 1 (Heap.count h2);
      Alcotest.check (Alcotest.option tuple) "tuple recovered" (Some (mk_emp "durable" 7))
        (Heap.get h2 a);
      Page_store.close store2)

(* Review regression: a sub-page writeback must count as ONE page write,
   however many dirty ranges carry it, so [writes_performed] stays
   comparable between whole-page and ranged write-back configurations. *)
let test_write_ranges_count_one_page_write () =
  let s = Page_store.in_memory ~page_size:256 () in
  let n = Page_store.allocate s in
  let w0 = Page_store.writes_performed s in
  let page = Bytes.make 256 'x' in
  Page_store.write_ranges s n page [ (0, 10); (50, 20); (100, 0) ];
  checki "one page write for three ranges" (w0 + 1) (Page_store.writes_performed s);
  checki "two non-empty range writes" 2 (Page_store.range_writes_performed s);
  checki "bytes = sum of ranges" 30 (Page_store.bytes_written s);
  Page_store.write_ranges s n page [];
  Page_store.write_ranges s n page [ (0, 0) ];
  checki "empty writebacks count nothing" (w0 + 1) (Page_store.writes_performed s);
  Page_store.write_range s n page ~off:200 ~len:8;
  checki "write_range is one write" (w0 + 2) (Page_store.writes_performed s);
  Page_store.write s n page;
  checki "whole-page write is one write" (w0 + 3) (Page_store.writes_performed s);
  Alcotest.check_raises "range out of bounds"
    (Invalid_argument "Page_store.write_range: range out of bounds") (fun () ->
      Page_store.write_ranges s n page [ (250, 10) ])

let test_addr_packing () =
  let a = Addr.make ~page:5 ~slot:7 in
  checki "page" 5 (Addr.page a);
  checki "slot" 7 (Addr.slot a);
  checkb "order by page then slot" true
    (Addr.compare (Addr.make ~page:1 ~slot:9) (Addr.make ~page:2 ~slot:0) < 0);
  checkb "zero below all" true (Addr.compare Addr.zero (Addr.make ~page:1 ~slot:0) < 0);
  Alcotest.check_raises "page 0 reserved" (Invalid_argument "Addr.make: page must be >= 1")
    (fun () -> ignore (Addr.make ~page:0 ~slot:0))

let suite =
  [
    Alcotest.test_case "write_ranges counts one page write" `Quick
      test_write_ranges_count_one_page_write;
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    Alcotest.test_case "value decode garbage" `Quick test_value_decode_garbage;
    Alcotest.test_case "value compare" `Quick test_value_compare_order;
    Alcotest.test_case "value types" `Quick test_value_types;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema dup rejected" `Quick test_schema_duplicate_rejected;
    Alcotest.test_case "schema extend/project" `Quick test_schema_extend_project;
    Alcotest.test_case "schema validate tuple" `Quick test_schema_validate_tuple;
    Alcotest.test_case "tuple roundtrip" `Quick test_tuple_roundtrip;
    Alcotest.test_case "tuple ops" `Quick test_tuple_ops;
    Alcotest.test_case "tuple compare" `Quick test_tuple_compare;
    Alcotest.test_case "page insert/read" `Quick test_page_insert_read;
    Alcotest.test_case "page delete + slot reuse" `Quick test_page_delete_and_slot_reuse;
    Alcotest.test_case "page fill + compact" `Quick test_page_fill_and_compact;
    Alcotest.test_case "page update" `Quick test_page_update_in_place_and_grow;
    Alcotest.test_case "page update too big" `Quick test_page_update_too_big_fails_cleanly;
    Alcotest.test_case "page insert_at" `Quick test_page_insert_at;
    Alcotest.test_case "page of_bytes" `Quick test_page_of_bytes_roundtrip;
    Alcotest.test_case "page zeroed" `Quick test_page_zeroed_is_empty;
    Alcotest.test_case "page iter order" `Quick test_page_iter_order;
    Alcotest.test_case "mem store" `Quick test_mem_store_basics;
    Alcotest.test_case "file store persists" `Quick test_file_store_persists;
    Alcotest.test_case "file store mismatch" `Quick test_file_store_rejects_mismatch;
    Alcotest.test_case "buffer pool caching" `Quick test_buffer_pool_caching;
    Alcotest.test_case "buffer pool writeback" `Quick test_buffer_pool_writeback;
    Alcotest.test_case "buffer pool eviction" `Quick test_buffer_pool_eviction_preserves_data;
    Alcotest.test_case "buffer pool invalidate" `Quick test_buffer_pool_invalidate;
    Alcotest.test_case "heap insert/get" `Quick test_heap_insert_get;
    Alcotest.test_case "heap rejects bad tuple" `Quick test_heap_rejects_bad_tuple;
    Alcotest.test_case "heap update/delete" `Quick test_heap_update_delete;
    Alcotest.test_case "heap scan order" `Quick test_heap_scan_order;
    Alcotest.test_case "heap address reuse" `Quick test_heap_address_reuse;
    Alcotest.test_case "heap insert_at" `Quick test_heap_insert_at;
    Alcotest.test_case "heap update during iter" `Quick test_heap_update_during_iter;
    Alcotest.test_case "heap first/last" `Quick test_heap_first_last;
    Alcotest.test_case "heap large population" `Quick test_heap_large_population;
    Alcotest.test_case "heap persistence" `Quick test_heap_persists_through_pool;
    Alcotest.test_case "addr packing" `Quick test_addr_packing;
  ]

(* Appended: second-chance eviction policy. *)
let test_buffer_pool_second_chance () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 ~policy:Buffer_pool.Second_chance s in
  let pages = List.init 6 (fun _ -> Buffer_pool.allocate_page bp) in
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          ignore (Page.insert page (Bytes.of_string (Printf.sprintf "sc %d" i)));
          (`Dirty, ())))
    pages;
  (* Everything still readable after evictions under the clock sweep. *)
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          checks "second-chance preserved data"
            (Printf.sprintf "sc %d" i)
            (Bytes.to_string (Option.get (Page.read page 0)));
          (`Clean, ())))
    pages;
  checkb "evictions happened" true ((Buffer_pool.stats bp).Buffer_pool.evictions >= 4);
  Buffer_pool.invalidate bp;
  Buffer_pool.with_page bp (List.hd pages) (fun page ->
      checkb "usable after invalidate" true (Page.read page 0 <> None);
      (`Clean, ()))

let test_heap_on_second_chance_pool () =
  let store = Page_store.in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~frames:3 ~policy:Buffer_pool.Second_chance store in
  let h = Heap.on_pool pool emp_schema in
  let n = 300 in
  for i = 0 to n - 1 do
    ignore (Heap.insert h (mk_emp (Printf.sprintf "emp%03d" i) i) : Addr.t)
  done;
  checki "count" n (Heap.count h);
  checkb "validate" true (Heap.validate h = Ok ());
  checki "scan" n (List.length (Heap.to_list h))

let suite =
  suite
  @ [
      Alcotest.test_case "buffer pool second chance" `Quick test_buffer_pool_second_chance;
      Alcotest.test_case "heap on second-chance pool" `Quick test_heap_on_second_chance_pool;
    ]

let test_page_insert_at_full () =
  let p = Page.create ~page_size:128 in
  ignore (Page.insert p (Bytes.make 100 'a'));
  (* No room for another 100-byte record at slot 5. *)
  checkb "full refused" false (Page.insert_at p 5 (Bytes.make 100 'b'));
  checkb "page unharmed" true (Page.validate p = Ok ())

let suite = suite @ [ Alcotest.test_case "page insert_at full" `Quick test_page_insert_at_full ]

(* Eviction-policy parity: the policy decides which frame to reclaim, never
   what a page contains, so LRU and second-chance pools must produce
   byte-identical refresh streams on the same workload — and both must
   report accounting that adds up. *)
let test_eviction_policy_refresh_parity () =
  let module Core = Snapdiff_core in
  let run policy =
    let store = Page_store.in_memory ~page_size:256 () in
    let pool = Buffer_pool.create ~frames:3 ~policy store in
    let clock = Snapdiff_txn.Clock.create () in
    let base = Core.Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
    let snap =
      Core.Snapshot_table.create ~name:"s" ~schema:emp_schema ()
    in
    let cache = Core.Differential.Prune_cache.create () in
    let salary t =
      match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1
    in
    let streams = ref [] in
    let refresh () =
      let out = ref [] in
      ignore
        (Core.Differential.refresh ~prune:cache ~base
           ~snaptime:(Core.Snapshot_table.snaptime snap)
           ~restrict:(fun t -> salary t mod 3 = 0)
           ~project:Fun.id
           ~xmit:(fun m -> out := m :: !out)
           ()
          : Core.Differential.report);
      let ms = List.rev !out in
      List.iter (Core.Snapshot_table.apply snap) ms;
      streams :=
        List.map (fun m -> Bytes.to_string (Core.Refresh_msg.encode m)) ms :: !streams
    in
    let addrs = ref [] in
    for i = 0 to 59 do
      addrs := Core.Base_table.insert base (mk_emp (Printf.sprintf "e%02d" i) i) :: !addrs
    done;
    let addrs = Array.of_list (List.rev !addrs) in
    refresh ();
    for round = 1 to 4 do
      Core.Base_table.update base addrs.((round * 7) mod 60) (mk_emp "upd" (round * 3));
      Core.Base_table.delete base addrs.((round * 13) mod 60);
      let a = Core.Base_table.insert base (mk_emp (Printf.sprintf "n%d" round) round) in
      addrs.((round * 13) mod 60) <- a;
      refresh ()
    done;
    (List.rev !streams, Buffer_pool.stats pool, Core.Snapshot_table.contents snap)
  in
  let s_lru, st_lru, c_lru = run Buffer_pool.Lru in
  let s_sc, st_sc, c_sc = run Buffer_pool.Second_chance in
  checkb "refresh streams identical across policies" true (s_lru = s_sc);
  checkb "final snapshots identical" true (c_lru = c_sc);
  List.iter
    (fun (name, st) ->
      checkb (name ^ ": accesses = hits + misses") true
        (st.Buffer_pool.hits >= 0 && st.Buffer_pool.misses > 0);
      checkb (name ^ ": evictions under 3 frames") true (st.Buffer_pool.evictions > 0);
      checkb (name ^ ": evictions cannot outnumber misses") true
        (st.Buffer_pool.evictions <= st.Buffer_pool.misses);
      checkb (name ^ ": writebacks bounded by evictions + flushes") true
        (st.Buffer_pool.writebacks >= 0))
    [ ("lru", st_lru); ("second-chance", st_sc) ]

let suite =
  suite
  @ [
      Alcotest.test_case "LRU and second-chance refresh parity" `Quick
        test_eviction_policy_refresh_parity;
    ]

(* Sub-page dirty-range tracking: the invariant is that a page differs
   from its last-adopted image ONLY inside the tracked ranges — so
   blitting just those ranges onto the old image must reproduce the page
   exactly, whatever sequence of mutations ran. *)
let test_page_dirty_ranges_exact () =
  let p = Page.create ~page_size:512 in
  let a0 = Option.get (Page.insert p (Bytes.of_string "alpha")) in
  let a1 = Option.get (Page.insert p (Bytes.of_string "beta")) in
  let a2 = Option.get (Page.insert p (Bytes.of_string "gamma")) in
  (* Adopt the current image as the "on disk" state. *)
  let disk = Bytes.copy (Page.bytes p) in
  Page.reset_dirty_ranges p;
  checki "clean after reset" 0 (Page.dirty_bytes p);
  (* Mutate: in-place update, growing update, delete, insert, compact. *)
  checkb "upd" true (Page.update p a1 (Bytes.of_string "BETA"));
  checkb "grow" true (Page.update p a0 (Bytes.of_string "a much longer record"));
  ignore (Page.delete p a2 : bool);
  ignore (Page.insert p (Bytes.of_string "delta") : int option);
  Page.compact p;
  let ranges = Page.dirty_ranges p in
  checkb "something tracked" true (ranges <> []);
  checkb "at most 4 spans" true (List.length ranges <= 4);
  checkb "ranges bounded by the page" true (Page.dirty_bytes p <= Page.page_size p);
  (* Replay only the dirty ranges onto the old image. *)
  let now = Page.bytes p in
  List.iter (fun (off, len) -> Bytes.blit now off disk off len) ranges;
  checkb "dirty ranges reproduce the page exactly" true (Bytes.equal disk now);
  checkb "page still valid" true (Page.validate p = Ok ())

(* Range-aware write-back: a small in-place change to a big page writes
   only the dirty spans to the store, and the store image still matches
   the frame byte-for-byte. *)
let test_range_aware_writeback () =
  let store = Page_store.in_memory ~page_size:2048 () in
  let pool = Buffer_pool.create ~frames:4 store in
  let n = Buffer_pool.allocate_page pool in
  let slot =
    Buffer_pool.with_page pool n (fun page ->
        let s = Option.get (Page.insert page (Bytes.make 64 'x')) in
        ignore (Page.insert page (Bytes.make 64 'y') : int option);
        (`Dirty, s))
  in
  Buffer_pool.flush_all pool;  (* first flush: page mostly fresh *)
  let st0 = Buffer_pool.stats pool in
  (* Now a tiny in-place mutation: only its spans should be written. *)
  Buffer_pool.with_page pool n (fun page ->
      checkb "in-place" true (Page.update page slot (Bytes.make 64 'z'));
      (`Dirty, ()));
  checki "one dirty page" 1 (List.length (Buffer_pool.dirty_pages pool));
  let written = Buffer_pool.writeback_page pool n in
  let st1 = Buffer_pool.stats pool in
  checkb "wrote something" true (written > 0);
  checkb "wrote less than the page" true (written < 2048);
  checkb "saved bytes accounted" true
    (st1.Buffer_pool.writeback_bytes_saved > st0.Buffer_pool.writeback_bytes_saved);
  checki "written = writeback_bytes delta" written
    (st1.Buffer_pool.writeback_bytes - st0.Buffer_pool.writeback_bytes);
  (* The store image equals the frame image. *)
  let img = Page_store.read store n in
  Buffer_pool.with_page pool n (fun page ->
      checkb "store = frame after range write" true (Bytes.equal img (Page.bytes page));
      (`Clean, ()));
  checki "nothing left dirty" 0 (List.length (Buffer_pool.dirty_pages pool))

let suite =
  suite
  @ [
      Alcotest.test_case "page dirty ranges exact" `Quick test_page_dirty_ranges_exact;
      Alcotest.test_case "range-aware writeback" `Quick test_range_aware_writeback;
    ]

(* ------------------------------------------------------------------ *)
(* Codec boundaries and the zero-copy cursor readers: extreme values
   roundtrip through both reader families, every strict prefix of every
   encoding raises, and on random tuples the cursor agrees with the
   offset-pair readers byte for byte. *)

let test_codec_boundary_values () =
  let buf = Buffer.create 64 in
  Codec.add_u32 buf 0xFFFF_FFFF;
  Codec.add_i64 buf Int64.min_int;
  Codec.add_i64 buf (-1L);
  Codec.add_string buf "";
  Codec.add_u16 buf 0xFFFF;
  Codec.add_u8 buf 0xFF;
  let b = Buffer.to_bytes buf in
  let v, off = Codec.u32 b 0 in
  checki "u32 max" 0xFFFF_FFFF v;
  let v64, off = Codec.i64 b off in
  checkb "i64 min" true (v64 = Int64.min_int);
  let v64, off = Codec.i64 b off in
  checkb "i64 -1" true (v64 = -1L);
  let s, off = Codec.string b off in
  checks "empty string" "" s;
  let v, off = Codec.u16 b off in
  checki "u16 max" 0xFFFF v;
  let v, off = Codec.u8 b off in
  checki "u8 max" 0xFF v;
  checki "offset readers consumed exactly" (Bytes.length b) off;
  let c = Codec.Cursor.create () in
  Codec.Cursor.set c b ~pos:0 ~len:(Bytes.length b);
  checki "cursor u32 max" 0xFFFF_FFFF (Codec.Cursor.u32 c);
  checkb "cursor i64 min" true (Codec.Cursor.i64 c = Int64.min_int);
  checkb "cursor i64 -1" true (Codec.Cursor.i64 c = -1L);
  checks "cursor empty string" "" (Codec.Cursor.string c);
  checki "cursor u16 max" 0xFFFF (Codec.Cursor.u16 c);
  checki "cursor u8 max" 0xFF (Codec.Cursor.u8 c);
  checkb "cursor at_end" true (Codec.Cursor.at_end c)

let test_codec_truncation_raises () =
  let cases =
    [ ( "u8",
        (fun buf -> Codec.add_u8 buf 0xAB),
        (fun b -> ignore (Codec.u8 b 0 : int * int)),
        fun c -> ignore (Codec.Cursor.u8 c : int) );
      ( "u16",
        (fun buf -> Codec.add_u16 buf 0xBEEF),
        (fun b -> ignore (Codec.u16 b 0 : int * int)),
        fun c -> ignore (Codec.Cursor.u16 c : int) );
      ( "u32",
        (fun buf -> Codec.add_u32 buf 0xFFFF_FFFF),
        (fun b -> ignore (Codec.u32 b 0 : int * int)),
        fun c -> ignore (Codec.Cursor.u32 c : int) );
      ( "i64",
        (fun buf -> Codec.add_i64 buf (-1L)),
        (fun b -> ignore (Codec.i64 b 0 : int64 * int)),
        fun c -> ignore (Codec.Cursor.i64 c : int64) );
      ( "int",
        (fun buf -> Codec.add_int buf (-7)),
        (fun b -> ignore (Codec.int b 0 : int * int)),
        fun c -> ignore (Codec.Cursor.int c : int) );
      ( "string",
        (fun buf -> Codec.add_string buf "xyz"),
        (fun b -> ignore (Codec.string b 0 : string * int)),
        fun c -> ignore (Codec.Cursor.string c : string) );
      ( "tuple",
        (fun buf ->
          Codec.add_tuple buf (Tuple.make [ Value.int (-5); Value.str "s"; Value.Null ])),
        (fun b -> ignore (Codec.tuple b 0 : Tuple.t * int)),
        fun c -> ignore (Codec.Cursor.tuple c : Tuple.t) );
    ]
  in
  List.iter
    (fun (name, enc, read_off, read_cur) ->
      let buf = Buffer.create 32 in
      enc buf;
      let b = Buffer.to_bytes buf in
      let full = Bytes.length b in
      read_off b;
      let c = Codec.Cursor.create () in
      Codec.Cursor.set c b ~pos:0 ~len:full;
      read_cur c;
      checkb (name ^ ": full read consumes the window") true (Codec.Cursor.at_end c);
      for cut = 0 to full - 1 do
        let short = Bytes.sub b 0 cut in
        (match read_off short with
        | () ->
          Alcotest.failf "%s: offset reader accepted a %d/%d-byte prefix" name cut full
        | exception Failure _ -> ());
        (* The cursor window edge is the truncation boundary even when the
           underlying buffer holds the remaining bytes. *)
        Codec.Cursor.set c b ~pos:0 ~len:cut;
        (match read_cur c with
        | () -> Alcotest.failf "%s: cursor accepted a %d/%d-byte window" name cut full
        | exception Failure _ -> ())
      done)
    cases

let cursor_value_gen =
  QCheck2.Gen.(
    oneof
      [ pure Value.Null;
        map (fun i -> Value.Int (Int64.of_int i)) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size (int_range 0 40));
        map (fun b -> Value.Bool b) bool ])

let prop_cursor_matches_offset_readers =
  QCheck2.Test.make ~name:"cursor decode = offset-pair decode" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) cursor_value_gen)
    (fun vs ->
      let t = Tuple.make vs in
      let buf = Buffer.create 64 in
      Codec.add_tuple buf t;
      let b = Buffer.to_bytes buf in
      let t_off, consumed = Codec.tuple b 0 in
      let c = Codec.Cursor.create () in
      Codec.Cursor.set c b ~pos:0 ~len:(Bytes.length b);
      let t_cur = Codec.Cursor.tuple c in
      Tuple.equal t_off t_cur
      && Codec.Cursor.pos c = consumed
      && Codec.Cursor.at_end c)

let suite =
  suite
  @ [
      Alcotest.test_case "codec boundary values" `Quick test_codec_boundary_values;
      Alcotest.test_case "codec truncation raises per reader" `Quick
        test_codec_truncation_raises;
      QCheck_alcotest.to_alcotest prop_cursor_matches_offset_readers;
    ]

(* ------------------------------------------------------------------ *)
(* Free-space map *)

module Max_tree = Snapdiff_util.Max_tree

(* The tree against a plain array scanned left to right.  Slots are set
   in rising waves the way page allocation grows a heap, with rewrites of
   earlier slots in between, so queries cross every growth step. *)
let prop_max_tree_leftmost_fit =
  QCheck2.Test.make ~name:"max tree leftmost fit = linear scan" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (oneof
           [
             map2 (fun i v -> `Set (i, v)) (int_range 0 150) (int_range (-5) 60);
             map (fun v -> `Append v) (int_range (-5) 60);
             map3 (fun lo len x -> `Query (lo, lo + len, x))
               (int_range (-2) 160) (int_range 0 80) (int_range (-6) 61);
           ]))
    (fun ops ->
      let tree = Max_tree.create () in
      let model = Array.make 400 min_int in
      let next = ref 0 in
      let linear lo hi x =
        let rec go i = if i >= hi then None else if model.(i) >= x then Some i else go (i + 1) in
        go (max lo 0)
      in
      List.for_all
        (fun op ->
          match op with
          | `Set (i, v) ->
            Max_tree.set tree i v;
            model.(i) <- v;
            next := max !next (i + 1);
            true
          | `Append v ->
            Max_tree.set tree !next v;
            model.(!next) <- v;
            incr next;
            true
          | `Query (lo, hi, x) ->
            Max_tree.find_first tree ~lo ~hi ~at_least:x = linear lo hi x)
        ops)

(* Lowest-first-fit placement stated the slow way: the linear walk from
   the insert hint over a table of noted free bytes, on bare pages.  The
   heap must choose the same address for every insert. *)
module Linear_heap = struct
  type t = {
    page_size : int;
    reserve : int;
    mutable pages : Page.t array;  (* index 0 is the header page *)
    free : (int, int) Hashtbl.t;
    mutable hint : int;
  }

  let create ~page_size ~fill_factor =
    {
      page_size;
      reserve = int_of_float ((1.0 -. fill_factor) *. float_of_int page_size);
      pages = [| Page.create ~page_size |];
      free = Hashtbl.create 16;
      hint = 1;
    }

  let page_count t = Array.length t.pages
  let note t p = Hashtbl.replace t.free p (Page.free_space_for_insert t.pages.(p))

  let allocate t =
    t.pages <- Array.append t.pages [| Page.of_bytes (Bytes.make t.page_size '\000') |];
    page_count t - 1

  let reopen t =
    Hashtbl.reset t.free;
    for p = 1 to page_count t - 1 do
      note t p
    done;
    t.hint <- 1

  let insert t record =
    let need = Bytes.length record in
    let rec find p =
      if p >= page_count t then None
      else
        match Hashtbl.find_opt t.free p with
        | Some free when free >= need + t.reserve -> (
          let slot = Page.insert t.pages.(p) record in
          note t p;
          match slot with Some slot -> Some (Addr.make ~page:p ~slot) | None -> find (p + 1))
        | _ -> find (p + 1)
    in
    match find (max 1 t.hint) with
    | Some addr -> addr
    | None ->
      let p = allocate t in
      let slot = Option.get (Page.insert t.pages.(p) record) in
      note t p;
      Addr.make ~page:p ~slot

  let insert_at t addr record =
    let p = Addr.page addr in
    while page_count t <= p do
      ignore (allocate t : int)
    done;
    Page.insert_at t.pages.(p) (Addr.slot addr) record && (note t p; true)

  let update t addr record =
    let p = Addr.page addr in
    Page.update t.pages.(p) (Addr.slot addr) record && (note t p; true)

  let delete t addr =
    let p = Addr.page addr in
    ignore (Page.delete t.pages.(p) (Addr.slot addr) : bool);
    note t p;
    if p < t.hint then t.hint <- p
end

let prop_heap_placement_identity =
  QCheck2.Test.make ~name:"heap first-fit placement = linear walk" ~count:150
    QCheck2.Gen.(
      pair (oneofl [ 0.5; 0.8; 0.9; 1.0 ])
        (list_size (int_range 1 250)
           (frequency
              [
                (6, map (fun n -> `Ins n) (int_range 1 70));
                (3, map2 (fun i n -> `Upd (i, n)) nat (int_range 1 90));
                (3, map (fun i -> `Del i) nat);
                (1, map2 (fun p s -> `At (p, s)) nat (int_range 0 12));
                (1, pure `Reopen);
              ])))
    (fun (fill_factor, ops) ->
      let page_size = 256 in
      let h = ref (Heap.create ~page_size ~frames:3 ~fill_factor emp_schema) in
      let r = Linear_heap.create ~page_size ~fill_factor in
      let live = ref [] in
      let pick i = List.nth !live (i mod List.length !live) in
      let row n = mk_emp (String.make n 'x') n in
      let same_outcome what f g =
        let a = match f () with () -> true | exception Heap.Tuple_error _ -> false in
        if a <> g then QCheck2.Test.fail_reportf "%s: heap %b, linear walk %b" what a g
      in
      List.iter
        (fun op ->
          match op with
          | `Ins n ->
            let tuple = row n in
            let a = Heap.insert !h tuple in
            let b = Linear_heap.insert r (Tuple.encode_to_bytes tuple) in
            if not (Addr.equal a b) then
              QCheck2.Test.fail_reportf "insert: heap %s, linear walk %s" (Addr.to_string a)
                (Addr.to_string b);
            live := a :: !live
          | `Upd (i, n) when !live <> [] ->
            let addr = pick i and tuple = row n in
            same_outcome "update"
              (fun () -> Heap.update !h addr tuple)
              (Linear_heap.update r addr (Tuple.encode_to_bytes tuple))
          | `Del i when !live <> [] ->
            let addr = pick i in
            Heap.delete !h addr;
            Linear_heap.delete r addr;
            live := List.filter (fun a -> not (Addr.equal a addr)) !live
          | `At (p, slot) ->
            let addr = Addr.make ~page:(1 + (p mod (Linear_heap.page_count r + 1))) ~slot in
            let tuple = row (1 + (p mod 40)) in
            let ok = Linear_heap.insert_at r addr (Tuple.encode_to_bytes tuple) in
            same_outcome "insert_at" (fun () -> Heap.insert_at !h addr tuple) ok;
            if ok then live := addr :: !live
          | `Reopen ->
            Heap.flush !h;
            h := Heap.on_pool ~fill_factor (Heap.pool !h) emp_schema;
            Linear_heap.reopen r
          | `Upd _ | `Del _ -> ())
        ops;
      List.map fst (Heap.to_list !h) = List.sort Addr.compare !live
      && Heap.data_pages !h = Linear_heap.page_count r - 1)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_max_tree_leftmost_fit;
      QCheck_alcotest.to_alcotest prop_heap_placement_identity;
    ]
