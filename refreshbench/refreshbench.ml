(* Closed-loop refresh benchmark.

   One process, one domain.  A workload is a closed loop of rounds: a
   pre-drawn batch of base-table writes, one refresh call (Manager.refresh,
   Manager.refresh_all or Fleet.tick), then a batch of pinned reads.  Each
   call starts when the previous one returns.  Everything random is drawn
   from the benchmark's shadow model outside the timers, and every commit
   is checked against that shadow outside the timers.

   Usage:
     refreshbench --workload NAME --seed N --seconds S --trace 0|1
                  [--out DIR] [--perturb]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the per-layer
   ones.  A human-readable summary goes to standard error. *)

open Snapdiff_storage
open Timing
module Manager = Snapdiff_core.Manager
module Base_table = Snapdiff_core.Base_table
module Snapshot_table = Snapdiff_core.Snapshot_table
module Refresh_msg = Snapdiff_core.Refresh_msg
module Link = Snapdiff_net.Link
module Txn = Snapdiff_txn.Txn
module Lock = Snapdiff_txn.Lock
module Clock = Snapdiff_txn.Clock
module Wal = Snapdiff_wal.Wal
module Fleet = Snapdiff_fleet.Fleet
module W = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Metrics = Snapdiff_obs.Metrics
module Expr = Snapdiff_expr.Expr
module Version_store = Snapdiff_mvcc.Version_store

let process_t0 = now_ns ()

(* ------------------------------------------------------------------ *)
(* Arguments *)

let arg_value name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let arg_flag name = Array.exists (( = ) name) Sys.argv

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("refreshbench: " ^ s); exit 2) fmt

let int_arg name ~default =
  match arg_value name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "bad %s %S" name v)

(* ------------------------------------------------------------------ *)
(* Rows and operations *)

(* Rows are packed as in {!Oracle.pack}. *)
type op = Ins of int | Upd of Addr.t * int | Del of Addr.t

type wop = { base : int; op : op }

(* A writer that arrives during a refresh call and is let in at a yield
   point as an updater transaction. *)
type updater = { u_base : int; u_addr : Addr.t; u_row : int; u_tuple : Tuple.t; u_frac : float }

type read_spec = { r_snap : int; r_addrs : Addr.t array }

type read_result = {
  rr_snap : int;
  rr_epoch : int;  (** -2 when the pin was refused *)
  rr_addrs : Addr.t array;
  rr_got : Tuple.t option array;
}

(* ------------------------------------------------------------------ *)
(* World *)

type world = {
  m : Manager.t;
  tables : Base_table.t array;
  shadows : Oracle.base array;
  mutable snaps : Oracle.snap array;
  snap_base : (string, int) Hashtbl.t;
  by_name : (string, Oracle.snap) Hashtbl.t;
  mutable fleet : Fleet.t option;
  mutable tenants : W.tenant array;
}

let new_world m tables =
  { m; tables; shadows = Array.map (fun _ -> Oracle.create_base ()) tables; snaps = [||];
    snap_base = Hashtbl.create 16; by_name = Hashtbl.create 16; fleet = None; tenants = [||] }

let next_id = ref 0

let populate w bi rng n =
  let bt = w.tables.(bi) in
  for _ = 1 to n do
    let r = Oracle.pack ~id:!next_id ~qual:(Rng.int rng W.qual_domain) ~payload:0 in
    incr next_id;
    Oracle.set_row w.shadows.(bi) (Base_table.insert bt (Oracle.tuple r)) (Some r)
  done

let columns = [| "id"; "name"; "qual"; "payload" |]

(* The restriction [lo <= qual < hi] as the program's expression; the
   oracle evaluates its own copy of the same bounds. *)
let restriction ~lo ~hi =
  let upper = Expr.(col "qual" <. int hi) in
  if lo <= 0 then upper else Expr.(col "qual" >=. int lo &&& upper)

let checks_attempted = ref 0
let check_misses = ref 0

let add_snapshot w ~base ~name ~lo ~hi ?(proj = [ 0; 1; 2; 3 ]) ~method_
    ?(strategy = Version_store.Naive) ?(retain = 1) () =
  let bt = w.tables.(base) in
  let projection =
    if List.length proj = Array.length columns then None
    else Some (List.map (fun i -> columns.(i)) proj)
  in
  ignore
    (Manager.create_snapshot w.m ~name ~base:(Base_table.name bt) ~restrict:(restriction ~lo ~hi)
       ?projection ~method_ ~version_strategy:strategy ~version_retain:retain ()
      : Manager.refresh_report);
  let s =
    Oracle.add_snap w.shadows.(base) ~name ~table:(Manager.snapshot_table w.m name) ~lo ~hi
      ~proj:(Array.of_list proj) ~retain
  in
  incr checks_attempted;
  check_misses := !check_misses + Oracle.check_commit ~full:true s;
  w.snaps <- Array.append w.snaps [| s |];
  Hashtbl.replace w.snap_base name base;
  Hashtbl.replace w.by_name name s

(* An update of packed row [old]: a new [qual], the payload bumped. *)
let redraw rng old =
  Oracle.pack ~id:(Oracle.id_of old) ~qual:(Rng.int rng W.qual_domain)
    ~payload:(Oracle.payload_of old + 1)

(* [ops] writes on base [bi] in the 3:1:1 update/insert/delete mix of
   [Workload.churn]; updates re-draw [qual], so rows enter and leave
   snapshots.  Addresses within one batch are distinct.  [pick] chooses
   a live address (uniform unless a skew is given). *)
let draw_churn w rng ~bi ~ops ?(pick = fun b -> Oracle.random_live b rng) acc =
  let b = w.shadows.(bi) in
  let touched = Hashtbl.create (2 * ops) in
  let rec fresh tries =
    if tries = 0 || Oracle.count b = 0 then None
    else
      let a = pick b in
      if Hashtbl.mem touched a then fresh (tries - 1)
      else begin
        Hashtbl.replace touched a ();
        Some a
      end
  in
  let insert () =
    let r = Oracle.pack ~id:!next_id ~qual:(Rng.int rng W.qual_domain) ~payload:0 in
    incr next_id;
    Ins r
  in
  let acc = ref acc in
  for _ = 1 to ops do
    let k = Rng.int rng 5 in
    let op =
      if k = 3 then insert ()
      else
        match fresh 16 with
        | None -> insert ()
        | Some a when k = 4 -> Del a
        | Some a -> Upd (a, redraw rng (Option.get (Oracle.get b a)))
    in
    acc := { base = bi; op } :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Workloads *)

type call_result = (string * (Manager.refresh_report, exn) result) list

type workload = {
  wname : string;
  build : Rng.t -> world * float * float;  (** world, populate s, snapshot creation s *)
  batch : world -> Rng.t -> int -> wop list;  (** the round's writes *)
  call : world -> int -> call_result;  (** the round's refresh call *)
  chunked : bool;
  readable : int list;  (** snapshots pinned reads go to *)
  read_previous : bool;  (** pin the retained epoch before the latest *)
  updaters_per_yield : int;
  maintain : world -> int -> [ `None | `Checkpoint of string | `Vacuum ];
  full_check_every : int;  (** full image comparison every n-th commit *)
}

let lookups_per_read = 16
let reads_per_round = 8

let refresh_one w name =
  [ (name, try Ok (Manager.refresh w.m name) with e -> Error e) ]

let every k f = fun _ r -> if r mod k = k - 1 then f r else `None

(* The paper's headline case: few changes per refresh over a table ~14x
   the buffer pool, one restricted snapshot, Auto method, Manager
   defaults. *)
let trickle_large =
  let rows = 100_000 in
  {
    wname = "trickle_large";
    build =
      (fun rng ->
        let m = Manager.create ~seed:(Rng.int rng 1_000_000) () in
        let bt = W.make_base ~mode:Base_table.Deferred ~clock:(Clock.create ()) () in
        Manager.register_base m bt;
        let w = new_world m [| bt |] in
        let t0 = now_ns () in
        populate w 0 rng rows;
        let t1 = now_ns () in
        add_snapshot w ~base:0 ~name:"s0" ~lo:0 ~hi:25_000 ~method_:Manager.Auto ();
        (w, float_of_int (t1 - t0) /. 1e9, float_of_int (now_ns () - t1) /. 1e9));
    batch = (fun w rng _ -> draw_churn w rng ~bi:0 ~ops:(rows / 1000) []);
    call = (fun w _ -> refresh_one w "s0");
    chunked = false;
    readable = [ 0 ];
    read_previous = false;
    updaters_per_yield = 4;
    maintain = every 16 (fun _ -> `Vacuum);
    full_check_every = 16;
  }

(* Receiver-heavy: heavy churn over a base that fits in the buffer pool,
   twelve sibling snapshots with different restrictions and projections,
   refreshed by one group scan, each retaining four epochs. *)
let fanout_churn =
  let rows = 6_000 in
  let nsnaps = 12 in
  let projections = [| [ 0; 1; 2; 3 ]; [ 0; 2 ]; [ 1; 2; 3 ]; [ 0; 3 ] |] in
  {
    wname = "fanout_churn";
    build =
      (fun rng ->
        let m = Manager.create ~seed:(Rng.int rng 1_000_000) () in
        let bt = W.make_base ~mode:Base_table.Deferred ~clock:(Clock.create ()) () in
        Manager.register_base m bt;
        let w = new_world m [| bt |] in
        let t0 = now_ns () in
        populate w 0 rng rows;
        let t1 = now_ns () in
        for i = 0 to nsnaps - 1 do
          let q = 0.1 +. (0.8 *. float_of_int i /. float_of_int (nsnaps - 1)) in
          let width = int_of_float (q *. float_of_int W.qual_domain) in
          let lo = (W.qual_domain - width) * (i * 5 mod nsnaps) / (nsnaps - 1) in
          add_snapshot w ~base:0 ~name:(Printf.sprintf "f%02d" i) ~lo ~hi:(lo + width)
            ~proj:projections.(i mod Array.length projections)
            ~method_:Manager.Differential ~strategy:Version_store.Copy_on_update ~retain:4 ()
        done;
        (w, float_of_int (t1 - t0) /. 1e9, float_of_int (now_ns () - t1) /. 1e9));
    batch = (fun w rng _ -> draw_churn w rng ~bi:0 ~ops:(rows / 20) []);
    call = (fun w _ -> Manager.refresh_all w.m);
    chunked = false;
    readable = List.init nsnaps Fun.id;
    read_previous = true;
    updaters_per_yield = 4;
    maintain = every 16 (fun _ -> `Vacuum);
    full_check_every = 8;
  }

(* Refreshes and writers interleave: an eager base on the in-memory WAL,
   chunked scans with updaters admitted at every chunk boundary, two
   differential siblings and one log-based sibling.  Two rounds in three
   refresh all three (grouped chunked scan plus the log-based one); the
   third refreshes one differential sibling alone (solo chunked scan). *)
let chunked_wal =
  let rows = 40_000 in
  {
    wname = "chunked_wal";
    build =
      (fun rng ->
        let m = Manager.create ~seed:(Rng.int rng 1_000_000) () in
        Manager.set_chunk_entries m 400;
        let bt =
          W.make_base ~mode:Base_table.Eager ~wal:(Wal.create ()) ~clock:(Clock.create ()) ()
        in
        Manager.register_base m bt;
        let w = new_world m [| bt |] in
        let t0 = now_ns () in
        populate w 0 rng rows;
        let t1 = now_ns () in
        add_snapshot w ~base:0 ~name:"d1" ~lo:0 ~hi:25_000 ~method_:Manager.Differential
          ~strategy:Version_store.Copy_on_update ~retain:4 ();
        add_snapshot w ~base:0 ~name:"d2" ~lo:30_000 ~hi:60_000 ~proj:[ 0; 2; 3 ]
          ~method_:Manager.Differential ();
        add_snapshot w ~base:0 ~name:"lb" ~lo:50_000 ~hi:75_000 ~method_:Manager.Log_based ();
        (w, float_of_int (t1 - t0) /. 1e9, float_of_int (now_ns () - t1) /. 1e9));
    batch = (fun w rng _ -> draw_churn w rng ~bi:0 ~ops:(rows / 400) []);
    call =
      (fun w r -> if r mod 3 = 2 then refresh_one w "d2" else Manager.refresh_all w.m);
    chunked = true;
    readable = [ 0 ];
    read_previous = true;
    updaters_per_yield = 2;
    maintain =
      (fun _ r ->
        if r mod 8 = 3 then `Checkpoint "emp" else if r mod 8 = 7 then `Vacuum else `None);
    full_check_every = 16;
  }

(* Many small refreshes: a fleet of ~1,000 snapshots over WAL-backed
   tenant bases with Pareto sizes, driven by Markov-modulated arrivals
   and one Fleet.tick per round in virtual time.  The fleet's shape --
   tenant sizes, rates, bursts, restrictions and SLOs -- comes from a
   fixed generator, because a heavy-tailed population redrawn per seed
   moves every figure more than any change to the program would; the
   seed drives row contents, arrivals, operations and reads.  Tenant
   bases are eager: see the README for the deferred-mode fault the
   fleet's method switching runs into. *)
let fleet_bursty =
  let tenants = 250 in
  let per_tenant = 4 in
  let dt_us = Fleet.default_config.Fleet.lookahead_us in
  {
    wname = "fleet_bursty";
    build =
      (fun rng ->
        let m = Manager.create ~seed:(Rng.int rng 1_000_000) () in
        let shape = Rng.create 29 in
        let pop = W.make_tenants ~rng:shape ~tenants () in
        let tables =
          Array.map
            (fun tn ->
              let bt =
                W.make_base ~mode:Base_table.Eager ~wal:(Wal.create ())
                  ~name:(Printf.sprintf "t%d" tn.W.tenant_id) ~clock:(Clock.create ()) ()
              in
              Manager.register_base m bt;
              bt)
            pop
        in
        let w = new_world m tables in
        w.tenants <- pop;
        let t0 = now_ns () in
        Array.iteri (fun i tn -> populate w i rng tn.W.tenant_size) pop;
        let t1 = now_ns () in
        let f = Fleet.create m in
        Array.iteri
          (fun i bt ->
            for j = 0 to per_tenant - 1 do
              let q = 0.1 +. Rng.float shape 0.8 in
              let width = int_of_float (q *. float_of_int W.qual_domain) in
              let lo = Rng.int shape (W.qual_domain - width + 1) in
              let name = Printf.sprintf "%s_s%d" (Base_table.name bt) j in
              add_snapshot w ~base:i ~name ~lo ~hi:(lo + width) ~method_:Manager.Auto ();
              (* Log-uniform staleness budgets over a decade: 2..20 ticks. *)
              Fleet.register f ~name
                ~slo_us:(2.0 *. Float.pow 10.0 (Rng.float shape 1.0) *. dt_us)
            done)
          tables;
        w.fleet <- Some f;
        (w, float_of_int (t1 - t0) /. 1e9, float_of_int (now_ns () - t1) /. 1e9));
    batch =
      (fun w rng _ ->
        let acc = ref [] in
        Array.iteri
          (fun i tn ->
            let ops = W.arrivals rng tn ~dt_s:(dt_us /. 1e6) in
            let b = w.shadows.(i) in
            let pick b = b.Oracle.live.(Rng.zipf rng ~n:b.Oracle.n_live ~theta:tn.W.tenant_theta) in
            if ops > 0 && Oracle.count b > 0 then acc := draw_churn w rng ~bi:i ~ops ~pick !acc)
          w.tenants;
        !acc);
    call =
      (fun w r ->
        let f = Option.get w.fleet in
        (Fleet.tick f ~now_us:(float_of_int (r + 1) *. dt_us)).Fleet.tr_results);
    chunked = false;
    readable = List.init (tenants * per_tenant) Fun.id;
    read_previous = false;
    updaters_per_yield = 4;
    maintain =
      (fun w r ->
        if r mod 10 = 9 then `Vacuum
        else `Checkpoint (Base_table.name w.tables.(r mod Array.length w.tables)));
    full_check_every = 4;
  }

let workloads = [ trickle_large; fanout_churn; chunked_wal; fleet_bursty ]

(* ------------------------------------------------------------------ *)
(* Accounting and measurements *)

type acct = {
  mutable writes : int;
  mutable updaters : int;
  mutable updaters_locked_out : int;
  mutable refreshes : int;
  mutable refresh_errors : int;
  mutable reads : int;
  mutable read_misses : int;
  mutable read_mismatches : int;
}

let acct =
  { writes = 0; updaters = 0; updaters_locked_out = 0; refreshes = 0; refresh_errors = 0;
    reads = 0; read_misses = 0; read_mismatches = 0 }

(* End-to-end samples (every timed round) and per-layer samples (traced
   rounds of a traced run). *)
let refresh_ms = Samples.create ()
let write_us = Samples.create ()
let stall_us = Samples.create ()
let read_us = Samples.create ()
let traced_refresh_ms = Samples.create ()
let untraced_refresh_ms = Samples.create ()
let ins_us = Samples.create ()
let upd_us = Samples.create ()
let del_us = Samples.create ()
let commit_ms = Samples.create ()
let pin_us = Samples.create ()
let get_us = Samples.create ()
let chunk_us = Samples.create ()
let catchup_ms = Samples.create ()
let updater_us = Samples.create ()
let checkpoint_ms = Samples.create ()
let vacuum_ms = Samples.create ()

(* Receiver-side time inside the current call (traced rounds). *)
let rx_decode_ns = ref 0
let rx_stage_ns = ref 0
let rx_commit_ns = ref 0
let rx_commit_since_yield_ns = ref 0

(* Totals over traced rounds. *)
let tr_refresh_ns = ref 0
let tr_rx_ns = ref 0
let tr_decode_ns = ref 0
let tr_stage_ns = ref 0
let tr_committed = ref 0
let committed_timed = ref 0

(* Counts over the counted prefix of the timed phase. *)
type counts = {
  mutable committed : int;
  mutable logical : int;
  mutable bytes : int;
  mutable chunks : int;
  mutable catchup_records : int;
  mutable attempts : int;
  mutable log_records : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable minor_words : float;
  mutable refused : int;
  mutable base_writes : int;
  mutable reads_done : int;
  mutable vac_log_bytes : int;
}

let counts =
  { committed = 0; logical = 0; bytes = 0; chunks = 0; catchup_records = 0; attempts = 0;
    log_records = 0; pool_hits = 0; pool_misses = 0; minor_words = 0.0; refused = 0;
    base_writes = 0; reads_done = 0; vac_log_bytes = 0 }

(* ------------------------------------------------------------------ *)
(* Receiver wrapper for traced rounds: the same work as
   [Snapshot_table.apply_bytes], split into frame decode, staging of data
   frames and the Snaptime commit. *)

let timed_receiver table bytes =
  if not (Refresh_msg.is_framed bytes) then Snapshot_table.apply_bytes table bytes
  else
    let t0 = now_ns () in
    match Refresh_msg.decode_framed bytes with
    | exception Refresh_msg.Corrupt _ -> Snapshot_table.apply_bytes table bytes
    | frame ->
      let t1 = now_ns () in
      rx_decode_ns := !rx_decode_ns + (t1 - t0);
      (match frame.Refresh_msg.msg with
      | Refresh_msg.Snaptime _ ->
        Spans.with_span "snapshot_table.commit" (fun () -> Snapshot_table.apply_framed table frame);
        let d = now_ns () - t1 in
        rx_commit_ns := !rx_commit_ns + d;
        rx_commit_since_yield_ns := !rx_commit_since_yield_ns + d;
        Samples.add commit_ms (float_of_int d /. 1e6)
      | _ ->
        Snapshot_table.apply_framed table frame;
        rx_stage_ns := !rx_stage_ns + (now_ns () - t1))

let attach_receivers w ~timed =
  Array.iter
    (fun (s : Oracle.snap) ->
      let link = Manager.snapshot_link w.m s.Oracle.name in
      let table = s.Oracle.table in
      Link.attach link
        (if timed then timed_receiver table else Snapshot_table.apply_bytes table))
    w.snaps

(* ------------------------------------------------------------------ *)
(* The round engine *)

type ctx = {
  w : world;
  wl : workload;
  rng : Rng.t;
  trace_rng : Rng.t;  (** picks the traced rounds, apart from [rng] *)
  trace : bool;
  perturb : bool;
  mutable traced : bool;  (** this round is traced *)
  mutable timed : bool;  (** this round is in the timed phase *)
  mutable counted : bool;  (** this round is in the counted prefix *)
  (* the refresh call in flight *)
  mutable in_call : bool;
  mutable call_start : int;
  mutable hook_ns : int;
  mutable last_yield : float;  (** refresh clock, us *)
  mutable hooks : int;
  mutable max_hooks : int;
  mutable pool : updater array;
  mutable next_up : int;
  mutable waiting : (updater * float) list;  (** arrived, not yet let in *)
  mutable admitted : updater list;
  mutable writer_ns : int;  (** writer time this round *)
  mutable writer_ops : int;
  mutable read_pool : read_spec array;
  mutable next_read : int;
  mutable read_results : read_result list;
}

let refresh_clock_us c = float_of_int (now_ns () - c.call_start - c.hook_ns) /. 1e3

let do_read c spec =
  let s = c.w.snaps.(spec.r_snap) in
  let epoch = if c.wl.read_previous then Some (Oracle.previous_epoch s) else None in
  let n = Array.length spec.r_addrs in
  let got = Array.make n None in
  let t0 = now_ns () in
  let pinned_epoch =
    if c.traced then
      Spans.with_span "read" (fun () ->
          let tp = now_ns () in
          match Manager.read_txn ?epoch c.w.m s.Oracle.name with
          | None -> -2
          | Some txn ->
            Samples.add pin_us (us_since tp);
            for i = 0 to n - 1 do
              let tg = now_ns () in
              got.(i) <- Snapshot_table.txn_get txn spec.r_addrs.(i);
              Samples.add get_us (us_since tg)
            done;
            let e = Snapshot_table.txn_epoch txn in
            Snapshot_table.release_txn txn;
            e)
    else
      match Manager.read_txn ?epoch c.w.m s.Oracle.name with
      | None -> -2
      | Some txn ->
        for i = 0 to n - 1 do
          got.(i) <- Snapshot_table.txn_get txn spec.r_addrs.(i)
        done;
        let e = Snapshot_table.txn_epoch txn in
        Snapshot_table.release_txn txn;
        e
  in
  if c.timed then Samples.add read_us (us_since t0);
  if c.counted then counts.reads_done <- counts.reads_done + 1;
  c.read_results <-
    { rr_snap = spec.r_snap; rr_epoch = pinned_epoch; rr_addrs = spec.r_addrs; rr_got = got }
    :: c.read_results

(* One updater transaction under the locking convention, against the
   manager's own lock table: table IX, page IX, entry X.  Returns false
   when a lock is refused (the scan's cursor holds the page). *)
let try_updater c u =
  let bt = c.w.tables.(u.u_base) in
  let t0 = now_ns () in
  let body () =
    let txn = Txn.begin_txn (Manager.txn_manager c.w.m) in
    let granted res mode = match Txn.try_lock txn res mode with `Granted -> true | _ -> false in
    let ok =
      granted (Base_table.lock_resource bt) Lock.IX
      && granted (Base_table.page_lock_resource bt (Addr.page u.u_addr)) Lock.IX
      && granted (Lock.Entry (Base_table.name bt, u.u_addr)) Lock.X
    in
    if ok then Base_table.update bt u.u_addr u.u_tuple;
    ignore ((if ok then Txn.commit txn else Txn.abort txn) : int list);
    ok
  in
  let ok = if c.traced then Spans.with_span "txn.updater" body else body () in
  let d = now_ns () - t0 in
  c.writer_ns <- c.writer_ns + d;
  c.writer_ops <- c.writer_ops + 1;
  if c.traced then Samples.add updater_us (float_of_int d /. 1e3);
  acct.updaters <- acct.updaters + (if ok then 1 else 0);
  if ok && c.counted then counts.base_writes <- counts.base_writes + 1;
  if not ok && c.counted then counts.refused <- counts.refused + 1;
  ok

(* New arrivals for the interval that ends at [now] (refresh clock): the
   k-th of [n] falls uniformly in the k-th [1/n] of the interval, so the
   arrivals are spread over the whole call. *)
let arrive c ~now =
  let lo = c.last_yield in
  let n = c.wl.updaters_per_yield in
  for k = 0 to n - 1 do
    if c.next_up < Array.length c.pool then begin
      let u = c.pool.(c.next_up) in
      c.next_up <- c.next_up + 1;
      let frac = (float_of_int k +. u.u_frac) /. float_of_int n in
      c.waiting <- c.waiting @ [ (u, lo +. (frac *. (now -. lo))) ]
    end
  done

(* Let in every waiting writer whose locks are granted at [now]. *)
let admit c ~now =
  c.waiting <-
    List.filter
      (fun (u, arrival) ->
        if try_updater c u then begin
          if c.timed then Samples.add stall_us (now -. arrival);
          c.admitted <- u :: c.admitted;
          false
        end
        else true)
      c.waiting

(* The chunk hook: a yield point inside a chunked refresh. *)
let on_yield c () =
  if c.in_call then begin
    let entry = now_ns () in
    let now = refresh_clock_us c in
    if c.traced then begin
      Samples.add chunk_us (now -. c.last_yield);
      ignore (Spans.record ~parent:(Spans.current ()) "manager.chunk"
                (entry - int_of_float ((now -. c.last_yield) *. 1e3)) entry : int)
    end;
    c.hooks <- c.hooks + 1;
    Spans.with_span "yield" (fun () ->
        arrive c ~now;
        admit c ~now;
        if c.next_read < Array.length c.read_pool then begin
          let spec = c.read_pool.(c.next_read) in
          c.next_read <- c.next_read + 1;
          do_read c spec
        end);
    c.last_yield <- now;
    rx_commit_since_yield_ns := 0;
    c.hook_ns <- c.hook_ns + (now_ns () - entry)
  end

let apply_shadow c bi op addr =
  let b = c.w.shadows.(bi) in
  match op with
  | Ins r -> Oracle.set_row b addr (Some r)
  | Upd (a, r) -> Oracle.set_row b a (Some r)
  | Del a -> Oracle.set_row b a None

(* The round's batch of writes, timed as a whole. *)
let run_writes c (batch : wop array) =
  let n = Array.length batch in
  let addrs = Array.make n 0 in
  let tuples =
    Array.map (fun { op; _ } -> match op with Ins r | Upd (_, r) -> Oracle.tuple r | Del _ -> [||])
      batch
  in
  let exec i =
    let { base; op } = batch.(i) in
    let bt = c.w.tables.(base) in
    match op with
    | Ins _ -> addrs.(i) <- Base_table.insert bt tuples.(i)
    | Upd (a, _) ->
      Base_table.update bt a tuples.(i);
      addrs.(i) <- a
    | Del a ->
      Base_table.delete bt a;
      addrs.(i) <- a
  in
  let t0 = now_ns () in
  if c.traced then
    Spans.with_span "writes" (fun () ->
        for i = 0 to n - 1 do
          let ts = now_ns () in
          let name, samples =
            match batch.(i).op with
            | Ins _ -> ("base_table.insert", ins_us)
            | Upd _ -> ("base_table.update", upd_us)
            | Del _ -> ("base_table.delete", del_us)
          in
          Spans.with_span name (fun () -> exec i);
          Samples.add samples (us_since ts)
        done)
  else
    for i = 0 to n - 1 do
      exec i
    done;
  c.writer_ns <- c.writer_ns + (now_ns () - t0);
  c.writer_ops <- c.writer_ops + n;
  acct.writes <- acct.writes + n;
  if c.counted then counts.base_writes <- counts.base_writes + n;
  Array.iteri (fun i { base; op } -> apply_shadow c base op addrs.(i)) batch

(* Updaters for this call: distinct live rows, pre-drawn, enough for one
   batch per yield interval seen so far plus slack. *)
let draw_updaters c =
  let w = c.w in
  let n = (c.max_hooks + 2) * c.wl.updaters_per_yield in
  let touched = Hashtbl.create (2 * n) in
  let pool = ref [] in
  let tries = ref 0 in
  while List.length !pool < n && !tries < 4 * n do
    incr tries;
    let bi = Rng.int c.rng (Array.length w.tables) in
    let b = w.shadows.(bi) in
    if Oracle.count b > 0 then begin
      let a = Oracle.random_live b c.rng in
      if not (Hashtbl.mem touched (bi, a)) then begin
        Hashtbl.replace touched (bi, a) ();
        let r = redraw c.rng (Option.get (Oracle.get b a)) in
        pool :=
          { u_base = bi; u_addr = a; u_row = r; u_tuple = Oracle.tuple r;
            u_frac = Rng.float c.rng 1.0 }
          :: !pool
      end
    end
  done;
  c.pool <- Array.of_list (List.rev !pool);
  c.next_up <- 0

let draw_reads c =
  let readable = Array.of_list c.wl.readable in
  let n = c.max_hooks + 1 + reads_per_round in
  c.read_pool <-
    Array.init n (fun _ ->
        let si = Rng.pick c.rng readable in
        let b = c.w.shadows.(Hashtbl.find c.w.snap_base c.w.snaps.(si).Oracle.name) in
        { r_snap = si;
          r_addrs = Array.init lookups_per_read (fun _ -> Oracle.random_live b c.rng) });
  c.next_read <- 0

let check_reads c =
  List.iter
    (fun rr ->
      acct.reads <- acct.reads + 1;
      if rr.rr_epoch = -2 then acct.read_misses <- acct.read_misses + 1
      else
        let s = c.w.snaps.(rr.rr_snap) in
        match Oracle.image_at s rr.rr_epoch with
        | None -> acct.read_misses <- acct.read_misses + 1
        | Some image ->
          let bad = ref false in
          Array.iteri
            (fun i a ->
              if not (Oracle.same s rr.rr_got.(i) (Oracle.IM.find_opt a image)) then bad := true)
            rr.rr_addrs;
          if !bad then acct.read_mismatches <- acct.read_mismatches + 1)
    c.read_results;
  c.read_results <- []

let base_pool_stats c =
  Array.fold_left
    (fun (h, m) bt ->
      let st = Snapdiff_storage.Buffer_pool.stats (Base_table.pool bt) in
      (h + st.Snapdiff_storage.Buffer_pool.hits, m + st.Snapdiff_storage.Buffer_pool.misses))
    (0, 0) c.w.tables

(* Apply the writers let in so far to the shadow, in admission order. *)
let settle_admitted c =
  List.iter
    (fun u -> Oracle.set_row c.w.shadows.(u.u_base) u.u_addr (Some u.u_row))
    (List.rev c.admitted);
  c.admitted <- []

(* One round: writes, one refresh call, the oracle, late writers, reads,
   periodic maintenance.  Returns the round's timed wall time in ns. *)
let run_round c r =
  let w = c.w in
  (* Drawn outside the timers. *)
  let batch = Array.of_list (List.rev (c.wl.batch w c.rng r)) in
  c.writer_ns <- 0;
  c.writer_ops <- 0;
  Spans.on := c.traced;
  if c.trace then attach_receivers w ~timed:c.traced;
  let wall = ref 0 in
  let timed f =
    let t0 = now_ns () in
    let v = f () in
    wall := !wall + (now_ns () - t0);
    v
  in
  timed (fun () -> run_writes c batch);
  draw_updaters c;
  draw_reads c;
  (* The refresh call. *)
  rx_decode_ns := 0;
  rx_stage_ns := 0;
  rx_commit_ns := 0;
  rx_commit_since_yield_ns := 0;
  c.hooks <- 0;
  c.hook_ns <- 0;
  c.last_yield <- 0.0;
  c.waiting <- [];
  c.admitted <- [];
  let pool_h0, pool_m0 = base_pool_stats c in
  let minor0 = Gc.minor_words () in
  let results, d_us =
    timed (fun () ->
        Spans.with_span "refresh_call" (fun () ->
            c.in_call <- true;
            c.call_start <- now_ns ();
            let results = c.wl.call w r in
            let end_ns = now_ns () in
            c.in_call <- false;
            (results, float_of_int (end_ns - c.call_start - c.hook_ns) /. 1e3)))
  in
  let minor1 = Gc.minor_words () in
  let pool_h1, pool_m1 = base_pool_stats c in
  c.max_hooks <- max c.max_hooks c.hooks;
  if c.timed then begin
    Samples.add refresh_ms (d_us /. 1e3);
    if c.trace then
      Samples.add (if c.traced then traced_refresh_ms else untraced_refresh_ms) (d_us /. 1e3)
  end;
  if c.traced then begin
    Samples.add chunk_us (d_us -. c.last_yield);
    Samples.add catchup_ms
      (((d_us -. c.last_yield) /. 1e3) -. (float_of_int !rx_commit_since_yield_ns /. 1e6));
    let rx = !rx_decode_ns + !rx_stage_ns + !rx_commit_ns in
    tr_refresh_ns := !tr_refresh_ns + int_of_float (d_us *. 1e3);
    tr_rx_ns := !tr_rx_ns + rx;
    tr_decode_ns := !tr_decode_ns + !rx_decode_ns;
    tr_stage_ns := !tr_stage_ns + !rx_stage_ns
  end;
  (* Writers let in at chunk boundaries become shadow rows now; the
     committed images were cut after the last boundary. *)
  settle_admitted c;
  (* Oracle. *)
  List.iter
    (fun (name, res) ->
      acct.refreshes <- acct.refreshes + 1;
      match res with
      | Error _ -> acct.refresh_errors <- acct.refresh_errors + 1
      | Ok (rep : Manager.refresh_report) ->
        let s = Hashtbl.find w.by_name name in
        incr checks_attempted;
        let full = (s.Oracle.commits + 1) mod c.wl.full_check_every = 0 in
        check_misses := !check_misses + Oracle.check_commit ~perturb:c.perturb ~full s;
        if c.traced then incr tr_committed;
        if c.timed then incr committed_timed;
        if c.counted then begin
          counts.committed <- counts.committed + 1;
          counts.logical <- counts.logical + rep.Manager.link_logical_messages;
          counts.bytes <- counts.bytes + rep.Manager.link_bytes;
          counts.chunks <- counts.chunks + rep.Manager.chunks;
          counts.catchup_records <- counts.catchup_records + rep.Manager.catchup_records;
          counts.attempts <- counts.attempts + rep.Manager.attempts;
          counts.log_records <- counts.log_records + rep.Manager.log_records_scanned
        end)
    results;
  if c.counted then begin
    counts.pool_hits <- counts.pool_hits + (pool_h1 - pool_h0);
    counts.pool_misses <- counts.pool_misses + (pool_m1 - pool_m0);
    counts.minor_words <- counts.minor_words +. (minor1 -. minor0)
  end;
  (* Writers that arrived in the last interval, or were refused at every
     boundary, get in at the call's return. *)
  arrive c ~now:d_us;
  timed (fun () -> admit c ~now:d_us);
  acct.updaters_locked_out <- acct.updaters_locked_out + List.length c.waiting;
  c.waiting <- [];
  settle_admitted c;
  if c.timed && c.writer_ops > 0 then
    Samples.add write_us (float_of_int c.writer_ns /. 1e3 /. float_of_int c.writer_ops);
  (* Pinned reads after the call. *)
  timed (fun () ->
      for _ = 1 to reads_per_round do
        if c.next_read < Array.length c.read_pool then begin
          let spec = c.read_pool.(c.next_read) in
          c.next_read <- c.next_read + 1;
          do_read c spec
        end
      done);
  check_reads c;
  (* Periodic maintenance. *)
  (match c.wl.maintain w r with
  | `None -> ()
  | `Checkpoint base ->
    let t0 = now_ns () in
    timed (fun () ->
        Spans.with_span "manager.checkpoint" (fun () ->
            ignore (Manager.checkpoint w.m base : Manager.checkpoint_report)));
    Samples.add checkpoint_ms (float_of_int (now_ns () - t0) /. 1e6)
  | `Vacuum ->
    let t0 = now_ns () in
    let rep = timed (fun () -> Spans.with_span "manager.vacuum" (fun () -> Manager.vacuum w.m)) in
    Samples.add vacuum_ms (float_of_int (now_ns () - t0) /. 1e6);
    if c.counted then
      List.iter
        (fun wv -> counts.vac_log_bytes <- counts.vac_log_bytes + wv.Manager.wv_log_bytes_reclaimed)
        rep.Manager.vac_wals);
  Spans.on := false;
  !wall

(* ------------------------------------------------------------------ *)
(* Registry and fleet snapshots for the counted prefix *)

let registry_names =
  [ "refresh.pages_decoded"; "refresh.pages_skipped"; "refresh.entries_decoded";
    "refresh.fixup_writes"; "refresh.group_decodes_saved"; "link.frames"; "link.bytes";
    "mvcc.pages_copied"; "mvcc.copy_bytes"; "mvcc.read_indirections"; "wal.append_bytes";
    "lifecycle.leases_acquired" ]

let registry_snapshot () =
  List.map (fun n -> (n, Metrics.counter_value Metrics.global n)) registry_names

let fleet_snapshot w = Option.map Fleet.stats w.fleet

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.12g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let median l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  Samples.quantile s 0.5

let () =
  let wname = match arg_value "--workload" with Some n -> n | None -> die "--workload required" in
  let wl =
    match List.find_opt (fun wl -> wl.wname = wname) workloads with
    | Some wl -> wl
    | None ->
      die "unknown workload %S (one of: %s)" wname
        (String.concat ", " (List.map (fun wl -> wl.wname) workloads))
  in
  let seed = int_arg "--seed" ~default:1 in
  let seconds = int_arg "--seconds" ~default:10 in
  let trace = int_arg "--trace" ~default:0 <> 0 in
  let perturb = arg_flag "--perturb" in
  let out_dir = arg_value "--out" in
  if seconds < 1 then die "--seconds must be positive";
  let shown = ref 0 in
  (Oracle.on_miss :=
     fun msg ->
       incr shown;
       if !shown <= 20 then prerr_endline ("refreshbench: oracle miss: " ^ msg));
  (* Set-up, three times; the median is reported and the last world kept.
     The heap is compacted after each, outside the timer: compaction is
     the benchmark's hygiene, not the program's work. *)
  let setups = 3 in
  let world = ref None in
  let setup_s = ref [] and populate_s = ref [] and snapshots_s = ref [] in
  for i = 1 to setups do
    world := None;
    Gc.compact ();
    let t0 = if i = 1 then process_t0 else now_ns () in
    next_id := 0;
    let w, pop, snap = wl.build (Rng.create seed) in
    setup_s := (float_of_int (now_ns () - t0) /. 1e9) :: !setup_s;
    Gc.compact ();
    populate_s := pop :: !populate_s;
    snapshots_s := snap :: !snapshots_s;
    world := Some w
  done;
  let w = Option.get !world in
  let c =
    { w; wl; rng = Rng.create (seed * 7919 + 17); trace_rng = Rng.create (seed + 1); trace;
      perturb; traced = false; timed = false;
      counted = false; in_call = false; call_start = 0; hook_ns = 0; last_yield = 0.0;
      hooks = 0; max_hooks = 0; pool = [||]; next_up = 0; waiting = []; admitted = [];
      writer_ns = 0; writer_ops = 0; read_pool = [||]; next_read = 0; read_results = [] }
  in
  if wl.chunked then Manager.set_chunk_hook w.m (Some (on_yield c));
  (* Warm-up rounds, checked but not timed, then a compacted heap. *)
  let warmup = 2 in
  for r = 0 to warmup - 1 do
    ignore (run_round c r : int)
  done;
  Gc.compact ();
  Metrics.reset Metrics.global;
  (* The timed phase: at least [min_rounds] rounds and [seconds] seconds.
     Counts come from the first [min_rounds] rounds, so one seed gives
     identical counts however fast the machine is. *)
  let min_rounds = 100 in
  let hard_cap_ns = 150 * 1_000_000_000 in
  let reg0 = registry_snapshot () in
  let fleet0 = fleet_snapshot w in
  let gc0 = Gc.quick_stat () in
  let reg1 = ref reg0 and fleet1 = ref fleet0 and gc1 = ref gc0 in
  let cpu0 = Sys.time () in
  let start = now_ns () in
  let timed_ns = ref 0 in
  let rounds = ref 0 in
  while
    !rounds < min_rounds
    || (now_ns () - start < seconds * 1_000_000_000 && now_ns () - start < hard_cap_ns)
  do
    let r = warmup + !rounds in
    c.timed <- true;
    c.counted <- !rounds < min_rounds;
    (* A random half of the rounds is traced: workloads with periodic
       rounds (fleet ticks, grouped/solo rotation) would bias a fixed
       alternation. *)
    c.traced <- trace && Rng.bool c.trace_rng;
    timed_ns := !timed_ns + run_round c r;
    incr rounds;
    if !rounds = min_rounds then begin
      reg1 := registry_snapshot ();
      fleet1 := fleet_snapshot w;
      gc1 := Gc.quick_stat ()
    end
  done;
  let loop_s = float_of_int (now_ns () - start) /. 1e9 in
  let cpu_s = Sys.time () -. cpu0 in
  (* The last commit of every snapshot is always checked in full, against
     the image recorded when it committed. *)
  Array.iter
    (fun s ->
      incr checks_attempted;
      let image =
        Option.value ~default:Oracle.IM.empty (Oracle.image_at s (Oracle.latest_epoch s))
      in
      check_misses :=
        !check_misses
        + Oracle.full_mismatches s (if perturb then Oracle.perturbed image else image))
    w.snaps;
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let failed =
    acct.refresh_errors + acct.read_misses + acct.read_mismatches + !check_misses
    + acct.updaters_locked_out
  in
  let attempted =
    acct.writes + acct.updaters + acct.updaters_locked_out + acct.refreshes + acct.reads
    + !checks_attempted
  in
  let correct = !check_misses = 0 && acct.read_mismatches = 0 in
  let per x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n in
  let timed_s = float_of_int !timed_ns /. 1e9 in
  let q = Samples.quantile in
  let committed = counts.committed in
  let e2e =
    [ ("setup_s", median !setup_s, "s");
      ("refresh_ms_p50", q refresh_ms 0.5, "ms");
      ("refresh_ms_p90", q refresh_ms 0.9, "ms");
      ("refreshes_per_s", float_of_int !committed_timed /. timed_s, "1/s");
      ("write_us_p50", q write_us 0.5, "us");
      ("write_us_p90", q write_us 0.9, "us");
      ("stall_us_p50", q stall_us 0.5, "us");
      ("stall_us_p90", q stall_us 0.9, "us");
      ("read_us_p50", q read_us 0.5, "us");
      ("read_us_p90", q read_us 0.9, "us");
      ("link_msgs_per_refresh", per counts.logical committed, "messages");
      ("link_bytes_per_refresh", per counts.bytes committed, "bytes");
      ("top_heap_mb", top_heap_mb, "MB") ]
  in
  let delta name = List.assoc name !reg1 - List.assoc name reg0 in
  let reg_per name unit = (per (delta name) committed, unit) in
  let fleet_delta f =
    match (fleet0, !fleet1) with Some a, Some b -> f b - f a | _ -> 0
  in
  let ticks = fleet_delta (fun st -> st.Fleet.st_ticks) in
  let fleet_per f = per (fleet_delta f) ticks in
  let fleet_count f = float_of_int (fleet_delta f) in
  let ns_per_committed ns =
    if !tr_committed = 0 then 0.0 else float_of_int ns /. float_of_int !tr_committed
  in
  let named name (v, unit) = (name, v, unit) in
  let layers =
    [ ("base_table.insert_us_p50", q ins_us 0.5, "us");
      ("base_table.update_us_p50", q upd_us 0.5, "us");
      ("base_table.delete_us_p50", q del_us 0.5, "us");
      ("buffer_pool.hit_ratio",
       per counts.pool_hits (counts.pool_hits + counts.pool_misses), "ratio");
      ("buffer_pool.misses_per_refresh", per counts.pool_misses committed, "pages");
      ("sender.ms_per_refresh", ns_per_committed (!tr_refresh_ns - !tr_rx_ns) /. 1e6, "ms");
      named "differential.pages_decoded_per_refresh" (reg_per "refresh.pages_decoded" "pages");
      named "differential.pages_skipped_per_refresh" (reg_per "refresh.pages_skipped" "pages");
      named "differential.entries_decoded_per_refresh"
        (reg_per "refresh.entries_decoded" "entries");
      named "fixup.writes_per_refresh" (reg_per "refresh.fixup_writes" "writes");
      named "differential.group_decodes_saved_per_refresh"
        (reg_per "refresh.group_decodes_saved" "pages");
      named "link.frames_per_refresh" (reg_per "link.frames" "frames");
      ("link.bytes_per_frame", per (delta "link.bytes") (delta "link.frames"), "bytes");
      ("refresh_msg.decode_us_per_refresh", ns_per_committed !tr_decode_ns /. 1e3, "us");
      ("snapshot_table.stage_us_per_refresh", ns_per_committed !tr_stage_ns /. 1e3, "us");
      ("snapshot_table.commit_ms_p50", q commit_ms 0.5, "ms");
      ("snapshot_table.receiver_share", per !tr_rx_ns !tr_refresh_ns, "ratio");
      named "mvcc.pages_copied_per_refresh" (reg_per "mvcc.pages_copied" "pages");
      named "mvcc.copy_bytes_per_refresh" (reg_per "mvcc.copy_bytes" "bytes");
      ("read.pin_us_p50", q pin_us 0.5, "us");
      ("read.get_us_p50", q get_us 0.5, "us");
      ("mvcc.read_indirections_per_read",
       per (delta "mvcc.read_indirections") counts.reads_done, "count");
      ("manager.chunk_us_p50", q chunk_us 0.5, "us");
      ("manager.chunk_us_p90", q chunk_us 0.9, "us");
      ("manager.chunks_per_refresh", per counts.chunks committed, "chunks");
      ("manager.catchup_ms_p50", q catchup_ms 0.5, "ms");
      ("manager.catchup_records_per_refresh", per counts.catchup_records committed, "records");
      ("manager.attempts_per_refresh", per counts.attempts committed, "attempts");
      ("txn.updater_us_p50", q updater_us 0.5, "us");
      ("lock.refused_per_refresh", per counts.refused committed, "count");
      ("wal.append_bytes_per_write", per (delta "wal.append_bytes") counts.base_writes, "bytes");
      ("log_based.records_scanned_per_refresh", per counts.log_records committed, "records");
      ("checkpoint.ms_p50", q checkpoint_ms 0.5, "ms");
      ("vacuum.ms_p50", q vacuum_ms 0.5, "ms");
      ("vacuum.log_bytes_reclaimed", float_of_int counts.vac_log_bytes, "bytes");
      named "lifecycle.leases_per_refresh" (reg_per "lifecycle.leases_acquired" "leases");
      ("fleet.decision_us_p50",
       (if w.fleet = None then 0.0
        else Metrics.quantile (Metrics.histogram Metrics.global "fleet.decision_us") 0.5), "us");
      ("fleet.dispatched_per_tick",
       fleet_per (fun st -> st.Fleet.st_refreshes + st.Fleet.st_failures), "refreshes");
      ("fleet.grouped_per_tick", fleet_per (fun st -> st.Fleet.st_grouped), "refreshes");
      ("fleet.method_full", fleet_count (fun st -> st.Fleet.st_full), "count");
      ("fleet.method_differential", fleet_count (fun st -> st.Fleet.st_differential), "count");
      ("fleet.method_log_based", fleet_count (fun st -> st.Fleet.st_log_based), "count");
      ("fleet.slo_misses", fleet_count (fun st -> st.Fleet.st_slo_misses), "count");
      ("gc.minor_words_per_refresh",
       (if committed = 0 then 0.0 else counts.minor_words /. float_of_int committed), "words");
      ("gc.major_collections",
       float_of_int (!gc1.Gc.major_collections - gc0.Gc.major_collections), "count");
      ("setup.populate_s", median !populate_s, "s");
      ("setup.create_snapshots_s", median !snapshots_s, "s");
      ("trace.refresh_ms_p50", q traced_refresh_ms 0.5, "ms");
      ("trace.overhead_ms", q traced_refresh_ms 0.5 -. q untraced_refresh_ms 0.5, "ms") ]
  in
  let metrics = if trace then layers else e2e in
  let kinds =
    [ ("base_writes", acct.writes, 0);
      ("updaters", acct.updaters + acct.updaters_locked_out, acct.updaters_locked_out);
      ("refreshes", acct.refreshes, acct.refresh_errors);
      ("pinned_reads", acct.reads, acct.read_misses + acct.read_mismatches);
      ("oracle_checks", !checks_attempted, !check_misses) ]
  in
  let phase =
    [ ("rounds", float_of_int !rounds); ("counted_rounds", float_of_int (min !rounds min_rounds));
      ("setup_first_s", List.nth !setup_s (setups - 1));
      ("timed_s", timed_s); ("loop_wall_s", loop_s); ("loop_cpu_s", cpu_s);
      ("refresh_samples", float_of_int (Samples.count refresh_ms));
      ("write_samples", float_of_int (Samples.count write_us));
      ("stall_samples", float_of_int (Samples.count stall_us));
      ("read_samples", float_of_int (Samples.count read_us));
      ("committed_refreshes", float_of_int !committed_timed);
      ("base_rows",
       float_of_int (Array.fold_left (fun a bt -> a + Base_table.count bt) 0 w.tables));
      ("base_pages",
       float_of_int (Array.fold_left (fun a bt -> a + Base_table.data_pages bt) 0 w.tables)) ]
  in
  (* Human-readable summary on standard error. *)
  Printf.eprintf "%s seed %d trace %d: %d rounds, timed %.2f s of %.2f s wall, cpu %.2f s\n"
    wl.wname seed (if trace then 1 else 0) !rounds timed_s loop_s cpu_s;
  List.iter
    (fun (k, a, f) -> Printf.eprintf "  %-14s attempted %8d  failed %d\n" k a f)
    kinds;
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-46s %14.4f %s\n" n v u) metrics;
  (match out_dir with
  | None -> ()
  | Some dir ->
    let stem = Printf.sprintf "%s/%s-seed%d-trace%d" dir wl.wname seed (if trace then 1 else 0) in
    let oc = open_out (stem ^ ".json") in
    let obj l f = String.concat ", " (List.map f l) in
    Printf.fprintf oc
      "{\"workload\": \"%s\", \"seed\": %d, \"trace\": %b, \"correct\": %b,\n\
      \ \"phase\": {%s},\n\
      \ \"operations\": {%s},\n\
      \ \"metrics\": {%s}}\n"
      wl.wname seed trace correct
      (obj phase (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_number v)))
      (obj kinds (fun (k, a, f) ->
           Printf.sprintf "\"%s\": {\"attempted\": %d, \"failed\": %d}" k a f))
      (obj metrics (fun (n, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u));
    close_out oc;
    if trace then Spans.write (stem ^ ".spans.jsonl"));
  print_result ~correct ~attempted ~failed metrics
