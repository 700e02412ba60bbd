open Snapdiff_storage
open Snapdiff_txn
module Expr = Snapdiff_expr.Expr
module Eval = Snapdiff_expr.Eval
module Typecheck = Snapdiff_expr.Typecheck
module Selectivity = Snapdiff_expr.Selectivity
module Change_log = Snapdiff_changelog.Change_log
module Link = Snapdiff_net.Link
module Model = Snapdiff_analysis.Model
module Wal = Snapdiff_wal.Wal
module Recovery = Snapdiff_wal.Recovery
module Wal_checkpoint = Snapdiff_wal.Checkpoint
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace
module Lease = Snapdiff_lifecycle.Lease
module Horizon = Snapdiff_lifecycle.Horizon
module Version_store = Snapdiff_mvcc.Version_store

let m_refreshes = Metrics.counter Metrics.global "refresh.refreshes"
let m_attempts = Metrics.counter Metrics.global "refresh.attempts"
let m_aborted_streams = Metrics.counter Metrics.global "refresh.aborted_streams"
let m_escalations = Metrics.counter Metrics.global "refresh.escalations"
let m_failures = Metrics.counter Metrics.global "refresh.failures"
let m_data_messages = Metrics.counter Metrics.global "refresh.data_messages"
let m_entries_scanned = Metrics.counter Metrics.global "refresh.entries_scanned"
let h_duration = Metrics.histogram Metrics.global "refresh.duration_us"
let h_backoff = Metrics.histogram Metrics.global "refresh.backoff_us"
let h_group_size = Metrics.histogram Metrics.global "refresh.group_size"
let h_chunks = Metrics.histogram Metrics.global "refresh.chunks"
let h_catchup_records = Metrics.histogram Metrics.global "refresh.catchup_records"
let h_lock_hold = Metrics.histogram Metrics.global "refresh.lock_hold_us"

let log_src = Logs.Src.create "snapdiff.refresh" ~doc:"snapshot refresh events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type method_spec =
  | Auto
  | Full
  | Differential
  | Ideal
  | Log_based

type method_used = Used_full | Used_differential | Used_ideal | Used_log_based

let method_name = function
  | Used_full -> "full"
  | Used_differential -> "differential"
  | Used_ideal -> "ideal"
  | Used_log_based -> "log-based"

type refresh_report = {
  snapshot : string;
  method_used : method_used;
  new_snaptime : Clock.ts;
  entries_scanned : int;
  entries_skipped : int;  (* proven irrelevant by page summaries, not decoded *)
  pages_decoded : int;  (* pages this stream consumed; differential scans only *)
  fixup_writes : int;
  data_messages : int;
  link_messages : int;  (* physical frames *)
  link_logical_messages : int;  (* protocol messages carried by those frames *)
  link_bytes : int;
  tail_suppressed : bool;
  log_records_scanned : int;
  attempts : int;  (* stream attempts, including the one that committed *)
  aborts : int;  (* attempts that failed or whose stream was discarded *)
  escalated : bool;  (* degraded to full refresh after repeated failures *)
  backoff_us : float;  (* simulated retry backoff accumulated *)
  group_size : int;  (* subscribers sharing the scan that served this; 1 = solo *)
  chunks : int;  (* page-range chunks the scan was split into; 0 = monolithic *)
  catchup_records : int;  (* net-changed addresses replayed from the WAL tail *)
  max_lock_hold_us : float;  (* longest single lock-hold window (chunk or catch-up) *)
}

(* Retry discipline for refresh streams.  Backoff is simulated time
   (charged to the link's transfer clock), not wall-clock sleep. *)
type retry_policy = {
  max_attempts : int;
  backoff_us : float;  (* first retry's base delay *)
  backoff_multiplier : float;
  max_backoff_us : float;
  jitter : float;  (* fraction of the delay randomized, in [0, 1] *)
  escalate_after : int;  (* consecutive failures before forcing full refresh *)
}

let default_retry_policy =
  {
    max_attempts = 8;
    backoff_us = 1_000.0;
    backoff_multiplier = 2.0;
    max_backoff_us = 1_000_000.0;
    jitter = 0.5;
    escalate_after = 3;
  }

exception Unknown_table of string
exception Unknown_snapshot of string
exception Duplicate_name of string
exception Bad_definition of string

exception Refresh_failed of { snapshot : string; attempts : int; reason : string }

type base_state = {
  base_table : Base_table.t;
  mutable capture : (Change_log.t * Base_table.subscription) option;
}

type snapshot = {
  snap_name : string;
  base_name : string;
  restrict_expr : Expr.t;
  restrict : Tuple.t -> bool;
  projection : string list;
  project : Tuple.t -> Tuple.t;
  table : Snapshot_table.t;
  link : Link.t;
  request_link : Link.t;  (* snapshot -> base control path *)
  mutable spec : method_spec;  (* the fleet scheduler re-routes per refresh *)
  tail_suppression : bool;
  prune : Differential.Prune_cache.t option;  (* page-qualification cache *)
  mutable selectivity : float;
  mutable cursor_seq : Change_log.seq;
  mutable cursor_lsn : Wal.lsn;
  mutable cursor_lease : Lease.t option;  (* log-based only: pins cursor_lsn *)
  mutable mutations_at_refresh : int;
  mutable next_epoch : int;  (* every stream attempt gets a fresh epoch *)
  mutable history : refresh_report list;  (* committed refreshes, newest first *)
}

(* Committed-refresh history kept per snapshot for the scheduler's churn
   estimates; bounded so a long-lived fleet cannot leak. *)
let history_cap = 32

let note_report s report =
  s.history <- report :: List.filteri (fun i _ -> i < history_cap - 1) s.history

type t = {
  bases : (string, base_state) Hashtbl.t;
  snapshots : (string, snapshot) Hashtbl.t;
  txns : Txn.manager;
  mutable retry : retry_policy;
  mutable batch : int;  (* flush threshold for batched transport; <= 1 = off *)
  mutable chunk_entries : int;  (* scan chunk size; max_int = monolithic *)
  mutable domains : int;  (* refresh decode parallelism; 1 = sequential *)
  mutable arena : bool option;  (* decode-arena override; None = (domains > 1) *)
  mutable on_chunk : (unit -> unit) option;  (* interleave point between chunks *)
  rng : Snapdiff_util.Rng.t;  (* backoff jitter, selectivity sampling *)
  (* One retention horizon per WAL (keyed by physical identity — several
     bases may share one log).  Every consumer of historical log state —
     a chunked scan's catch-up, a log-based cursor, a running checkpoint —
     holds a lease here, and the horizon's floor is the only truncation
     gate: neither [checkpoint] nor [vacuum] may discard records below it. *)
  mutable wal_horizons : (Wal.t * Horizon.t) list;
}

let key = String.lowercase_ascii

let create ?(retry = default_retry_policy) ?(seed = 0x5EED) ?(batch_size = 1)
    ?(chunk_entries = max_int) ?(domains = 1) ?arena () =
  {
    bases = Hashtbl.create 8;
    snapshots = Hashtbl.create 8;
    txns = Txn.create_manager ();
    retry;
    batch = max 1 batch_size;
    chunk_entries = max 1 chunk_entries;
    domains = max 1 domains;
    arena;
    on_chunk = None;
    rng = Snapdiff_util.Rng.create seed;
    wal_horizons = [];
  }

let txn_manager t = t.txns

let retry_policy t = t.retry

let set_retry_policy t p = t.retry <- p

let batch_size t = t.batch

let set_batch_size t n = t.batch <- max 1 n

let chunk_entries t = t.chunk_entries

let set_chunk_entries t n = t.chunk_entries <- max 1 n

let domains t = t.domains

let set_domains ?arena t n =
  t.domains <- max 1 n;
  match arena with None -> () | Some _ -> t.arena <- arena

(* The [Differential.parallel] the next refresh scan should use; [None]
   when the configuration is the default — that keeps [domains = 1]
   (without an arena override) on the literal pre-existing code path. *)
let parallel_opt t =
  let arena = Option.value t.arena ~default:(t.domains > 1) in
  if t.domains <= 1 && not arena then None
  else Some { Differential.par_domains = t.domains; par_arena = arena }

let set_chunk_hook t f = t.on_chunk <- f

let register_base t table =
  let k = key (Base_table.name table) in
  if Hashtbl.mem t.bases k then raise (Duplicate_name (Base_table.name table));
  Hashtbl.replace t.bases k { base_table = table; capture = None }

let snapshots_on t base_name =
  Hashtbl.fold
    (fun _ s acc -> if key s.base_name = key base_name then s.snap_name :: acc else acc)
    t.snapshots []

let unregister_base t name =
  if not (Hashtbl.mem t.bases (key name)) then raise (Unknown_table name);
  (match snapshots_on t name with
  | [] -> ()
  | s :: _ -> raise (Bad_definition (Printf.sprintf "snapshot %s depends on table %s" s name)));
  Hashtbl.remove t.bases (key name)

let base_state t name =
  match Hashtbl.find_opt t.bases (key name) with
  | Some b -> b
  | None -> raise (Unknown_table name)

let base t name = (base_state t name).base_table

let base_names t = Hashtbl.fold (fun _ b acc -> Base_table.name b.base_table :: acc) t.bases []

let snapshot t name =
  match Hashtbl.find_opt t.snapshots (key name) with
  | Some s -> s
  | None -> raise (Unknown_snapshot name)

let snapshot_names t = Hashtbl.fold (fun _ s acc -> s.snap_name :: acc) t.snapshots []

let snapshot_table t name = (snapshot t name).table

(* --- Versioned reads ------------------------------------------------------ *)

let read_txn ?epoch t name = Snapshot_table.read_txn ?epoch (snapshot t name).table

let read_txn_exn ?epoch t name = Snapshot_table.read_txn_exn ?epoch (snapshot t name).table

let with_read_txn ?epoch t name f =
  match Snapshot_table.read_txn ?epoch (snapshot t name).table with
  | None -> None
  | Some txn ->
    Fun.protect ~finally:(fun () -> Snapshot_table.release_txn txn) (fun () -> Some (f txn))

let snapshot_versions t name = Snapshot_table.versions (snapshot t name).table

let snapshot_version_strategy t name = Snapshot_table.version_strategy (snapshot t name).table

let snapshot_base t name = (snapshot t name).base_name

let snapshot_method t name = (snapshot t name).spec

let snapshot_restrict t name = (snapshot t name).restrict_expr

let snapshot_link t name = (snapshot t name).link

let snapshot_request_link t name = (snapshot t name).request_link

let selectivity_estimate t name = (snapshot t name).selectivity

let change_log t name = Option.map fst (base_state t name).capture

let ensure_capture t base_name =
  let st = base_state t base_name in
  match st.capture with
  | Some (log, _) -> log
  | None ->
    let log = Change_log.create () in
    let sub =
      Base_table.subscribe st.base_table (fun c ->
          ignore (Change_log.append log c : Change_log.seq))
    in
    st.capture <- Some (log, sub);
    log

let drop_capture t base_name =
  let st = base_state t base_name in
  match st.capture with
  | None -> ()
  | Some (_, sub) ->
    Base_table.unsubscribe st.base_table sub;
    st.capture <- None

(* Observed distinct-update activity is approximated by the operation count
   since the snapshot's last refresh, capped at 1. *)
let observed_update_fraction base s =
  let n = Base_table.count base in
  if n = 0 then 0.0
  else
    Float.min 1.0
      (float_of_int (Base_table.mutations base - s.mutations_at_refresh) /. float_of_int n)

let estimate t name =
  let s = snapshot t name in
  let b = base t s.base_name in
  let n = Base_table.count b in
  let q = s.selectivity in
  let u = observed_update_fraction b s in
  let full = Model.full_messages ~n ~q in
  let diff = Model.differential_messages ~n ~q ~u () in
  (full, diff)

let estimate_refresh_messages t name =
  let full, diff = estimate t name in
  (`Full full, `Differential diff)

let with_table_lock t base mode f =
  let txn = Txn.begin_txn t.txns in
  match
    Txn.lock txn (Base_table.lock_resource base) mode;
    f ()
  with
  | v ->
    ignore (Txn.commit txn : int list);
    v
  | exception e ->
    (* A failed refresh attempt must not count as a committed transaction:
       abort releases the same locks but keeps the commit/abort accounting
       honest and runs any registered undo actions. *)
    if Txn.is_active txn then ignore (Txn.abort txn : int list);
    raise e

let blank_report s method_used =
  {
    snapshot = s.snap_name;
    method_used;
    new_snaptime = Clock.never;
    entries_scanned = 0;
    entries_skipped = 0;
    pages_decoded = 0;
    fixup_writes = 0;
    data_messages = 0;
    link_messages = 0;
    link_logical_messages = 0;
    link_bytes = 0;
    tail_suppressed = false;
    log_records_scanned = 0;
    attempts = 1;
    aborts = 0;
    escalated = false;
    backoff_us = 0.0;
    group_size = 1;
    chunks = 0;
    catchup_records = 0;
    max_lock_hold_us = 0.0;
  }

(* --- Chunked concurrent refresh ------------------------------------------ *)

exception Catchup_truncated
(* Internal: the WAL tail the catch-up phase needs was truncated while the
   chunked scan ran.  The attempt cannot be made consistent; the caller
   escalates to a monolithic full refresh, which needs no log. *)

type chunk_stats = {
  cs_chunks : int;
  cs_catchup : int;  (* net-changed addresses replayed, per subscriber *)
  cs_max_hold_us : float;  (* longest single lock-hold window *)
}

let no_chunk_stats = { cs_chunks = 0; cs_catchup = 0; cs_max_hold_us = 0.0 }

(* Entries-per-chunk is the user-facing knob; convert it to whole pages
   using the table's current average page fill. *)
let chunk_pages_for t b ~total =
  if total = 0 then 1
  else max 1 (t.chunk_entries / max 1 (Base_table.count b / max 1 total))

(* Walk pages [1..total] in chunks: each chunk's pages are locked in
   [page_mode] before the previous chunk's are released (lock coupling —
   no updater can slip between the cursor's footsteps), the previous
   chunk's hold time is observed, and the interleave hook runs so
   cooperative updaters can act on the released pages.  [scan ~last_page]
   advances the caller's cursor through the newly locked range.  The
   enclosing table intention lock stays held throughout. *)
let chunk_walk t txn b ~page_mode ~total ~observe_hold ~scan =
  let yield () = match t.on_chunk with Some f -> f () | None -> () in
  let per_chunk = chunk_pages_for t b ~total in
  let lock_pages lo hi =
    for p = lo to hi do
      Txn.lock txn (Base_table.page_lock_resource b p) page_mode
    done
  in
  let unlock_pages lo hi =
    for p = lo to hi do
      ignore (Txn.unlock txn (Base_table.page_lock_resource b p) : int list)
    done
  in
  let chunks = ref 0 in
  let prev = ref None in
  let next = ref 1 in
  while !next <= total do
    let lo = !next in
    let hi = min total (lo + per_chunk - 1) in
    let t0 = Trace.now_us () in
    lock_pages lo hi;
    (match !prev with
    | Some (plo, phi, pt0) ->
      unlock_pages plo phi;
      observe_hold pt0;
      yield ()
    | None -> ());
    Trace.with_span "refresh.chunk"
      ~attrs:
        [ ("table", Base_table.name b); ("pages", Printf.sprintf "%d-%d" lo hi) ]
      (fun () -> scan ~last_page:hi);
    incr chunks;
    prev := Some (lo, hi, t0);
    next := hi + 1
  done;
  (match !prev with
  | Some (plo, phi, pt0) ->
    unlock_pages plo phi;
    observe_hold pt0;
    yield ()
  | None -> ());
  !chunks

let wal_horizon t wal =
  match List.find_opt (fun (w, _) -> w == wal) t.wal_horizons with
  | Some (_, h) -> h
  | None ->
    let h = Horizon.create () in
    t.wal_horizons <- (wal, h) :: t.wal_horizons;
    h

(* Log-based cursor leases.  A snapshot refreshing from the WAL keeps a
   [Log_cursor] lease at its cursor so truncation can never strand it on
   the forced-full fallback; the lease tracks every cursor advance and is
   dropped when the snapshot leaves the log-based method (or the catalog). *)
let set_cursor_lsn s lsn =
  s.cursor_lsn <- lsn;
  Option.iter (fun l -> Lease.move_lsn l lsn) s.cursor_lease

let release_cursor_lease s =
  Option.iter Lease.release s.cursor_lease;
  s.cursor_lease <- None

let sync_cursor_lease t s =
  match (s.spec, Base_table.wal (base t s.base_name)) with
  | Log_based, Some wal -> (
    match s.cursor_lease with
    | Some l when Lease.live l -> Lease.move_lsn l s.cursor_lsn
    | _ ->
      s.cursor_lease <-
        Some
          (Horizon.acquire (wal_horizon t wal) ~kind:Lease.Log_cursor
             ~holder:("cursor:" ^ s.snap_name) ~lsn:s.cursor_lsn ()))
  | _ -> release_cursor_lease s

(* Committed net changes to [b] since the LSN captured at scan start.
   Skipped entirely (no log scan) when the per-table LSN map proves the
   table quiescent since the capture. *)
let catchup_net_changes b ~wal ~lsn0 =
  if Wal.oldest_retained wal > lsn0 then raise Catchup_truncated;
  let table = Base_table.name b in
  match Wal.last_lsn_for wal ~table with
  | Some l when l >= lsn0 ->
    Trace.with_span "refresh.catchup" ~attrs:[ ("table", table) ] (fun () ->
        fst (Recovery.net_changes wal ~table ~since:lsn0))
  | _ -> []

(* Replay one subscriber's view of the net changes as Upsert/Remove
   overlay messages.  WAL records carry stored (annotated) tuples, so the
   user part is extracted before the snapshot's restriction/projection
   apply.  Exactly one message per net-changed address: an address whose
   final version fails the restriction gets a Remove (idempotent if the
   snapshot never held it). *)
let catchup_messages nets ~restrict ~project ~xmit =
  List.iter
    (fun (addr, net) ->
      match net.Recovery.after with
      | Some stored ->
        let user = Annotations.user_part stored in
        if restrict user then xmit (Refresh_msg.Upsert { addr; values = project user })
        else xmit (Refresh_msg.Remove { addr })
      | None -> xmit (Refresh_msg.Remove { addr }))
    nets

(* Chunked differential refresh of [subs] over [b]: table intention lock,
   lock-coupled page chunks driving the resumable scan cursor, then one
   short table-S catch-up replaying the WAL tail before the Snaptime
   markers.  Eager mode reads under IS + page S; deferred mode fix-up
   writes need IX + page X.  The catch-up upgrade IS+S = S (or IX+S = SIX)
   still excludes updaters for its short window, which is what makes the
   committed stream transaction-consistent as of catch-up time. *)
let run_chunked_differential t b subs =
  let wal =
    match Base_table.wal b with
    | Some w -> w
    | None -> invalid_arg "chunked refresh requires a WAL on the base table"
  in
  let deferred = Base_table.mode b = Base_table.Deferred in
  let txn = Txn.begin_txn t.txns in
  let pin = ref None in
  match
    Txn.lock txn (Base_table.lock_resource b) (if deferred then Lock.IX else Lock.IS);
    let lsn0 = Wal.end_lsn wal in
    pin :=
      Some
        (Horizon.acquire (wal_horizon t wal) ~kind:Lease.Scan
           ~holder:("scan:" ^ Base_table.name b) ~lsn:lsn0 ());
    let cursor = Differential.start ?parallel:(parallel_opt t) ~base:b subs in
    let max_hold = ref 0.0 in
    let observe_hold t0 =
      let d = Trace.now_us () -. t0 in
      if d > !max_hold then max_hold := d;
      Metrics.observe h_lock_hold d
    in
    let chunks =
      chunk_walk t txn b
        ~page_mode:(if deferred then Lock.X else Lock.S)
        ~total:(Differential.pages cursor) ~observe_hold
        ~scan:(fun ~last_page -> Differential.scan_to cursor ~last_page)
    in
    let t0 = Trace.now_us () in
    Txn.lock txn (Base_table.lock_resource b) Lock.S;
    let nets = catchup_net_changes b ~wal ~lsn0 in
    Differential.emit_tails cursor;
    Array.iter
      (fun sub ->
        catchup_messages nets ~restrict:sub.Differential.sub_restrict
          ~project:sub.Differential.sub_project ~xmit:sub.Differential.sub_xmit)
      subs;
    let g = Differential.finish cursor in
    observe_hold t0;
    let stats =
      { cs_chunks = chunks; cs_catchup = List.length nets; cs_max_hold_us = !max_hold }
    in
    Metrics.observe h_chunks (float_of_int stats.cs_chunks);
    Metrics.observe h_catchup_records (float_of_int stats.cs_catchup);
    (g, stats)
  with
  | v ->
    Option.iter Lease.release !pin;
    ignore (Txn.commit txn : int list);
    v
  | exception e ->
    Option.iter Lease.release !pin;
    if Txn.is_active txn then ignore (Txn.abort txn : int list);
    raise e

(* Chunked full refresh: same protocol with a read-only page scan (always
   IS + page S — full refresh never writes annotations here; the priming
   fix-up case stays monolithic).  The stream is Clear, chunked Upserts,
   catch-up overlay, Snaptime. *)
let run_chunked_full t b ~restrict ~project ~xmit =
  let wal =
    match Base_table.wal b with
    | Some w -> w
    | None -> invalid_arg "chunked refresh requires a WAL on the base table"
  in
  let txn = Txn.begin_txn t.txns in
  let pin = ref None in
  match
    Txn.lock txn (Base_table.lock_resource b) Lock.IS;
    let lsn0 = Wal.end_lsn wal in
    pin :=
      Some
        (Horizon.acquire (wal_horizon t wal) ~kind:Lease.Scan
           ~holder:("scan:" ^ Base_table.name b) ~lsn:lsn0 ());
    let now = Clock.tick (Base_table.clock b) in
    xmit Refresh_msg.Clear;
    let scanned = ref 0 in
    let sent = ref 0 in
    let last_scanned = ref 0 in
    let max_hold = ref 0.0 in
    let observe_hold t0 =
      let d = Trace.now_us () -. t0 in
      if d > !max_hold then max_hold := d;
      Metrics.observe h_lock_hold d
    in
    let chunks =
      chunk_walk t txn b ~page_mode:Lock.S ~total:(Base_table.data_pages b)
        ~observe_hold
        ~scan:(fun ~last_page ->
          for page = !last_scanned + 1 to last_page do
            Base_table.iter_page_stored b ~page (fun addr stored ->
                incr scanned;
                let user = Annotations.user_part stored in
                if restrict user then begin
                  incr sent;
                  xmit (Refresh_msg.Upsert { addr; values = project user })
                end)
          done;
          last_scanned := last_page)
    in
    let t0 = Trace.now_us () in
    Txn.lock txn (Base_table.lock_resource b) Lock.S;
    let nets = catchup_net_changes b ~wal ~lsn0 in
    catchup_messages nets ~restrict ~project ~xmit;
    xmit (Refresh_msg.Snaptime now);
    observe_hold t0;
    let stats =
      { cs_chunks = chunks; cs_catchup = List.length nets; cs_max_hold_us = !max_hold }
    in
    Metrics.observe h_chunks (float_of_int stats.cs_chunks);
    Metrics.observe h_catchup_records (float_of_int stats.cs_catchup);
    ( { Full_refresh.new_snaptime = now; entries_scanned = !scanned; data_messages = !sent },
      stats )
  with
  | v ->
    Option.iter Lease.release !pin;
    ignore (Txn.commit txn : int list);
    v
  | exception e ->
    Option.iter Lease.release !pin;
    if Txn.is_active txn then ignore (Txn.abort txn : int list);
    raise e

type checkpoint_report = {
  cp_base : string;
  cp_begin_lsn : Wal.lsn;
  cp_end_lsn : Wal.lsn;
  cp_pages_snapshotted : int;
  cp_pages_flushed : int;
  cp_bytes_written : int;
  cp_truncated_to : Wal.lsn;
  cp_log_bytes_reclaimed : int;
  cp_gated : Lease.gating list;  (* leases that lowered the truncation floor *)
}

(* The highest LSN the log may be truncated to, given a checkpoint at
   [ceiling]: the WAL's retention horizon lowers it to the oldest LSN any
   live lease still needs — a chunked scan's catch-up start, a log-based
   snapshot's cursor, a checkpoint in flight.  This is what keeps
   [Catchup_truncated] (and the log-based method's forced-full fallback)
   a managed contract — truncation through this gate can never strand a
   live reader. *)
let truncation_floor t wal ~ceiling =
  let floor, gating = Horizon.lsn_floor (wal_horizon t wal) ~ceiling in
  (max (Wal.oldest_retained wal) floor, gating)

let checkpoint t base_name =
  let b = base t base_name in
  let wal =
    match Base_table.wal b with
    | Some w -> w
    | None ->
      raise
        (Bad_definition (Printf.sprintf "table %s has no WAL to checkpoint" base_name))
  in
  (* The Begin_checkpoint record carries the transactions genuinely in
     flight at this instant.  WAL-level autocommit (Base_table.log_op)
     appends Begin/op/Commit atomically, so these are the manager's
     lock-level transactions — refresh scans and writers mid-flight.
     The checkpoint itself runs under a lease at the current end: a
     vacuum fired from the yield hook can then never truncate records
     the fuzzy pass has yet to fence.  Released before the floor below
     is computed, so a checkpoint never gates itself. *)
  let stats =
    Horizon.with_lease (wal_horizon t wal) ~kind:Lease.Checkpoint
      ~holder:("checkpoint:" ^ Base_table.name b) ~lsn:(Wal.oldest_retained wal)
      (fun _ ->
        Wal_checkpoint.run ~wal ~pool:(Base_table.pool b)
          ~active:(Txn.active_ids t.txns) ?yield:t.on_chunk ())
  in
  let bytes_before = Wal.byte_size wal in
  let floor, gated = truncation_floor t wal ~ceiling:stats.Wal_checkpoint.begin_lsn in
  if floor > Wal.oldest_retained wal then Wal.truncate_before wal floor;
  {
    cp_base = Base_table.name b;
    cp_begin_lsn = stats.Wal_checkpoint.begin_lsn;
    cp_end_lsn = stats.Wal_checkpoint.end_lsn;
    cp_pages_snapshotted = stats.Wal_checkpoint.pages_snapshotted;
    cp_pages_flushed = stats.Wal_checkpoint.pages_flushed;
    cp_bytes_written = stats.Wal_checkpoint.bytes_written;
    cp_truncated_to = Wal.oldest_retained wal;
    cp_log_bytes_reclaimed = bytes_before - Wal.byte_size wal;
    cp_gated = gated;
  }

(* --- Vacuum --------------------------------------------------------------- *)

type snapshot_vacuum = {
  sv_snapshot : string;
  sv_examined : int;
  sv_reclaimed : int;
  sv_zombied : int;
  sv_kept : int;
  sv_bytes : int;
}

type wal_vacuum = {
  wv_bases : string list;  (* bases sharing this physical log, sorted *)
  wv_truncated_to : Wal.lsn;
  wv_log_bytes_reclaimed : int;
  wv_gated : Lease.gating list;
}

type vacuum_report = {
  vac_dry_run : bool;
  vac_snapshots : snapshot_vacuum list;
  vac_wals : wal_vacuum list;
}

(* Reclaim everything the retention horizon no longer needs, in one pass:
   expired snapshot versions first, then the WAL.  Bases sharing one
   physical log are checkpointed as a group — the log is truncated once,
   to the minimum checkpoint begin LSN over the group (each base's redo
   start), lowered by whatever leases are live.  Both halves consult the
   same horizon, so a pinned read, live scan or log cursor holds back the
   vacuum exactly as it holds back a checkpoint. *)
let vacuum ?older_than ?(dry_run = false) t =
  let snaps =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.snapshots []
    |> List.sort (fun a b -> compare a.snap_name b.snap_name)
  in
  let vac_snapshots =
    List.map
      (fun s ->
        let st = Snapshot_table.vacuum ?older_than ~dry_run s.table in
        {
          sv_snapshot = s.snap_name;
          sv_examined = st.Version_store.vac_examined;
          sv_reclaimed = st.Version_store.vac_reclaimed;
          sv_zombied = st.Version_store.vac_zombied;
          sv_kept = st.Version_store.vac_kept;
          sv_bytes = st.Version_store.vac_bytes;
        })
      snaps
  in
  let groups = ref [] in
  Hashtbl.iter
    (fun _ bst ->
      match Base_table.wal bst.base_table with
      | None -> ()
      | Some wal -> (
        match List.find_opt (fun (w, _) -> w == wal) !groups with
        | Some (_, bases) -> bases := bst.base_table :: !bases
        | None -> groups := (wal, ref [ bst.base_table ]) :: !groups))
    t.bases;
  let vac_wals =
    List.map
      (fun (wal, bases) ->
        let bases =
          List.sort
            (fun a b -> compare (Base_table.name a) (Base_table.name b))
            !bases
        in
        let names = List.map Base_table.name bases in
        if dry_run then begin
          (* What a vacuum now could reclaim at best: a checkpoint's begin
             LSN can reach at most the log's current end. *)
          let floor, gating = truncation_floor t wal ~ceiling:(Wal.end_lsn wal) in
          {
            wv_bases = names;
            wv_truncated_to = floor;
            (* LSNs are byte offsets, so the reclaimable span is a byte count. *)
            wv_log_bytes_reclaimed = floor - Wal.oldest_retained wal;
            wv_gated = gating;
          }
        end
        else begin
          let bytes_before = Wal.byte_size wal in
          let h = wal_horizon t wal in
          let begin_lsns =
            List.map
              (fun b ->
                Horizon.with_lease h ~kind:Lease.Checkpoint
                  ~holder:("checkpoint:" ^ Base_table.name b)
                  ~lsn:(Wal.oldest_retained wal)
                  (fun _ ->
                    let stats =
                      Wal_checkpoint.run ~wal ~pool:(Base_table.pool b)
                        ~active:(Txn.active_ids t.txns) ?yield:t.on_chunk ()
                    in
                    stats.Wal_checkpoint.begin_lsn))
              bases
          in
          let ceiling = List.fold_left min (Wal.end_lsn wal) begin_lsns in
          let floor, gating = truncation_floor t wal ~ceiling in
          if floor > Wal.oldest_retained wal then Wal.truncate_before wal floor;
          {
            wv_bases = names;
            wv_truncated_to = Wal.oldest_retained wal;
            wv_log_bytes_reclaimed = bytes_before - Wal.byte_size wal;
            wv_gated = gating;
          }
        end)
      !groups
  in
  let vac_wals =
    List.sort (fun a b -> compare a.wv_bases b.wv_bases) vac_wals
  in
  { vac_dry_run = dry_run; vac_snapshots; vac_wals }

(* Batched transport: buffer batchable (data) messages and frame up to
   [t.batch] of them as one Batch under a single header, sequence number
   and checksum.  Control messages flush the buffer first and travel
   alone — Snaptime is among them, so the stream's trailing batch is
   always on the wire before the commit marker.  One such closure per
   stream: it owns the epoch's sequence-number counter. *)
let make_stream_xmit t ~epoch ~link =
  let seq = ref 0 in
  let buffered = ref [] in  (* newest first *)
  let buffered_n = ref 0 in
  let send_framed msg =
    let logical = Refresh_msg.logical_count msg in
    let framed = Refresh_msg.encode_framed ~epoch ~seq:!seq msg in
    incr seq;
    Link.send link ~logical framed
  in
  let flush () =
    match !buffered with
    | [] -> ()
    | [ m ] ->
      buffered := [];
      buffered_n := 0;
      send_framed m
    | ms ->
      buffered := [];
      buffered_n := 0;
      send_framed (Refresh_msg.Batch (List.rev ms))
  in
  fun msg ->
    if t.batch > 1 && Refresh_msg.batchable msg then begin
      buffered := msg :: !buffered;
      incr buffered_n;
      if !buffered_n >= t.batch then flush ()
    end
    else begin
      flush ();
      send_framed msg
    end

(* Run one refresh stream for [s] under [epoch].  Every message is framed
   with the epoch and a sequence number so the receiver can detect gaps,
   truncation, and corruption, and apply the stream atomically at its
   Snaptime commit marker.  Returns the report plus an [on_commit] hook
   that advances the snapshot's change cursors — which must only happen
   once the receiver has actually committed the epoch, or an aborted
   stream would silently lose the changes between the old and new cursor
   on retry. *)
let rec run_method t s ~epoch method_used =
  let b = base t s.base_name in
  let xmit = make_stream_xmit t ~epoch ~link:s.link in
  let nop_commit () = () in
  match method_used with
  | Used_full ->
    let r = Full_refresh.refresh ~base:b ~restrict:s.restrict ~project:s.project ~xmit () in
    ( {
        (blank_report s method_used) with
        new_snaptime = r.Full_refresh.new_snaptime;
        entries_scanned = r.Full_refresh.entries_scanned;
        data_messages = r.Full_refresh.data_messages;
      },
      nop_commit )
  | Used_differential ->
    let tail_suppression =
      if s.tail_suppression then Some (Snapshot_table.high_water s.table) else None
    in
    let r =
      Differential.refresh ~tail_suppression ?prune:s.prune
        ?parallel:(parallel_opt t) ~base:b
        ~snaptime:(Snapshot_table.snaptime s.table) ~restrict:s.restrict ~project:s.project
        ~xmit ()
    in
    ( {
        (blank_report s method_used) with
        new_snaptime = r.Differential.new_snaptime;
        entries_scanned = r.Differential.entries_scanned;
        entries_skipped = r.Differential.entries_skipped;
        pages_decoded = r.Differential.pages_decoded;
        fixup_writes = r.Differential.fixup_writes;
        data_messages = r.Differential.data_messages;
        tail_suppressed = r.Differential.tail_suppressed;
      },
      nop_commit )
  | Used_ideal ->
    let log = ensure_capture t s.base_name in
    let r =
      Ideal.refresh ~base:b ~log ~cursor:s.cursor_seq ~restrict:s.restrict ~project:s.project
        ~xmit ()
    in
    let on_commit () =
      s.cursor_seq <- r.Ideal.new_cursor;
      (* Reclaim change-log space below the slowest ideal cursor on this
         base — the buffer-management obligation the paper charges change
         buffering with.  Strictly after commit: truncating below the new
         cursor while the stream could still abort is permanent loss. *)
      let min_cursor =
        Hashtbl.fold
          (fun _ other acc ->
            if key other.base_name = key s.base_name && other.spec = Ideal then
              min acc other.cursor_seq
            else acc)
          t.snapshots max_int
      in
      let min_cursor = min min_cursor r.Ideal.new_cursor in
      if min_cursor < max_int then Change_log.truncate_below log min_cursor
    in
    ( {
        (blank_report s method_used) with
        new_snaptime = r.Ideal.new_snaptime;
        entries_scanned = r.Ideal.net_changes;
        data_messages = r.Ideal.data_messages;
      },
      on_commit )
  | Used_log_based ->
    let wal =
      match Base_table.wal b with
      | Some w -> w
      | None -> raise (Bad_definition "log-based refresh requires a WAL on the base table")
    in
    if s.cursor_lsn < Wal.oldest_retained wal then begin
      (* "One could bound the buffering required and transmit the entire
         (restricted) base table if the last refresh of the snapshot
         precedes the earliest retained changes." *)
      Log.info (fun m ->
          m "snapshot %s: log truncated past its cursor; falling back to full refresh"
            s.snap_name);
      let r, commit_full = run_method t s ~epoch Used_full in
      (r, fun () -> commit_full (); set_cursor_lsn s (Wal.end_lsn wal))
    end
    else begin
      let r =
        Log_based.refresh ~base:b ~wal ~cursor:s.cursor_lsn ~restrict:s.restrict
          ~project:s.project ~xmit ()
      in
      ( {
          (blank_report s method_used) with
          new_snaptime = r.Log_based.new_snaptime;
          entries_scanned = r.Log_based.data_messages;
          data_messages = r.Log_based.data_messages;
          log_records_scanned = r.Log_based.log_records_scanned;
        },
        fun () -> set_cursor_lsn s r.Log_based.new_cursor )
    end

let choose_method t s =
  match s.spec with
  | Full -> Used_full
  | Differential -> Used_differential
  | Ideal -> Used_ideal
  | Log_based -> Used_log_based
  | Auto ->
    let full, diff = estimate t s.snap_name in
    if diff <= full then Used_differential else Used_full

(* Any snapshot may alternate between a differential and a
   non-differential refresh: an Auto snapshot by its cost model,
   any other by [set_method] (which Fleet dispatch uses) or by escalation
   to full after repeated failures.  A non-differential refresh
   synchronizes the snapshot's contents as of its new SnapTime but does
   not touch annotations — so an entry inserted before it (still carrying
   NULL PrevAddr, hence absent from the chain) could be deleted afterwards
   without leaving any anomaly, and a later differential refresh would
   miss the deletion.  Running the fix-up pass alongside every
   non-differential refresh of a deferred base restores the invariant the
   differential scan depends on: "the annotation state is current as of
   SnapTime".  Eager bases keep annotations current on every write. *)
let needs_priming_fixup b method_used =
  method_used <> Used_differential && Base_table.mode b = Base_table.Deferred

(* On a deferred base every refresh rewrites annotation fields — the
   differential scan's own fix-up or the priming fix-up beside any other
   method — so it needs an exclusive table lock; on an eager base every
   method only reads. *)
let lock_mode_for b =
  if Base_table.mode b = Base_table.Deferred then Lock.X else Lock.S

(* The chunked protocol applies when a chunk size is configured and the
   method is a scan over a WAL-backed table; priming passes (which rewrite
   annotations wholesale) and the log/change-log methods (no table scan to
   chunk) stay monolithic.  [chunk_entries = max_int] — the default —
   takes the monolithic path unconditionally, byte-identical to the
   pre-chunking code. *)
let chunked_eligible t b method_used =
  t.chunk_entries < max_int
  && Base_table.wal b <> None
  && (not (needs_priming_fixup b method_used))
  && (method_used = Used_differential || method_used = Used_full)

(* One chunked solo stream attempt (a group of one for differential). *)
let attempt_chunked t s ~epoch method_used =
  let b = base t s.base_name in
  let before = Link.stats s.link in
  let xmit = make_stream_xmit t ~epoch ~link:s.link in
  let report =
    Trace.with_span "refresh.scan"
      ~attrs:[ ("snapshot", s.snap_name); ("method", method_name method_used) ]
      (fun () ->
        match method_used with
        | Used_differential ->
          let sub =
            {
              Differential.sub_snaptime = Snapshot_table.snaptime s.table;
              sub_restrict = s.restrict;
              sub_project = s.project;
              sub_tail_suppression =
                (if s.tail_suppression then Some (Snapshot_table.high_water s.table)
                 else None);
              sub_prune = s.prune;
              sub_xmit = xmit;
            }
          in
          let g, cs = run_chunked_differential t b [| sub |] in
          let r = g.Differential.sub_reports.(0) in
          {
            (blank_report s method_used) with
            new_snaptime = r.Differential.new_snaptime;
            entries_scanned = r.Differential.entries_scanned;
            entries_skipped = r.Differential.entries_skipped;
            pages_decoded = r.Differential.pages_decoded;
            fixup_writes = r.Differential.fixup_writes;
            data_messages = r.Differential.data_messages + cs.cs_catchup;
            tail_suppressed = r.Differential.tail_suppressed;
            chunks = cs.cs_chunks;
            catchup_records = cs.cs_catchup;
            max_lock_hold_us = cs.cs_max_hold_us;
          }
        | _ ->
          let r, cs = run_chunked_full t b ~restrict:s.restrict ~project:s.project ~xmit in
          {
            (blank_report s Used_full) with
            new_snaptime = r.Full_refresh.new_snaptime;
            entries_scanned = r.Full_refresh.entries_scanned;
            data_messages = r.Full_refresh.data_messages + cs.cs_catchup;
            chunks = cs.cs_chunks;
            catchup_records = cs.cs_catchup;
            max_lock_hold_us = cs.cs_max_hold_us;
          })
  in
  let after = Link.stats s.link in
  ( {
      report with
      link_messages = after.Link.messages - before.Link.messages;
      link_logical_messages = after.Link.logical_messages - before.Link.logical_messages;
      link_bytes = after.Link.bytes - before.Link.bytes;
    },
    fun () -> () )

(* One complete stream attempt: initiate, lock, optionally prime
   annotations, stream the epoch.  Raises Link.Link_down on an outage.
   [populating] marks the snapshot's initial transfer. *)
let attempt_refresh t s ~epoch ~populating ~send_request ~allow_chunked method_used =
  let b = base t s.base_name in
  (* "The refresh algorithm is initiated by sending the last snapshot
     refresh time (SnapTime) ... to the base table." *)
  if send_request then
    Trace.with_span "refresh.request" ~attrs:[ ("snapshot", s.snap_name) ] (fun () ->
        Link.send s.request_link
          (Refresh_msg.encode
             (Refresh_msg.Request { snaptime = Snapshot_table.snaptime s.table })));
  if allow_chunked && chunked_eligible t b method_used then
    attempt_chunked t s ~epoch method_used
  else
  with_table_lock t b (lock_mode_for b) (fun () ->
      let before = Link.stats s.link in
      let fixups =
        if needs_priming_fixup b method_used then
          Trace.with_span "refresh.fixup" ~attrs:[ ("snapshot", s.snap_name) ] (fun () ->
              let writes =
                (Fixup.run b ~fixup_time:(Clock.tick (Base_table.clock b))).Fixup.writes
              in
              (* A priming fix-up is idempotent (safe to re-run on a retried
                 attempt).  Beside the populating transfer it annotates the
                 whole table, like R* adding the funny fields at CREATE
                 SNAPSHOT time, and its writes are not charged to the
                 report. *)
              if populating then 0 else writes)
        else 0
      in
      let report, on_commit =
        Trace.with_span "refresh.scan"
          ~attrs:[ ("snapshot", s.snap_name); ("method", method_name method_used) ]
          (fun () -> run_method t s ~epoch method_used)
      in
      let after = Link.stats s.link in
      ( {
          report with
          fixup_writes = report.fixup_writes + fixups;
          link_messages = after.Link.messages - before.Link.messages;
          link_logical_messages =
            after.Link.logical_messages - before.Link.logical_messages;
          link_bytes = after.Link.bytes - before.Link.bytes;
        },
        on_commit ))

let backoff_delay t ~failures =
  let p = t.retry in
  let raw = p.backoff_us *. Float.pow p.backoff_multiplier (float_of_int (failures - 1)) in
  let capped = Float.min p.max_backoff_us raw in
  if p.jitter <= 0.0 then capped
  else capped *. (1.0 -. (p.jitter /. 2.0) +. Snapdiff_util.Rng.float t.rng p.jitter)

(* Refresh [s] with retry: each attempt streams a fresh epoch; a failed
   attempt (link outage mid-stream, or a stream the receiver refused to
   commit because of loss/corruption/truncation) is discarded wholesale
   on the snapshot side and retried after exponential backoff with
   jitter.  After [escalate_after] consecutive failures the method
   degrades to a full refresh — the stream that needs the least shared
   state to converge.  [choose] picks the method for each attempt.

   [prior_failures]/[prior_backoff] account for attempts made elsewhere —
   a member of a group scan whose arm failed retries solo here with the
   group attempt counted as attempt 1, so escalation and the attempt cap
   see one consecutive-failure history, not two. *)
let refresh_with_retries t s ~choose ?(populating = false) ?(send_request = true)
    ?(prior_failures = 0) ?(prior_backoff = 0.0) () =
  let p = t.retry in
  let backoff_total = ref prior_backoff in
  let t_start = Trace.now_us () in
  (* Set when a chunked attempt found the WAL truncated past its catch-up
     LSN: every subsequent attempt of this refresh runs as a monolithic
     full refresh, the one stream guaranteed consistent without a log. *)
  let force_monolithic_full = ref false in
  let rec go attempt =
    Metrics.incr m_attempts;
    let failures = attempt - 1 in
    let escalated =
      !force_monolithic_full || (p.escalate_after > 0 && failures >= p.escalate_after)
    in
    if escalated && failures = p.escalate_after then Metrics.incr m_escalations;
    let method_used = if escalated then Used_full else choose t s in
    let epoch = s.next_epoch in
    s.next_epoch <- epoch + 1;
    let outcome =
      match
        attempt_refresh t s ~epoch ~populating ~send_request
          ~allow_chunked:(not !force_monolithic_full) method_used
      with
      | report, on_commit ->
        if Snapshot_table.last_committed_epoch s.table = epoch then Ok (report, on_commit)
        else
          Error
            (Option.value (Snapshot_table.last_abort s.table)
               ~default:"stream not committed by receiver")
      | exception Catchup_truncated ->
        force_monolithic_full := true;
        Metrics.incr m_escalations;
        Error "WAL truncated past the chunked scan's catch-up LSN"
      | exception Link.Link_down l -> Error (Printf.sprintf "link %s down mid-stream" l)
      | exception Link.No_receiver l ->
        (* A wiring error, not a transient fault: no receiver will appear
           by retrying, so fail the refresh immediately. *)
        let reason = Printf.sprintf "link %s: no receiver attached" l in
        Snapshot_table.discard_stage s.table ~reason;
        Metrics.incr m_aborted_streams;
        Metrics.incr m_failures;
        Metrics.observe h_duration (Trace.now_us () -. t_start);
        raise (Refresh_failed { snapshot = s.snap_name; attempts = attempt; reason })
    in
    match outcome with
    | Ok (report, on_commit) ->
      on_commit ();
      s.mutations_at_refresh <- Base_table.mutations (base t s.base_name);
      (* A committed refresh of any method leaves the snapshot consistent
         as of the WAL's current end, so the log cursor may advance too —
         this is what makes a later scheduler-driven switch to the
         log-based method replay only the genuine tail.  (The log-based
         method's own on_commit has already set its exact new cursor.) *)
      (match Base_table.wal (base t s.base_name) with
      | Some wal when s.spec <> Log_based -> set_cursor_lsn s (Wal.end_lsn wal)
      | _ -> ());
      let report =
        { report with attempts = attempt; aborts = failures; escalated;
          backoff_us = !backoff_total }
      in
      note_report s report;
      Metrics.incr m_refreshes;
      Metrics.add m_data_messages report.data_messages;
      Metrics.add m_entries_scanned report.entries_scanned;
      Metrics.observe h_duration (Trace.now_us () -. t_start);
      Log.info (fun m ->
          m "refresh %s via %s: %d data msgs, %d bytes, %d fixups, snaptime %d%s"
            report.snapshot (method_name report.method_used) report.data_messages
            report.link_bytes report.fixup_writes report.new_snaptime
            (if report.attempts > 1 then
               Printf.sprintf " (%d attempts%s)" report.attempts
                 (if report.escalated then ", escalated to full" else "")
             else ""));
      report
    | Error reason ->
      Snapshot_table.discard_stage s.table ~reason;
      Metrics.incr m_aborted_streams;
      Log.info (fun m ->
          m "refresh %s attempt %d/%d failed: %s" s.snap_name attempt p.max_attempts reason);
      if attempt >= p.max_attempts then begin
        Metrics.incr m_failures;
        Metrics.observe h_duration (Trace.now_us () -. t_start);
        raise (Refresh_failed { snapshot = s.snap_name; attempts = attempt; reason })
      end
      else begin
        let d = backoff_delay t ~failures:(failures + 1) in
        backoff_total := !backoff_total +. d;
        Metrics.observe h_backoff d;
        Trace.event "refresh.retry"
          ~attrs:
            [ ("snapshot", s.snap_name);
              ("attempt", string_of_int attempt);
              ("reason", reason);
              ("backoff_us", Printf.sprintf "%.0f" d) ];
        Link.advance_time s.link d;
        (* The transport layer re-establishes a dead link after backoff;
           an armed fault plan stays armed and may kill it again. *)
        if not (Link.is_up s.link) then Link.set_up s.link true;
        go (attempt + 1)
      end
  in
  Trace.with_span "refresh" ~attrs:[ ("snapshot", s.snap_name) ]
    (fun () -> go (prior_failures + 1))

let refresh_snapshot t s =
  refresh_with_retries t s
    ~choose:(fun t s -> choose_method t s)
    ()

(* --- Group refresh ------------------------------------------------------- *)

(* One multiplexed group attempt over [b]: every member gets its own epoch,
   Request control message, framed/batched stream on its own link, and
   commit check — but the base table is scanned once.  A member whose link
   fails mid-stream is muted (its sends become no-ops) rather than allowed
   to abort the scan: the other subscribers' streams must not notice, and
   the scan's shared page-decode/fix-up state must stay deterministic.
   Returns everything the caller needs to settle each arm. *)
let group_attempt t b members =
  let n = Array.length members in
  let epochs =
    Array.map
      (fun s ->
        let e = s.next_epoch in
        s.next_epoch <- e + 1;
        e)
      members
  in
  let failed = Array.make n None in
  let fatal = Array.make n false in
  let mark i = function
    | Link.Link_down l ->
      if failed.(i) = None then
        failed.(i) <- Some (Printf.sprintf "link %s down mid-stream" l)
    | Link.No_receiver l ->
      if failed.(i) = None then
        failed.(i) <- Some (Printf.sprintf "link %s: no receiver attached" l);
      fatal.(i) <- true
    | e -> raise e
  in
  Array.iteri
    (fun i s ->
      Metrics.incr m_attempts;
      try
        Trace.with_span "refresh.request" ~attrs:[ ("snapshot", s.snap_name) ] (fun () ->
            Link.send s.request_link
              (Refresh_msg.encode
                 (Refresh_msg.Request { snaptime = Snapshot_table.snaptime s.table })))
      with e -> mark i e)
    members;
  let make_subs () =
    Array.mapi
      (fun i s ->
        let raw = make_stream_xmit t ~epoch:epochs.(i) ~link:s.link in
        {
          Differential.sub_snaptime = Snapshot_table.snaptime s.table;
          sub_restrict = s.restrict;
          sub_project = s.project;
          sub_tail_suppression =
            (if s.tail_suppression then Some (Snapshot_table.high_water s.table)
             else None);
          sub_prune = s.prune;
          sub_xmit = (fun msg -> if failed.(i) = None then try raw msg with e -> mark i e);
        })
      members
  in
  if t.chunk_entries < max_int && Base_table.wal b <> None then begin
    (* Chunked group scan: run_chunked_differential owns the transaction
       and the intention-lock/page-lock protocol.  A truncated catch-up
       fails every arm of this attempt; the arms then degrade solo, where
       the retry loop escalates them to monolithic full refreshes. *)
    let before = Array.map (fun s -> Link.stats s.link) members in
    let subs = make_subs () in
    let result =
      match
        Trace.with_span "refresh.group"
          ~attrs:[ ("base", Base_table.name b); ("subscribers", string_of_int n) ]
          (fun () -> run_chunked_differential t b subs)
      with
      | g, cs -> Some (g, cs)
      | exception Catchup_truncated ->
        Metrics.incr m_escalations;
        Array.iteri
          (fun i _ ->
            if failed.(i) = None then
              failed.(i) <- Some "WAL truncated past the chunked scan's catch-up LSN")
          members;
        None
    in
    Metrics.observe h_group_size (float_of_int n);
    let after = Array.map (fun s -> Link.stats s.link) members in
    (epochs, failed, fatal, result, before, after)
  end
  else
    (* Deferred-mode fix-up rewrites annotations: exclusive, like the solo
       path.  The group never includes a priming fix-up — only snapshots
       already routed to the differential method join a group. *)
    with_table_lock t b (lock_mode_for b) (fun () ->
        let before = Array.map (fun s -> Link.stats s.link) members in
        let subs = make_subs () in
        let g =
          Trace.with_span "refresh.group"
            ~attrs:
              [ ("base", Base_table.name b); ("subscribers", string_of_int n) ]
            (fun () ->
              Differential.refresh_group ?parallel:(parallel_opt t) ~base:b subs)
        in
        Metrics.observe h_group_size (float_of_int n);
        let after = Array.map (fun s -> Link.stats s.link) members in
        (epochs, failed, fatal, Some (g, no_chunk_stats), before, after))

(* Group-refresh [members] (all routed to the differential method) of base
   [b] under one shared scan, then settle each arm: a committed stream
   advances that snapshot's cursors exactly as a solo refresh would; a
   failed arm discards its staged stream and degrades to a solo refresh
   with retries, the group attempt counting as attempt 1 — unless the
   failure was a wiring error, which fails immediately. *)
let group_refresh_base t b members =
  let n = Array.length members in
  let t_start = Trace.now_us () in
  let epochs, failed, fatal, result, before, after = group_attempt t b members in
  Array.mapi
    (fun i s ->
      let committed =
        result <> None && failed.(i) = None
        && Snapshot_table.last_committed_epoch s.table = epochs.(i)
      in
      if committed then begin
        let g, cs =
          match result with Some gc -> gc | None -> assert false
        in
        s.mutations_at_refresh <- Base_table.mutations b;
        (match Base_table.wal b with
        | Some wal when s.spec <> Log_based -> set_cursor_lsn s (Wal.end_lsn wal)
        | _ -> ());
        let sr = g.Differential.sub_reports.(i) in
        let report =
          {
            (blank_report s Used_differential) with
            new_snaptime = sr.Differential.new_snaptime;
            entries_scanned = sr.Differential.entries_scanned;
            entries_skipped = sr.Differential.entries_skipped;
            pages_decoded = sr.Differential.pages_decoded;
            fixup_writes = sr.Differential.fixup_writes;
            data_messages = sr.Differential.data_messages + cs.cs_catchup;
            tail_suppressed = sr.Differential.tail_suppressed;
            link_messages = after.(i).Link.messages - before.(i).Link.messages;
            link_logical_messages =
              after.(i).Link.logical_messages - before.(i).Link.logical_messages;
            link_bytes = after.(i).Link.bytes - before.(i).Link.bytes;
            group_size = n;
            chunks = cs.cs_chunks;
            catchup_records = cs.cs_catchup;
            max_lock_hold_us = cs.cs_max_hold_us;
          }
        in
        note_report s report;
        Metrics.incr m_refreshes;
        Metrics.add m_data_messages report.data_messages;
        Metrics.add m_entries_scanned report.entries_scanned;
        Metrics.observe h_duration (Trace.now_us () -. t_start);
        Log.info (fun m ->
            m "refresh %s via group scan (%d subscribers): %d data msgs, %d bytes, snaptime %d"
              s.snap_name n report.data_messages report.link_bytes report.new_snaptime);
        (s.snap_name, Ok report)
      end
      else begin
        let reason =
          match failed.(i) with
          | Some r -> r
          | None ->
            Option.value (Snapshot_table.last_abort s.table)
              ~default:"stream not committed by receiver"
        in
        Snapshot_table.discard_stage s.table ~reason;
        Metrics.incr m_aborted_streams;
        Log.info (fun m ->
            m "refresh %s group arm failed: %s; degrading to solo" s.snap_name reason);
        if fatal.(i) || t.retry.max_attempts <= 1 then begin
          Metrics.incr m_failures;
          ( s.snap_name,
            Error (Refresh_failed { snapshot = s.snap_name; attempts = 1; reason }) )
        end
        else begin
          let d = backoff_delay t ~failures:1 in
          Metrics.observe h_backoff d;
          Trace.event "refresh.retry"
            ~attrs:
              [ ("snapshot", s.snap_name);
                ("attempt", "1");
                ("reason", reason);
                ("backoff_us", Printf.sprintf "%.0f" d) ];
          Link.advance_time s.link d;
          if not (Link.is_up s.link) then Link.set_up s.link true;
          match
            refresh_with_retries t s
              ~choose:(fun t s -> choose_method t s)
              ~prior_failures:1 ~prior_backoff:d ()
          with
          | r -> (s.snap_name, Ok r)
          | exception e -> (s.snap_name, Error e)
        end
      end)
    members

(* Refresh every snapshot named in [names] (all of them by default),
   grouping by base table so that all members routed to the differential
   method share one scan; the rest (full, ideal, log-based, or a group of
   one) refresh solo.  Per-snapshot failures are returned, not raised:
   one bad arm must not abandon the rest of the batch. *)
let refresh_all ?only t =
  let names =
    match only with
    | Some l -> List.map (fun n -> (snapshot t n).snap_name) l
    | None -> List.sort compare (snapshot_names t)
  in
  let by_base = Hashtbl.create 8 in
  let base_order = ref [] in
  List.iter
    (fun n ->
      let s = snapshot t n in
      let k = key s.base_name in
      if not (Hashtbl.mem by_base k) then base_order := k :: !base_order;
      let existing = Option.value (Hashtbl.find_opt by_base k) ~default:[] in
      Hashtbl.replace by_base k (s :: existing))
    names;
  let results =
    List.concat_map
      (fun k ->
        let members = List.rev (Hashtbl.find by_base k) in
        let b = (Hashtbl.find t.bases k).base_table in
        let grouped, solo =
          List.partition (fun s -> choose_method t s = Used_differential) members
        in
        let run_solo s =
          (s.snap_name, try Ok (refresh_snapshot t s) with e -> Error e)
        in
        let group_results =
          match grouped with
          | [] | [ _ ] -> List.map run_solo grouped
          | _ -> Array.to_list (group_refresh_base t b (Array.of_list grouped))
        in
        group_results @ List.map run_solo solo)
      (List.rev !base_order)
  in
  (* Report in request order regardless of grouping. *)
  List.map (fun n -> (n, List.assoc n results)) names

let refresh ?(group = false) t name =
  let s = snapshot t name in
  if not group then refresh_snapshot t s
  else begin
    (* Refresh the named snapshot together with its base-table siblings so
       they can share the scan; the named snapshot's outcome is this
       call's, the siblings' reports are dropped (use refresh_all to see
       them). *)
    let siblings = List.sort compare (snapshots_on t s.base_name) in
    match List.assoc s.snap_name (refresh_all ~only:siblings t) with
    | Ok r -> r
    | Error e -> raise e
  end

(* Selectivity measurement for CREATE SNAPSHOT.  Small tables get the
   exact single-pass scan; above [sample_threshold] entries we draw a
   fixed-size uniform reservoir sample instead of materializing and
   scanning the whole table. *)
let sample_threshold = 10_000
let sample_size = 1_000

let measure_selectivity t b ~restrict_expr restrict_fn =
  let n = Base_table.count b in
  if n = 0 then Selectivity.heuristic restrict_expr
  else if n <= sample_threshold then begin
    let hits = ref 0 in
    Base_table.iter_stored b (fun _ stored ->
        if restrict_fn (Annotations.user_part stored) then incr hits);
    float_of_int !hits /. float_of_int n
  end
  else begin
    let reservoir = Array.make sample_size (Tuple.make []) in
    let seen = ref 0 in
    Base_table.iter_stored b (fun _ stored ->
        let u = Annotations.user_part stored in
        if !seen < sample_size then reservoir.(!seen) <- u
        else begin
          let j = Snapdiff_util.Rng.int t.rng (!seen + 1) in
          if j < sample_size then reservoir.(j) <- u
        end;
        incr seen);
    let k = min sample_size !seen in
    let hits = ref 0 in
    for i = 0 to k - 1 do
      if restrict_fn reservoir.(i) then incr hits
    done;
    float_of_int !hits /. float_of_int k
  end

let validate_projection user_schema projection =
  List.iter
    (fun col_name ->
      match Schema.index_of user_schema col_name with
      | None -> raise (Bad_definition (Printf.sprintf "unknown column %s in projection" col_name))
      | Some i ->
        if Schema.is_hidden (Schema.column user_schema i) then
          raise (Bad_definition (Printf.sprintf "hidden column %s in projection" col_name)))
    projection

let create_snapshot t ~name ~base:base_name ?(restrict = Expr.ttrue) ?projection
    ?(method_ = Auto) ?link ?(tail_suppression = false) ?(prune = true) ?selectivity
    ?version_strategy ?version_retain () =
  if Hashtbl.mem t.snapshots (key name) then raise (Duplicate_name name);
  let bst = base_state t base_name in
  let b = bst.base_table in
  let user_schema = Base_table.user_schema b in
  (match Typecheck.check_predicate user_schema restrict with
  | Ok () -> ()
  | Error e -> raise (Bad_definition (Format.asprintf "%a" Typecheck.pp_error e)));
  (* "Compile" the restriction: simplify once at definition time. *)
  let restrict = Snapdiff_expr.Simplify.simplify restrict in
  let projection =
    match projection with
    | Some cols ->
      validate_projection user_schema cols;
      cols
    | None -> List.map (fun c -> c.Schema.name) (Schema.columns user_schema)
  in
  let projected_schema = Schema.project user_schema projection in
  let idx = Array.of_list (List.map (Schema.index_of_exn user_schema) projection) in
  let identity = Array.length idx = Schema.arity user_schema
                 && Array.for_all2 ( = ) idx (Array.init (Array.length idx) Fun.id) in
  let project = if identity then Fun.id else fun tuple -> Tuple.project_idx tuple idx in
  let restrict_fn = Eval.compile user_schema restrict in
  (match method_ with
  | Log_based when Base_table.wal b = None ->
    raise (Bad_definition "log-based refresh requires a WAL on the base table")
  | _ -> ());
  let link =
    match link with
    | Some l -> l
    | None -> Link.create ~name:(Printf.sprintf "%s->%s" base_name name) ()
  in
  let request_link = Link.create ~name:(Printf.sprintf "%s->%s" name base_name) () in
  (* The base site consumes control messages; it already holds the compiled
     definition, so receipt is just accounted. *)
  Link.attach request_link (fun (_ : bytes) -> ());
  let table =
    Snapshot_table.create ?version_strategy ?version_retain ~name ~schema:projected_schema
      ()
  in
  Link.attach link (Snapshot_table.apply_bytes table);
  (* CREATE SNAPSHOT ships the definition to the base site once. *)
  Link.send request_link
    (Refresh_msg.encode
       (Refresh_msg.Register { restrict = Expr.to_string restrict; projection }));
  (* Selectivity: measured when data exists (sampled above 10k entries),
     System R heuristics otherwise. *)
  let selectivity =
    match selectivity with
    | Some q -> Float.max 0.0 (Float.min 1.0 q)  (* caller-provided estimate *)
    | None -> measure_selectivity t b ~restrict_expr:restrict restrict_fn
  in
  (* Change capture must be live before the initial population so that the
     first ideal refresh misses nothing. *)
  let created_capture = method_ = Ideal && bst.capture = None in
  if method_ = Ideal then ignore (ensure_capture t base_name : Change_log.t);
  let s =
    {
      snap_name = name;
      base_name;
      restrict_expr = restrict;
      restrict = restrict_fn;
      projection;
      project;
      table;
      link;
      request_link;
      spec = method_;
      tail_suppression;
      prune = (if prune then Some (Differential.Prune_cache.create ()) else None);
      selectivity;
      cursor_seq = 0;
      cursor_lsn = Wal.start_lsn;
      cursor_lease = None;
      mutations_at_refresh = 0;
      next_epoch = 1;
      history = [];
    }
  in
  (* Initial population is always a full transfer, under the table lock.
     On a deferred-mode base it primes the annotations like every other
     non-differential refresh there, so that a first differential refresh
     does not mistake the whole table for freshly inserted. *)
  let report =
    try
      refresh_with_retries t s
        ~choose:(fun _ _ -> Used_full)
        ~populating:true ~send_request:false ()
    with e ->
      (* The populating transfer failed for good: leave no trace.  The
         snapshot was never registered, so no half-populated table with
         stale cursors survives; a capture subscription opened for it is
         rolled back too. *)
      if created_capture then drop_capture t base_name;
      raise e
  in
  (* Register only after the populating transfer has succeeded. *)
  Hashtbl.replace t.snapshots (key name) s;
  (* Cursors start "now": everything up to this point is already in the
     snapshot. *)
  (match bst.capture with
  | Some (log, _) -> s.cursor_seq <- Change_log.current_seq log
  | None -> ());
  (match Base_table.wal b with
  | Some wal -> set_cursor_lsn s (Wal.end_lsn wal)
  | None -> ());
  sync_cursor_lease t s;
  s.mutations_at_refresh <- Base_table.mutations b;
  Log.info (fun m ->
      m "created snapshot %s on %s (%s, selectivity %.3f): %d entries shipped"
        name base_name
        (Expr.to_string restrict)
        selectivity report.data_messages);
  report

(* Adopt a persisted snapshot replica (a file-backed store written by a
   previous process) into the catalog without an initial population: the
   next refresh resumes differentially from the snaptime the store was
   persisted at.  {!Snapshot_table.Corrupt_snapshot} from the integrity
   scan propagates to the caller, like {!Refresh_failed} — a typed,
   per-snapshot failure that leaves the catalog unchanged. *)
let attach_snapshot t ~name ~base:base_name ?(restrict = Expr.ttrue) ?projection
    ?(method_ = Auto) ?link ?(tail_suppression = false) ?(prune = true) ?selectivity
    ?snaptime ?version_strategy ?version_retain pool =
  if Hashtbl.mem t.snapshots (key name) then raise (Duplicate_name name);
  let bst = base_state t base_name in
  let b = bst.base_table in
  let user_schema = Base_table.user_schema b in
  (match Typecheck.check_predicate user_schema restrict with
  | Ok () -> ()
  | Error e -> raise (Bad_definition (Format.asprintf "%a" Typecheck.pp_error e)));
  let restrict = Snapdiff_expr.Simplify.simplify restrict in
  let projection =
    match projection with
    | Some cols ->
      validate_projection user_schema cols;
      cols
    | None -> List.map (fun c -> c.Schema.name) (Schema.columns user_schema)
  in
  let projected_schema = Schema.project user_schema projection in
  let idx = Array.of_list (List.map (Schema.index_of_exn user_schema) projection) in
  let identity = Array.length idx = Schema.arity user_schema
                 && Array.for_all2 ( = ) idx (Array.init (Array.length idx) Fun.id) in
  let project = if identity then Fun.id else fun tuple -> Tuple.project_idx tuple idx in
  let restrict_fn = Eval.compile user_schema restrict in
  (match method_ with
  | Ideal ->
    (* Change capture installed now would have missed everything between
       the persisted snaptime and this attach. *)
    raise (Bad_definition "cannot attach a persisted snapshot with the ideal method")
  | Log_based when Base_table.wal b = None ->
    raise (Bad_definition "log-based refresh requires a WAL on the base table")
  | _ -> ());
  (* May raise Corrupt_snapshot: nothing has been registered yet. *)
  let table =
    Snapshot_table.on_pool ?snaptime ?version_strategy ?version_retain ~name
      ~schema:projected_schema pool
  in
  let link =
    match link with
    | Some l -> l
    | None -> Link.create ~name:(Printf.sprintf "%s->%s" base_name name) ()
  in
  let request_link = Link.create ~name:(Printf.sprintf "%s->%s" name base_name) () in
  Link.attach request_link (fun (_ : bytes) -> ());
  Link.attach link (Snapshot_table.apply_bytes table);
  Link.send request_link
    (Refresh_msg.encode
       (Refresh_msg.Register { restrict = Expr.to_string restrict; projection }));
  let selectivity =
    match selectivity with
    | Some q -> Float.max 0.0 (Float.min 1.0 q)
    | None -> measure_selectivity t b ~restrict_expr:restrict restrict_fn
  in
  let s =
    {
      snap_name = name;
      base_name;
      restrict_expr = restrict;
      restrict = restrict_fn;
      projection;
      project;
      table;
      link;
      request_link;
      spec = method_;
      tail_suppression;
      prune = (if prune then Some (Differential.Prune_cache.create ()) else None);
      selectivity;
      cursor_seq = 0;
      cursor_lsn = Wal.start_lsn;
      cursor_lease = None;
      mutations_at_refresh = 0;
      next_epoch = 1;
      history = [];
    }
  in
  Hashtbl.replace t.snapshots (key name) s;
  sync_cursor_lease t s;
  Log.info (fun m ->
      m "attached persisted snapshot %s on %s (snaptime %d, %d entries)" name base_name
        (Snapshot_table.snaptime table) (Snapshot_table.count table))

let drop_snapshot t name =
  let s =
    match Hashtbl.find_opt t.snapshots (key name) with
    | Some s -> s
    | None -> raise (Unknown_snapshot name)
  in
  Hashtbl.remove t.snapshots (key name);
  release_cursor_lease s;
  let bst = base_state t s.base_name in
  match bst.capture with
  | None -> ()
  | Some (log, _) -> (
    (* Change capture only serves Ideal snapshots.  Dropping the last one
       on this base must detach the subscription and free the log, or the
       Change_log grows without bound (nothing would ever truncate it
       again); with Ideal snapshots remaining, reclaim up to the slowest
       surviving cursor in case the dropped one was the laggard. *)
    let remaining_ideal =
      Hashtbl.fold
        (fun _ other acc ->
          if key other.base_name = key s.base_name && other.spec = Ideal then other :: acc
          else acc)
        t.snapshots []
    in
    match remaining_ideal with
    | [] -> drop_capture t s.base_name
    | rest ->
      let min_cursor = List.fold_left (fun acc o -> min acc o.cursor_seq) max_int rest in
      Change_log.truncate_below log min_cursor)

(* --- Scheduler hooks ------------------------------------------------------ *)

let report_history ?limit t name =
  let h = (snapshot t name).history in
  match limit with
  | None -> h
  | Some n ->
    if n < 0 then invalid_arg "Manager.report_history: negative limit";
    List.filteri (fun i _ -> i < n) h

let set_method t name spec =
  let s = snapshot t name in
  let b = base t s.base_name in
  (match spec with
  | Log_based when Base_table.wal b = None ->
    raise (Bad_definition "log-based refresh requires a WAL on the base table")
  | Ideal when s.spec <> Ideal ->
    (* Capture installed now would have missed every change since the last
       refresh, so the first ideal stream would silently lose them. *)
    raise (Bad_definition "cannot switch a snapshot to the ideal method after creation")
  | _ -> ());
  s.spec <- spec;
  sync_cursor_lease t s

let mutations_since_refresh t name =
  let s = snapshot t name in
  max 0 (Base_table.mutations (base t s.base_name) - s.mutations_at_refresh)

let observed_update_fraction t name =
  let s = snapshot t name in
  observed_update_fraction (base t s.base_name) s
