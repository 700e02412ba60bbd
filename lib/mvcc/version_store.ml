open Snapdiff_storage
module Metrics = Snapdiff_obs.Metrics
module Clock = Snapdiff_txn.Clock

let m_versions_live = Metrics.gauge Metrics.global "mvcc.versions_live"
let m_copy_bytes = Metrics.counter Metrics.global "mvcc.copy_bytes"
let m_pages_copied = Metrics.counter Metrics.global "mvcc.pages_copied"
let m_read_indirections = Metrics.counter Metrics.global "mvcc.read_indirections"
let m_commits = Metrics.counter Metrics.global "mvcc.commits"
let m_reclaimed = Metrics.counter Metrics.global "mvcc.versions_reclaimed"
let m_zombie_reclaimed = Metrics.counter Metrics.global "mvcc.zombies_reclaimed"
let m_copyouts = Metrics.counter Metrics.global "mvcc.zigzag_copyouts"
let m_pins = Metrics.counter Metrics.global "mvcc.pins"

exception Epoch_not_retained of { requested : int; live_lo : int; live_hi : int }

let () =
  Printexc.register_printer (function
    | Epoch_not_retained { requested; live_lo; live_hi } ->
      Some
        (Printf.sprintf "Epoch_not_retained(epoch %d; retained epochs %d..%d)" requested
           live_lo live_hi)
    | _ -> None)

type strategy = Naive | Copy_on_update | Zigzag

let strategy_name = function
  | Naive -> "naive"
  | Copy_on_update -> "copy-on-update"
  | Zigzag -> "zigzag"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Some Naive
  | "cou" | "copy-on-update" | "copy_on_update" -> Some Copy_on_update
  | "zigzag" -> Some Zigzag
  | _ -> None

type page = (Addr.t * Tuple.t) array

type live = {
  live_page : int -> page option;
  live_pids : unit -> int list;
  live_get : Addr.t -> Tuple.t option;
  live_count : unit -> int;
}

(* One frozen view per strategy:

   - [Frozen_naive]: a complete private page table (absent pid = empty).
   - [Frozen_cou]: overrides laid over the live table.  Invariant: a pid
     with no override is untouched since the version froze, so the live
     page *is* the version's page (the one read indirection).
   - [Frozen_zz]: a snapshot of the current-slot bitmap plus copy-out
     overrides; pids never dirtied since store creation have no slot pair
     and read through to live. *)
type view =
  | Live
  | Frozen_naive of (int, page) Hashtbl.t
  | Frozen_cou of (int, page option) Hashtbl.t
  | Frozen_zz of zz_view

and zz_view = {
  zv_bits : Bytes.t;  (* current-slot bit per pid at freeze; beyond length = 0 *)
  zv_over : (int, page option) Hashtbl.t;  (* copy-outs *)
}

type version = {
  mutable v_epoch : int;
  mutable v_snaptime : Clock.ts;
  mutable v_pins : int;
  mutable v_view : view;
  mutable v_dead : bool;  (* evicted from the ring; freed when pins drain *)
}

type t = {
  strat : strategy;
  keep : int;
  span : int;
  live : live;
  lock : Mutex.t;
  mutable ring : version list;  (* newest first; head is the live image *)
  mutable zombies : version list;
  (* Zigzag shared state: two page slots per ever-dirtied pid, plus the
     bit saying which slot the *next* freeze will reference. *)
  zz_slots : (int, page option array) Hashtbl.t;
  mutable zz_cur : Bytes.t;
  (* In-flight commit bookkeeping. *)
  mutable committing : bool;
  mutable froze_head : bool;  (* this commit took the freeze (slow) path *)
  touched : (int, unit) Hashtbl.t;  (* pids captured this commit *)
  (* Cached "mutations need interception" flag: one unsynchronized read on
     the write path keeps the inert default at zero overhead. *)
  mutable is_active : bool;
  (* The retention horizon's veto: [guard ~epoch ~snaptime] is false when
     some live lease or the retention policy still needs that version, in
     which case eviction keeps it in the ring instead of freeing or
     zombifying it.  Consulted by ring trimming and {!vacuum}; the default
     (always reclaimable) is the pre-lifecycle refcount-only behaviour. *)
  mutable guard : epoch:int -> snaptime:Clock.ts -> bool;
}

type txn = { tx_store : t; tx_version : version; mutable tx_pinned : bool }

(* ------------------------------------------------------------------ *)
(* Bit vector helpers (grow-on-demand; reads beyond length are 0).     *)

let bit_get b i =
  let byte = i lsr 3 in
  if byte >= Bytes.length b then 0
  else (Char.code (Bytes.unsafe_get b byte) lsr (i land 7)) land 1

let ensure_bits t i =
  let byte = i lsr 3 in
  if byte >= Bytes.length t.zz_cur then begin
    let b = Bytes.make (max (byte + 1) (2 * Bytes.length t.zz_cur + 8)) '\000' in
    Bytes.blit t.zz_cur 0 b 0 (Bytes.length t.zz_cur);
    t.zz_cur <- b
  end

let bit_flip t i =
  ensure_bits t i;
  let byte = i lsr 3 in
  let c = Char.code (Bytes.get t.zz_cur byte) in
  Bytes.set t.zz_cur byte (Char.chr (c lxor (1 lsl (i land 7))))

(* ------------------------------------------------------------------ *)

let create ?(strategy = Naive) ?(retain = 1) ?(page_span = 64) ~live () =
  if page_span < 1 then invalid_arg "Version_store.create: page_span < 1";
  let head =
    { v_epoch = -1; v_snaptime = Clock.never; v_pins = 0; v_view = Live; v_dead = false }
  in
  Metrics.shift m_versions_live 1.0;
  {
    strat = strategy;
    keep = max 1 retain;
    span = page_span;
    live;
    lock = Mutex.create ();
    ring = [ head ];
    zombies = [];
    zz_slots = Hashtbl.create 16;
    zz_cur = Bytes.create 0;
    committing = false;
    froze_head = false;
    touched = Hashtbl.create 16;
    is_active = false;
    guard = (fun ~epoch:_ ~snaptime:_ -> true);
  }

let set_reclaim_guard t g = t.guard <- g

let strategy t = t.strat
let retain t = t.keep
let page_span t = t.span
let active t = t.is_active

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Recompute the interception flag; call with the lock held. *)
let refresh_active t =
  t.is_active <-
    (match t.ring with
    | [ { v_view = Live; v_pins = 0; _ } ] -> t.zombies <> []
    | _ -> true)

let page_bytes (p : page option) =
  match p with
  | None -> 0
  | Some p -> Array.fold_left (fun acc (_, tup) -> acc + 8 + Tuple.encoded_size tup) 0 p

let note_copy p =
  Metrics.incr m_pages_copied;
  Metrics.add m_copy_bytes (page_bytes p)

let frozen_versions t =
  List.filter (fun v -> v.v_view <> Live) t.ring @ t.zombies

(* ------------------------------------------------------------------ *)
(* Capture: strategy-specific pre-image bookkeeping.  All run with the
   lock held, *before* the host mutates the page in question, at most
   once per pid per commit (raw writes re-run, which is idempotent). *)

let capture_cou t pid =
  let pre = lazy (t.live.live_page pid) in
  List.iter
    (fun v ->
      match v.v_view with
      | Frozen_cou over when not (Hashtbl.mem over pid) ->
        let p = Lazy.force pre in
        note_copy p;
        Hashtbl.replace over pid p
      | _ -> ())
    (frozen_versions t)

(* Zigzag: slot [cur pid] already holds the value every version whose bit
   points there needs (the post-image written when the bit last flipped),
   and the pre-image of the current dirtying *is* that value, so touching
   an already-slotted pid costs nothing here.  First-ever dirty of a pid
   materializes both slots with the pre-image so every frozen version
   (whatever its bit) stops reading through to live before live changes. *)
let capture_zz t pid =
  if not (Hashtbl.mem t.zz_slots pid) then begin
    let pre = t.live.live_page pid in
    note_copy pre;
    Hashtbl.replace t.zz_slots pid [| pre; pre |]
  end

(* A raw (non-commit) write under retained zigzag versions demotes the pid
   to read-through form: every frozen version takes a private copy of the
   page image it was reading (its slot, or the live page when the pid was
   never slotted), then the slot pair is dropped — future freezes read the
   raw-mutated page through live again.  The slot invariant — slot[cur]
   holds the pid's current live image — only survives mutations the store
   intercepts, and raw writes have no post-image hook to re-establish it. *)
let demote_zz t pid =
  let slots = Hashtbl.find_opt t.zz_slots pid in
  let pre = lazy (t.live.live_page pid) in
  List.iter
    (fun v ->
      match v.v_view with
      | Frozen_zz zv when not (Hashtbl.mem zv.zv_over pid) ->
        let p =
          match slots with
          | Some slots -> slots.(bit_get zv.zv_bits pid)
          | None -> Lazy.force pre
        in
        note_copy p;
        Metrics.incr m_copyouts;
        Hashtbl.replace zv.zv_over pid p
      | _ -> ())
    (frozen_versions t);
  Hashtbl.remove t.zz_slots pid

let capture_pid t pid =
  if t.committing then begin
    if not (Hashtbl.mem t.touched pid) then begin
      Hashtbl.replace t.touched pid ();
      match t.strat with
      | Naive -> ()  (* the freeze already cloned everything *)
      | Copy_on_update -> capture_cou t pid
      | Zigzag -> capture_zz t pid
    end
  end
  else
    (* Legacy raw write: frozen versions must stop depending on live for
       this pid before it changes under them. *)
    match t.strat with
    | Naive -> ()
    | Copy_on_update -> capture_cou t pid
    | Zigzag -> demote_zz t pid

let write t target mutate =
  if not t.is_active then mutate ()
  else
    locked t (fun () ->
        (match target with
        | `Addr addr -> capture_pid t (addr / t.span)
        | `All -> List.iter (capture_pid t) (t.live.live_pids ()));
        mutate ())

(* ------------------------------------------------------------------ *)
(* Commit protocol. *)

let freeze_head t head =
  (* While no frozen version is retained, writes bypass the store, so the
     zigzag slot pairs can be stale (slot[cur] no longer the live image).
     Nothing references them in that state — reset and rebuild from the
     coming commit's pre-images. *)
  if t.strat = Zigzag && frozen_versions t = [] then Hashtbl.reset t.zz_slots;
  let view =
    match t.strat with
    | Naive ->
      let pages = Hashtbl.create 64 in
      List.iter
        (fun pid ->
          match t.live.live_page pid with
          | Some p ->
            note_copy (Some p);
            Hashtbl.replace pages pid p
          | None -> ())
        (t.live.live_pids ());
      Frozen_naive pages
    | Copy_on_update -> Frozen_cou (Hashtbl.create 16)
    | Zigzag ->
      Frozen_zz { zv_bits = Bytes.copy t.zz_cur; zv_over = Hashtbl.create 4 }
  in
  head.v_view <- view

let begin_commit t =
  locked t (fun () ->
      if t.committing then invalid_arg "Version_store.begin_commit: already committing";
      t.committing <- true;
      Hashtbl.reset t.touched;
      let head = List.hd t.ring in
      (* Inert fast path: nothing retained, nobody watching — the commit
         mutates the live image in place, exactly the un-versioned table. *)
      if t.keep = 1 && head.v_pins = 0 && t.zombies = [] then t.froze_head <- false
      else begin
        t.froze_head <- true;
        freeze_head t head;
        refresh_active t
      end)

(* Publish side of zigzag: flip each dirty pid's bit and write the
   post-image into the newly current slot (the slot the *next* freeze's
   bitmap will reference).  Retained versions still pointing at that slot
   take a private copy first. *)
let zz_publish t =
  Hashtbl.iter
    (fun pid () ->
      match Hashtbl.find_opt t.zz_slots pid with
      | None -> ()
      | Some slots ->
        let o = 1 - bit_get t.zz_cur pid in
        List.iter
          (fun v ->
            match v.v_view with
            | Frozen_zz zv
              when bit_get zv.zv_bits pid = o && not (Hashtbl.mem zv.zv_over pid) ->
              let p = slots.(o) in
              note_copy p;
              Metrics.incr m_copyouts;
              Hashtbl.replace zv.zv_over pid p
            | _ -> ())
          (frozen_versions t);
        let post = t.live.live_page pid in
        note_copy post;
        slots.(o) <- post;
        bit_flip t pid)
    t.touched

let free_version v =
  (* Drop the bulk structures eagerly; the record itself is small. *)
  (match v.v_view with
  | Live -> ()
  | Frozen_naive pages -> Hashtbl.reset pages
  | Frozen_cou over -> Hashtbl.reset over
  | Frozen_zz zv -> Hashtbl.reset zv.zv_over);
  v.v_view <- Frozen_cou (Hashtbl.create 1);
  Metrics.shift m_versions_live (-1.0);
  Metrics.incr m_reclaimed

let end_commit t ~epoch ~snaptime =
  locked t (fun () ->
      if not t.committing then invalid_arg "Version_store.end_commit: no commit in flight";
      t.committing <- false;
      Metrics.incr m_commits;
      if not t.froze_head then begin
        (* Fast path: the head is still the live image; relabel it. *)
        let head = List.hd t.ring in
        head.v_epoch <- epoch;
        head.v_snaptime <- snaptime
      end
      else begin
        if t.strat = Zigzag then zz_publish t;
        let head =
          { v_epoch = epoch; v_snaptime = snaptime; v_pins = 0; v_view = Live; v_dead = false }
        in
        Metrics.shift m_versions_live 1.0;
        let ring = head :: t.ring in
        let rec trim i = function
          | [] -> []
          | v :: rest when i >= t.keep ->
            if v.v_pins > 0 then begin
              (* Evicted but pinned: survives as a zombie until the pins
                 (and their leases) drain — never reclaimed while held. *)
              v.v_dead <- true;
              t.zombies <- v :: t.zombies;
              trim (i + 1) rest
            end
            else if not (t.guard ~epoch:v.v_epoch ~snaptime:v.v_snaptime) then
              (* The retention horizon (a lease, or the retention policy's
                 time window) still needs this unpinned epoch: it stays in
                 the ring — pinnable later, vacuumable once released. *)
              v :: trim (i + 1) rest
            else begin
              free_version v;
              trim (i + 1) rest
            end
          | v :: rest -> v :: trim (i + 1) rest
        in
        t.ring <- trim 0 ring
      end;
      Hashtbl.reset t.touched;
      refresh_active t)

(* ------------------------------------------------------------------ *)
(* Read transactions. *)

let pin ?epoch t =
  locked t (fun () ->
      let v =
        match epoch with
        | None -> Some (List.hd t.ring)
        | Some e -> List.find_opt (fun v -> v.v_epoch = e) t.ring
      in
      match v with
      | None -> None
      | Some v ->
        v.v_pins <- v.v_pins + 1;
        Metrics.incr m_pins;
        refresh_active t;
        Some { tx_store = t; tx_version = v; tx_pinned = true })

let release tx =
  if tx.tx_pinned then begin
    tx.tx_pinned <- false;
    let t = tx.tx_store in
    locked t (fun () ->
        let v = tx.tx_version in
        v.v_pins <- v.v_pins - 1;
        if v.v_dead && v.v_pins = 0 then begin
          t.zombies <- List.filter (fun z -> z != v) t.zombies;
          free_version v;
          Metrics.incr m_zombie_reclaimed
        end;
        refresh_active t)
  end

(* Oldest/newest retained epoch; lock held.  The ring is newest first and
   never empty (the live head), so the range is its two ends. *)
let live_range_locked t =
  let hi = (List.hd t.ring).v_epoch in
  let rec last = function [ v ] -> v.v_epoch | _ :: tl -> last tl | [] -> hi in
  (last t.ring, hi)

let live_range t = locked t (fun () -> live_range_locked t)

let pin_exn ?epoch t =
  match pin ?epoch t with
  | Some tx -> tx
  | None ->
    let live_lo, live_hi = live_range t in
    let requested = Option.value epoch ~default:live_hi in
    raise (Epoch_not_retained { requested; live_lo; live_hi })

let txn_epoch tx = tx.tx_version.v_epoch
let txn_snaptime tx = tx.tx_version.v_snaptime
let txn_pinned tx = tx.tx_pinned

let check_pinned tx op = if not tx.tx_pinned then invalid_arg ("Version_store." ^ op ^ ": released txn")

(* Where the pinned version's image of one pid lives; lock held.
   [Unchanged] means the pid has had no mutation since the version was
   taken (no override and, for zigzag, no slot), so the live table
   answers for it — a whole page or a single address alike. *)
type source = Image of page option | Unchanged

let locate t v pid =
  match v.v_view with
  | Live -> Unchanged
  | Frozen_naive pages -> Image (Hashtbl.find_opt pages pid)
  | Frozen_cou over -> (
    match Hashtbl.find_opt over pid with
    | Some p -> Image p
    | None ->
      Metrics.incr m_read_indirections;
      Unchanged)
  | Frozen_zz zv -> (
    match Hashtbl.find_opt zv.zv_over pid with
    | Some p -> Image p
    | None -> (
      match Hashtbl.find_opt t.zz_slots pid with
      | Some slots ->
        Metrics.incr m_read_indirections;
        Image slots.(bit_get zv.zv_bits pid)
      | None ->
        Metrics.incr m_read_indirections;
        Unchanged))

(* Resolve the pinned version's image of one pid; lock held. *)
let resolve_page t v pid : page option =
  match locate t v pid with Image p -> p | Unchanged -> t.live.live_page pid

(* The pids that may be non-empty at the pinned version; lock held. *)
let candidate_pids t v =
  let add set pid = if not (Hashtbl.mem set pid) then Hashtbl.replace set pid () in
  match v.v_view with
  | Live -> t.live.live_pids ()
  | Frozen_naive pages ->
    List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) pages [])
  | Frozen_cou over ->
    let set = Hashtbl.create 64 in
    List.iter (add set) (t.live.live_pids ());
    Hashtbl.iter (fun pid _ -> add set pid) over;
    List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) set [])
  | Frozen_zz zv ->
    let set = Hashtbl.create 64 in
    List.iter (add set) (t.live.live_pids ());
    Hashtbl.iter (fun pid _ -> add set pid) t.zz_slots;
    Hashtbl.iter (fun pid _ -> add set pid) zv.zv_over;
    List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) set [])

let find_in_page (p : page) addr =
  (* Binary search; pages are sorted by address. *)
  let lo = ref 0 and hi = ref (Array.length p - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let a, tup = p.(mid) in
    let c = Addr.compare a addr in
    if c = 0 then begin
      found := Some tup;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let get tx addr =
  check_pinned tx "get";
  let t = tx.tx_store in
  locked t (fun () ->
      match locate t tx.tx_version (addr / t.span) with
      | Unchanged -> t.live.live_get addr
      | Image None -> None
      | Image (Some p) -> find_in_page p addr)

let iter_pages tx f =
  (* Fetch the pid list and then each page under short lock windows; the
     per-page capture discipline (pre-images installed before any live
     mutation) keeps every fetch consistent with the pinned version no
     matter how a concurrent commit interleaves. *)
  let t = tx.tx_store in
  let pids = locked t (fun () -> candidate_pids t tx.tx_version) in
  List.iter
    (fun pid ->
      match locked t (fun () -> resolve_page t tx.tx_version pid) with
      | None -> ()
      | Some p -> f p)
    pids

let iter tx f =
  check_pinned tx "iter";
  iter_pages tx (fun p -> Array.iter (fun (a, tup) -> f a tup) p)

let fold tx ~init ~f =
  check_pinned tx "fold";
  let acc = ref init in
  iter_pages tx (fun p -> Array.iter (fun (a, tup) -> acc := f !acc a tup) p);
  !acc

let count tx =
  check_pinned tx "count";
  let t = tx.tx_store in
  match tx.tx_version.v_view with
  | Live -> locked t (fun () -> t.live.live_count ())
  | _ ->
    let n = ref 0 in
    iter_pages tx (fun p -> n := !n + Array.length p);
    !n

let exists_in_range tx ?lo ?hi ~f () =
  check_pinned tx "exists_in_range";
  let t = tx.tx_store in
  let in_range a =
    (match lo with None -> true | Some l -> Addr.compare a l >= 0)
    && match hi with None -> true | Some h -> Addr.compare a h <= 0
  in
  let pid_ok pid =
    let first = pid * t.span and last = (pid * t.span) + t.span - 1 in
    (match lo with None -> true | Some l -> last >= l)
    && match hi with None -> true | Some h -> first <= h
  in
  let exception Found in
  try
    let pids = locked t (fun () -> candidate_pids t tx.tx_version) in
    List.iter
      (fun pid ->
        if pid_ok pid then
          match locked t (fun () -> resolve_page t tx.tx_version pid) with
          | None -> ()
          | Some p ->
            Array.iter (fun (a, tup) -> if in_range a && f tup then raise Found) p)
      pids;
    false
  with Found -> true

(* ------------------------------------------------------------------ *)

type version_info = {
  vi_epoch : int;
  vi_snaptime : Clock.ts;
  vi_pins : int;
  vi_frozen : bool;
}

let versions t =
  locked t (fun () ->
      List.map
        (fun v ->
          {
            vi_epoch = v.v_epoch;
            vi_snaptime = v.v_snaptime;
            vi_pins = v.v_pins;
            vi_frozen = v.v_view <> Live;
          })
        t.ring)

let zombie_count t = locked t (fun () -> List.length t.zombies)

(* ------------------------------------------------------------------ *)
(* Vacuum: horizon-driven reclamation of retained versions. *)

type vacuum_stats = {
  vac_examined : int;  (* eviction candidates considered *)
  vac_reclaimed : int;  (* versions freed (or would be, on a dry run) *)
  vac_zombied : int;  (* pinned candidates parked on the zombie list *)
  vac_kept : int;  (* unpinned candidates the horizon guard protected *)
  vac_bytes : int;  (* encoded bytes the freed versions held *)
}

let version_bytes v =
  match v.v_view with
  | Live -> 0
  | Frozen_naive pages -> Hashtbl.fold (fun _ p acc -> acc + page_bytes (Some p)) pages 0
  | Frozen_cou over -> Hashtbl.fold (fun _ p acc -> acc + page_bytes p) over 0
  | Frozen_zz zv -> Hashtbl.fold (fun _ p acc -> acc + page_bytes p) zv.zv_over 0

let vacuum ?older_than ?(dry_run = false) t =
  locked t (fun () ->
      if t.committing then invalid_arg "Version_store.vacuum: commit in flight";
      let expired v =
        match older_than with Some ts -> v.v_snaptime < ts | None -> false
      in
      let stats =
        ref { vac_examined = 0; vac_reclaimed = 0; vac_zombied = 0; vac_kept = 0; vac_bytes = 0 }
      in
      let bump f = stats := f !stats in
      (* The live head (position 0) is never a candidate; beyond it a
         version goes when it has fallen past the retained count (ring
         overage the guard kept alive earlier) or is explicitly older
         than the cutoff, which overrides the count.  Pinned candidates
         are evicted to the zombie list — their readers keep a
         byte-identical image and the final release reclaims them — and
         unpinned ones are freed unless the horizon guard (a live lease,
         or the retention policy's time window) still needs them. *)
      let rec walk i = function
        | [] -> []
        | v :: rest when i = 0 || not (i >= t.keep || expired v) -> v :: walk (i + 1) rest
        | v :: rest ->
          bump (fun s -> { s with vac_examined = s.vac_examined + 1 });
          if v.v_pins > 0 then begin
            bump (fun s -> { s with vac_zombied = s.vac_zombied + 1 });
            if dry_run then v :: walk (i + 1) rest
            else begin
              v.v_dead <- true;
              t.zombies <- v :: t.zombies;
              walk (i + 1) rest
            end
          end
          else if not (t.guard ~epoch:v.v_epoch ~snaptime:v.v_snaptime) then begin
            bump (fun s -> { s with vac_kept = s.vac_kept + 1 });
            v :: walk (i + 1) rest
          end
          else begin
            bump (fun s ->
                { s with vac_reclaimed = s.vac_reclaimed + 1; vac_bytes = s.vac_bytes + version_bytes v });
            if dry_run then v :: walk (i + 1) rest
            else begin
              free_version v;
              walk (i + 1) rest
            end
          end
      in
      let ring' = walk 0 t.ring in
      if not dry_run then t.ring <- ring';
      refresh_active t;
      !stats)
