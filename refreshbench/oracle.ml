(* The shadow model the benchmark checks the program against.

   Each base table is mirrored as a map from address to row, built only
   from the operations the benchmark issues and the addresses
   [Base_table.insert] returns.  Each snapshot's expected image is kept
   incrementally with the benchmark's own predicate on [qual] and its own
   projection; the program's expression evaluator is never consulted.
   Expected images are persistent maps, so the image of every retained
   epoch is kept by sharing, not copying.

   A row is packed into one immediate int (id, qual, payload; the name is
   derived from the id), so the shadow adds few blocks for the GC to
   trace: its collection work lands inside the program's timed calls. *)

open Snapdiff_storage
module Snapshot_table = Snapdiff_core.Snapshot_table
module Refresh_msg = Snapdiff_core.Refresh_msg
module IM = Map.Make (Int)

(* id < 2^26, qual < 2^17, payload < 2^19. *)
let pack ~id ~qual ~payload = (id lsl 36) lor (qual lsl 19) lor payload
let id_of r = r lsr 36
let qual_of r = (r lsr 19) land 0x1FFFF
let payload_of r = r land 0x7FFFF

(* The user tuple of a packed row, in the schema of [Workload.schema]. *)
let tuple r =
  let id = id_of r in
  [| Value.int id; Value.str (Printf.sprintf "emp%06d" id); Value.int (qual_of r);
     Value.int (payload_of r) |]

type snap = {
  name : string;
  table : Snapshot_table.t;
  lo : int;  (** qualifies iff [lo <= qual < hi] *)
  hi : int;
  proj : int array;  (** user-column positions kept, in snapshot order *)
  retain : int;
  mutable image : int IM.t;  (** expected image of the current base, unprojected *)
  pending : (int, unit) Hashtbl.t;  (** rows changed since the last commit *)
  mutable carried : int list;  (** addresses data messages carried since then *)
  mutable epochs : (int * int IM.t) list;  (** committed images, newest first *)
  mutable commits : int;
}

type base = {
  rows : (int, int) Hashtbl.t;
  mutable live : int array;  (** live addresses, unordered, for sampling *)
  mutable n_live : int;
  slot : (int, int) Hashtbl.t;  (** address -> index in [live] *)
  mutable snaps : snap list;
}

let qualifies s r =
  let q = qual_of r in
  q >= s.lo && q < s.hi

(* The replica row a snapshot should hold for packed row [r]. *)
let expect s r =
  let t = tuple r in
  Array.map (fun i -> t.(i)) s.proj

let create_base () =
  { rows = Hashtbl.create 1024; live = Array.make 1024 0; n_live = 0;
    slot = Hashtbl.create 1024; snaps = [] }

let add_live b addr =
  if b.n_live = Array.length b.live then begin
    let bigger = Array.make (2 * b.n_live) 0 in
    Array.blit b.live 0 bigger 0 b.n_live;
    b.live <- bigger
  end;
  b.live.(b.n_live) <- addr;
  Hashtbl.replace b.slot addr b.n_live;
  b.n_live <- b.n_live + 1

let remove_live b addr =
  let i = Hashtbl.find b.slot addr in
  let last = b.live.(b.n_live - 1) in
  b.live.(i) <- last;
  Hashtbl.replace b.slot last i;
  Hashtbl.remove b.slot addr;
  b.n_live <- b.n_live - 1

(* Record that [addr] now holds packed row [row] ([None] = deleted). *)
let set_row b addr row =
  let was_live = Hashtbl.mem b.rows addr in
  (match row with
  | Some r ->
    Hashtbl.replace b.rows addr r;
    if not was_live then add_live b addr
  | None ->
    Hashtbl.remove b.rows addr;
    if was_live then remove_live b addr);
  List.iter
    (fun s ->
      Hashtbl.replace s.pending addr ();
      s.image <-
        (match row with
        | Some r when qualifies s r -> IM.add addr r s.image
        | _ -> IM.remove addr s.image))
    b.snaps

let get b addr = Hashtbl.find_opt b.rows addr

let random_live b rng = b.live.(Snapdiff_util.Rng.int rng b.n_live)

let count b = b.n_live

let rec carry s = function
  | Refresh_msg.Entry { addr; _ } | Refresh_msg.Upsert { addr; _ } -> s.carried <- addr :: s.carried
  | Refresh_msg.Batch ms -> List.iter (carry s) ms
  | _ -> ()

(* A snapshot over [b]; the address of every data message the replica
   applies is noted, so the stream can be checked against the rows that
   changed. *)
let add_snap b ~name ~table ~lo ~hi ~proj ~retain =
  let s =
    { name; table; lo; hi; proj; retain; image = IM.empty; pending = Hashtbl.create 64;
      carried = []; epochs = []; commits = 0 }
  in
  Hashtbl.iter (fun addr r -> if qualifies s r then s.image <- IM.add addr r s.image) b.rows;
  Snapshot_table.subscribe table (carry s);
  b.snaps <- s :: b.snaps;
  s

(* Does replica row [got] match the expected packed row [want]? *)
let same s got want =
  match (got, want) with
  | None, None -> true
  | Some t, Some r -> Tuple.equal t (expect s r)
  | _ -> false

(* Called with a description of every miss. *)
let on_miss : (string -> unit) ref = ref (fun _ -> ())

let show_got = function None -> "none" | Some t -> Tuple.to_string t
let show_want s = function None -> "none" | Some r -> Tuple.to_string (expect s r)

(* With [perturb], the expected image is deliberately wrong in one row
   (its id, which every projection keeps directly or through the name),
   which the full comparison must catch. *)
let perturbed image =
  match IM.min_binding_opt image with
  | None -> IM.add 1 0 image
  | Some (addr, r) -> IM.add addr (r + (1 lsl 36)) image

let full_mismatches s image =
  let extra = ref 0 in
  let seen = ref 0 in
  Snapshot_table.iter s.table (fun addr t ->
      incr seen;
      let want = IM.find_opt addr image in
      if not (same s (Some t) want) then begin
        incr extra;
        !on_miss
          (Printf.sprintf "%s: replica row %d is %s, expected %s" s.name addr
             (Tuple.to_string t) (show_want s want))
      end);
  let missing = abs (IM.cardinal image - !seen) in
  if missing > 0 then
    !on_miss (Printf.sprintf "%s: replica has %d rows, expected %d" s.name !seen
                (IM.cardinal image));
  !extra + missing

(* Check a commit of [s] and record its image under the committed epoch.
   Three checks, each miss counting once: every row changed since the
   previous commit reads back as the expected image has it; every changed
   row that qualifies was carried by at least one data message; and, when
   [full], the whole replica equals the expected image. *)
let check_commit ?(perturb = false) ~full s =
  let misses = ref 0 in
  let carried = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace carried a ()) s.carried;
  Hashtbl.iter
    (fun addr () ->
      let want = IM.find_opt addr s.image in
      let got = Snapshot_table.get s.table addr in
      if not (same s got want) then begin
        incr misses;
        !on_miss
          (Printf.sprintf "%s: changed row %d reads %s, expected %s" s.name addr
             (show_got got) (show_want s want))
      end;
      if want <> None && not (Hashtbl.mem carried addr) then begin
        incr misses;
        !on_miss (Printf.sprintf "%s: changed row %d carried by no data message" s.name addr)
      end)
    s.pending;
  if full then
    misses := !misses + full_mismatches s (if perturb then perturbed s.image else s.image);
  let epoch = Snapshot_table.last_committed_epoch s.table in
  s.epochs <- List.filteri (fun i _ -> i < s.retain) ((epoch, s.image) :: s.epochs);
  s.commits <- s.commits + 1;
  Hashtbl.reset s.pending;
  s.carried <- [];
  !misses

let latest_epoch s = match s.epochs with (e, _) :: _ -> e | [] -> -1

(* The retained epoch just before the latest, or the latest if the ring
   keeps only one. *)
let previous_epoch s =
  match s.epochs with _ :: (e, _) :: _ -> e | (e, _) :: _ -> e | [] -> -1

let image_at s epoch = List.assoc_opt epoch s.epochs
