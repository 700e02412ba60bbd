(** A growable max segment tree over integer slots.

    Every slot [i >= 0] holds an integer, [min_int] until first {!set}.
    {!find_first} answers "the leftmost slot in a range whose value is at
    least [x]" in O(log n), n the highest slot set — the query a first-fit
    free-space map asks of every insert (in the manner of PostgreSQL's
    FSM). *)

type t

val create : unit -> t
(** An empty tree: every slot holds [min_int]. *)

val set : t -> int -> int -> unit
(** [set t i v] stores [v] in slot [i], growing the tree as needed
    (amortized O(1) growth, O(log n) update).  Raises [Invalid_argument]
    for a negative slot. *)

val find_first : t -> lo:int -> hi:int -> at_least:int -> int option
(** [find_first t ~lo ~hi ~at_least] is the smallest [i] with
    [lo <= i < hi] whose slot holds at least [at_least], if any. *)
