(* Implicit binary tree: node 1 is the root, node n has children 2n and
   2n+1, and the [cap] leaves sit at [cap .. 2cap-1].  Each internal node
   holds the max of its children, so a subtree whose max is below the
   threshold is skipped whole. *)
type t = { mutable cap : int; mutable nodes : int array }

let create () = { cap = 1; nodes = Array.make 2 min_int }

let grow t i =
  let cap = ref t.cap in
  while !cap <= i do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let nodes = Array.make (2 * cap) min_int in
  Array.blit t.nodes t.cap nodes cap t.cap;
  for n = cap - 1 downto 1 do
    nodes.(n) <- max nodes.(2 * n) nodes.((2 * n) + 1)
  done;
  t.cap <- cap;
  t.nodes <- nodes

let set t i v =
  if i < 0 then invalid_arg "Max_tree.set: negative slot";
  if i >= t.cap then grow t i;
  let n = ref (t.cap + i) in
  t.nodes.(!n) <- v;
  n := !n / 2;
  while !n >= 1 do
    t.nodes.(!n) <- max t.nodes.(2 * !n) t.nodes.((2 * !n) + 1);
    n := !n / 2
  done

let find_first t ~lo ~hi ~at_least =
  let lo = max lo 0 and hi = min hi t.cap in
  (* [node] covers slots [first, first + width). *)
  let rec go node first width =
    if first >= hi || first + width <= lo || t.nodes.(node) < at_least then -1
    else if width = 1 then first
    else
      let half = width / 2 in
      let left = go (2 * node) first half in
      if left >= 0 then left else go ((2 * node) + 1) (first + half) half
  in
  if lo >= hi then None
  else match go 1 0 t.cap with -1 -> None | i -> Some i
