(* Clocks, sample vectors and the traced run's span recorder.

   Every timer reads the monotonic nanosecond clock; a sample vector keeps
   raw floats so quantiles are exact order statistics, not histogram
   buckets. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let us_since t0 = float_of_int (now_ns () - t0) /. 1e3

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  (* Linear interpolation between closest ranks; 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.data 0 t.n in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let lo = truncate pos in
      let hi = min (t.n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
    end
end

(* Spans of the traced run: recorded from the benchmark's own code around
   calls into the program, kept in memory, written out when the run ends.
   [cap] bounds memory on long runs; spans past it are counted, not kept. *)
module Spans = struct
  type span = { id : int; parent : int; name : string; start_ns : int; end_ns : int }

  let on = ref false
  let cap = 200_000
  let kept : span list ref = ref []
  let n_kept = ref 0
  let n_dropped = ref 0
  let next_id = ref 1
  let stack : int list ref = ref []
  let epoch_ns = now_ns ()

  let current () = match !stack with p :: _ -> p | [] -> 0

  let record ~parent name start_ns end_ns =
    if !n_kept < cap then begin
      let id = !next_id in
      incr next_id;
      kept := { id; parent; name; start_ns; end_ns } :: !kept;
      incr n_kept;
      id
    end
    else begin
      incr n_dropped;
      0
    end

  (* [with_span name f] times [f] as a child of the innermost open span.
     The span id is reserved up front so children can name their parent. *)
  let with_span name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = current () in
      stack := id :: !stack;
      let t0 = now_ns () in
      let finish () =
        let t1 = now_ns () in
        stack := List.tl !stack;
        if !n_kept < cap then begin
          kept := { id; parent; name; start_ns = t0; end_ns = t1 } :: !kept;
          incr n_kept
        end
        else incr n_dropped
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n"
          s.id s.parent s.name
          (float_of_int (s.start_ns - epoch_ns) /. 1e3)
          (float_of_int (s.end_ns - epoch_ns) /. 1e3))
      (List.rev !kept);
    close_out oc
end
