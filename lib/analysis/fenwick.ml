(* Fenwick (binary indexed) tree over positions 1..n, used by the
   reuse-distance analyzer to count distinct elements between two
   accesses in O(log n). *)

type t = { mutable n : int; mutable tree : int array }

let create n = { n; tree = Array.make (n + 1) 0 }

(* Empty the tree and resize it to positions 1..n, reusing its storage
   when it is large enough (one tree serves every CTA of a trace). *)
let reset t n =
  if n + 1 > Array.length t.tree then t.tree <- Array.make (n + 1) 0
  else Array.fill t.tree 0 (n + 1) 0;
  t.n <- n

let add t i delta =
  if i < 1 || i > t.n then invalid_arg (Printf.sprintf "Fenwick.add: index %d" i);
  let i = ref i in
  while !i <= t.n do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

(* Sum of values at positions 1..i. *)
let prefix t i =
  let i = ref (min i t.n) in
  let acc = ref 0 in
  while !i > 0 do
    acc := !acc + t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* Sum over the open interval (lo, hi). *)
let between t ~lo ~hi = if hi <= lo + 1 then 0 else prefix t (hi - 1) - prefix t lo
