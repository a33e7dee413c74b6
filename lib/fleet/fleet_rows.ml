(* Keyed tables of flat profile rows: rows of [stride] ints back to
   back in one array, indexed by their first two ints through open
   addressing over a second int array (slot -> row number + 1, 0 =
   empty; a power-of-two length kept at least twice the row count), so
   a lookup hashes two ints and allocates nothing.  The probe loops are
   top-level functions taking their state as arguments: a local loop
   would allocate a closure per lookup (no flambda). *)

type t = {
  stride : int;
  mutable rows : int array;
  mutable n : int;
  mutable index : int array;
}

let create ~stride =
  { stride; rows = Array.make (16 * stride) 0; n = 0; index = Array.make 32 0 }

let length t = t.n

let home a b mask =
  let h = ((a * 0x1f3d5b79) + b) * 0x2c1b3c6d in
  (h lxor (h lsr 29)) land mask

let rec probe t a b mask i =
  let r = t.index.(i) - 1 in
  if r < 0 then -1 - i
  else if t.rows.(r * t.stride) = a && t.rows.((r * t.stride) + 1) = b then r
  else probe t a b mask ((i + 1) land mask)

(* the row number of [(a, b)], or [-1 - i] for the empty slot [i] where
   it would go *)
let lookup t a b =
  let mask = Array.length t.index - 1 in
  probe t a b mask (home a b mask)

let find t a b =
  let r = lookup t a b in
  if r < 0 then -1 else r

let rehash t =
  let index = Array.make (2 * Array.length t.index) 0 in
  let mask = Array.length index - 1 in
  for r = 0 to t.n - 1 do
    let rec free i = if index.(i) = 0 then i else free ((i + 1) land mask) in
    index.(free (home t.rows.(r * t.stride) t.rows.((r * t.stride) + 1) mask))
    <- r + 1
  done;
  t.index <- index

let slot t a b =
  let r = lookup t a b in
  if r >= 0 then r
  else begin
    let r' = t.n and s = t.stride in
    if (r' + 1) * s > Array.length t.rows then begin
      let rows = Array.make (2 * Array.length t.rows) 0 in
      Array.blit t.rows 0 rows 0 (r' * s);
      t.rows <- rows
    end;
    t.rows.(r' * s) <- a;
    t.rows.((r' * s) + 1) <- b;
    t.index.(-1 - r) <- r' + 1;
    t.n <- r' + 1;
    if 2 * t.n > Array.length t.index then rehash t;
    r'
  end

let get t r c = t.rows.((r * t.stride) + c)
let set t r c x = t.rows.((r * t.stride) + c) <- x

let sum t a b src o =
  let r = slot t a b in
  let base = r * t.stride in
  for c = 2 to t.stride - 1 do
    t.rows.(base + c) <- t.rows.(base + c) + src.(o + c)
  done

let sorted t =
  let s = t.stride and rows = t.rows in
  let order = Array.init t.n Fun.id in
  Array.stable_sort
    (fun i j ->
      match Int.compare rows.(i * s) rows.(j * s) with
      | 0 -> Int.compare rows.((i * s) + 1) rows.((j * s) + 1)
      | c -> c)
    order;
  let out = Array.make (t.n * s) 0 in
  Array.iteri (fun k r -> Array.blit rows (r * s) out (k * s) s) order;
  out
