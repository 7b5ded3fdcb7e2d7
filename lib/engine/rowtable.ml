(* Open-addressing hash table specialized to fixed-width int-row keys.

   Keys are width-[w] slices of int arrays; inserted keys are copied into
   one flat backing array (no per-entry boxing), slots hold entry indexes,
   collisions are resolved by linear probing over a power-of-two slot
   array.  Hashing is FNV-1a over the key words.  This replaces OCaml's
   polymorphic [Hashtbl] on [int array] / [int list] keys in the engine's
   dedup and hash-join paths: lookups and inserts allocate nothing.  Key
   copies go through [Intvec.blit_ints] (no write barrier), and the payload
   array exists only once a caller sets a payload — only the hash join
   does; dedup tables carry keys and slots alone. *)

type t = {
  width : int;
  mutable mask : int;        (* number of slots - 1; slots are a power of two *)
  mutable slots : int array; (* entry index + 1, 0 = empty *)
  mutable cap : int;         (* entries the key array has room for *)
  mutable keys : int array;  (* entry e's key at [e*width .. e*width+width-1] *)
  mutable vals : int array;  (* one payload int per entry ([-1] = unset);
                                [[||]] until the first [set_value] *)
  mutable n : int;           (* number of entries *)
}

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ~width ?(capacity = 16) () =
  if width < 0 then invalid_arg "Rowtable.create: negative width";
  if capacity < 0 then invalid_arg "Rowtable.create: negative capacity";
  let cap = pow2_at_least (max 8 (2 * capacity)) 8 in
  {
    width;
    mask = cap - 1;
    slots = Array.make cap 0;
    cap = capacity;
    keys = Array.make (max 1 (capacity * width)) 0;
    vals = [||];
    n = 0;
  }

let length t = t.n
let width t = t.width

(* FNV-1a over the key words; the final shift folds the well-mixed high
   bits into the slot index. *)
let fnv_prime = 0x100000001b3
let fnv_seed = 0x3ade68b1

let hash width src off =
  let h = ref fnv_seed in
  for i = off to off + width - 1 do
    h := (!h lxor Array.unsafe_get src i) * fnv_prime
  done;
  let h = !h in
  h lxor (h lsr 29)

let hash_slice ~width src off = hash width src off

(* Probing runs once per row offered to a dedup table, so it must not
   allocate: these are top-level functions over explicit arguments, not
   local closures (which would be allocated on every call). *)
let rec key_equal keys base src off width i =
  i = width
  || Array.unsafe_get keys (base + i) = Array.unsafe_get src (off + i)
     && key_equal keys base src off width (i + 1)

let rec probe_from t src off i =
  let s = Array.unsafe_get t.slots i in
  if s = 0 || key_equal t.keys ((s - 1) * t.width) src off t.width 0 then i
  else probe_from t src off ((i + 1) land t.mask)

(* Slot of the entry matching the slice, or the first empty slot. *)
let probe t src off = probe_from t src off (hash t.width src off land t.mask)

let grow_slots t =
  let cap = 2 * Array.length t.slots in
  t.slots <- Array.make cap 0;
  t.mask <- cap - 1;
  for e = 0 to t.n - 1 do
    (* entries are distinct keys, so every probe ends on an empty slot *)
    t.slots.(probe t t.keys (e * t.width)) <- e + 1
  done

let blit = Store.Intvec.blit_ints

(* Makes room for one more entry.  Key (and, once allocated, payload)
   storage grows to at least [n + 1] entries — doubling alone would leave
   a capacity-0 table at 0.  Returns whether the slot array was rebuilt,
   which invalidates a slot index probed before the call. *)
let ensure_entry_room t =
  let regrown = 2 * (t.n + 1) > Array.length t.slots in
  if regrown then grow_slots t;
  if t.n + 1 > t.cap then begin
    let cap = max (2 * t.cap) (t.n + 1) in
    if t.width > 0 then begin
      let keys = Array.make (cap * t.width) 0 in
      blit t.keys 0 keys 0 (t.n * t.width);
      t.keys <- keys
    end;
    if Array.length t.vals > 0 then begin
      let vals = Array.make cap (-1) in
      blit t.vals 0 vals 0 t.n;
      t.vals <- vals
    end;
    t.cap <- cap
  end;
  regrown

(* Storage grows only on an actual insert, so a lookup of a present key
   never reallocates. *)
let find_or_add t src off =
  let i = probe t src off in
  let s = t.slots.(i) in
  if s <> 0 then s - 1
  else begin
    let i = if ensure_entry_room t then probe t src off else i in
    let e = t.n in
    blit src off t.keys (e * t.width) t.width;
    t.slots.(i) <- e + 1;
    t.n <- e + 1;
    e
  end

let add_if_absent t src off =
  let n0 = t.n in
  ignore (find_or_add t src off);
  t.n > n0

let find t src off =
  if t.n = 0 then -1 else t.slots.(probe t src off) - 1

let mem t src off = find t src off >= 0

let check_entry t e =
  if e < 0 || e >= t.n then invalid_arg "Rowtable: entry out of range"

let value t e =
  check_entry t e;
  if Array.length t.vals = 0 then -1 else t.vals.(e)

let set_value t e v =
  check_entry t e;
  if Array.length t.vals = 0 then t.vals <- Array.make (max 1 t.cap) (-1);
  t.vals.(e) <- v

let unsafe_keys t = t.keys
