(** Open-addressing hash table specialized to fixed-width int-row keys.

    Keys are [width]-wide slices [src.(off) .. src.(off+width-1)] of plain
    [int array]s — relation rows, join keys, projected heads.  Inserted
    keys are copied into one flat backing array; slots are a power-of-two
    linear-probing table hashed with FNV-1a over the key words.  No
    per-entry boxing, no polymorphic hashing, no allocation on lookups or
    inserts (amortized): the engine's dedup and hash-join paths are built
    on this.

    Each entry additionally carries one mutable [int] of client payload
    (initially [-1]); the hash join threads its bucket chains through it.
    The payload array is allocated on the first {!set_value}: a table used
    only for duplicate elimination holds its slots and its keys, nothing
    else.  Keys are copied in with {!Store.Intvec.blit_ints}. *)

type t

val create : width:int -> ?capacity:int -> unit -> t
(** A fresh table for keys of [width] ints ([width >= 0]; a zero-width
    table holds at most one entry, the empty key).  [capacity] (default
    16, [>= 0]) is the number of entries the key storage starts with; past
    it, storage doubles (and always grows to fit the next entry, so
    [capacity = 0] is fine).  Size it from a count that is known, not from
    an upper bound: a table of [n] distinct keys then holds at most about
    [2n] keys' worth of storage.  Raises [Invalid_argument] on a negative
    [width] or [capacity]. *)

val length : t -> int
(** Number of distinct keys stored. *)

val width : t -> int
(** Key width, in ints. *)

val find_or_add : t -> int array -> int -> int
(** [find_or_add t src off] looks up the key slice at [src.(off) ..]; if
    absent, copies it into the table as a new entry with value [-1].
    Returns the entry index (dense, insertion-ordered: [0 .. length-1]).
    Compare {!length} before and after to detect an insert. *)

val add_if_absent : t -> int array -> int -> bool
(** [add_if_absent t src off] inserts the key slice if new and reports
    whether it was inserted — duplicate elimination in one call. *)

val find : t -> int array -> int -> int
(** The entry index of the key slice, or [-1] if absent.  Never inserts. *)

val mem : t -> int array -> int -> bool
(** Membership of the key slice. *)

val value : t -> int -> int
(** [value t e] is entry [e]'s payload int ([-1] until set).  Raises
    [Invalid_argument] unless [0 <= e < length t]. *)

val set_value : t -> int -> int -> unit
(** [set_value t e v] overwrites entry [e]'s payload; the first call
    allocates the table's payload array.  Raises [Invalid_argument] unless
    [0 <= e < length t]. *)

val unsafe_keys : t -> int array
(** The flat key storage: entry [e]'s key lives at
    [e * width t .. (e+1) * width t - 1], entries in insertion (first
    occurrence) order; only the first [length t * width t] cells are
    meaningful.  Not a copy — {!Relation.of_rowtable} adopts it as a
    relation's rows, after which the table must not be inserted into. *)

val hash_slice : width:int -> int array -> int -> int
(** The table's own FNV-1a hash of the key slice at [src.(off) ..].  The
    partitioned operators derive their partition ids from this, so a row
    lands in the same partition as the table bucket it would probe —
    deterministic for a given key, independent of jobs count. *)
