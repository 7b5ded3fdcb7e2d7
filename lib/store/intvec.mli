(** Growable integer vectors: the backing storage for triple tables,
    posting lists and materialized relations.  Amortized O(1) append. *)

type t

val blit_ints : int array -> int -> int array -> int -> int -> unit
(** [blit_ints src srcoff dst dstoff len] copies [len] ints from [src]
    starting at [srcoff] into [dst] starting at [dstoff], like
    [Array.blit] but typed to [int array]: no write barrier per word, so a
    copy into a major-heap array costs a plain store per element.  Raises
    [Invalid_argument] when either range is out of bounds.  Every row copy
    of the execution engine goes through this. *)

val create : ?capacity:int -> unit -> t
(** A fresh empty vector. *)

val length : t -> int
(** Number of elements. *)

val push : t -> int -> unit
(** Appends an element. *)

val get : t -> int -> int
(** [get v i] is the [i]-th element.  Bounds-checked. *)

val unsafe_get : t -> int -> int
(** [unsafe_get v i] is the [i]-th element with {e no} bounds check: the
    caller must guarantee [0 <= i < length v].  Reserved for the engine's
    innermost loops (posting-list scans, column reads), where the index is
    valid by construction. *)

val set : t -> int -> int -> unit
(** [set v i x] overwrites the [i]-th element.  Bounds-checked. *)

val pop : t -> int
(** Removes and returns the last element.  Raises [Invalid_argument] on an
    empty vector.  With {!set}, this is the swap-remove primitive the
    store's deletion path uses on columns and posting lists. *)

val index : t -> int -> int
(** [index v x] is the position of the first occurrence of [x], or [-1].
    O(length): the posting scans of the store's deletion path. *)

val swap_remove_value : t -> int -> bool
(** [swap_remove_value v x] removes one occurrence of [x] by overwriting it
    with the last element and shrinking by one (order is not preserved).
    Returns [false] when [x] does not occur.  O(length). *)

val iter : (int -> unit) -> t -> unit
(** Iterates in index order. *)

val to_array : t -> int array
(** A fresh array copy of the contents. *)

val of_array : int array -> t
(** A vector holding a copy of the array. *)
