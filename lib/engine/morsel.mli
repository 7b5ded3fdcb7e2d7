(** Morsel-driven execution helpers: hash partitioning and partitioned
    duplicate elimination with a deterministic ordered merge.

    Used by the executor's parallel operators; results are bit-identical
    to the sequential counterparts at every pool width, partition count
    and morsel size. *)

val partition_of : width:int -> parts:int -> int array -> int -> int
(** [partition_of ~width ~parts data off] is the partition id (in
    [0 .. parts-1]) of the [width]-wide key slice at [data.(off) ..],
    derived from {!Rowtable.hash_slice} — a pure function of the key
    words, so equal keys always share a partition. *)

val dedup : Par.t -> morsel:int -> Relation.t -> Relation.t
(** [dedup pool ~morsel rel] eliminates duplicate rows preserving first
    occurrences — exactly [Relation.dedup rel], computed in parallel when
    profitable: each worker keeps the first occurrences of the keys
    hashing to its partition (recording original row indexes), and the
    per-partition survivors are merged by ascending original index.
    Falls back to {!Relation.dedup} when the pool is sequential or busy,
    the relation has no columns, or it has at most [morsel] rows.
    Performs no budget charging either way. *)
