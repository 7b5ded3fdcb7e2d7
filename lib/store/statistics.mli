(** Data statistics and cardinality estimation.

    The cost model of Section 4.1 "relies on estimated cardinalities of
    various subqueries of the JUCQ"; GCov obtains "the statistics necessary
    for estimating the number of results of various fragments".  This
    module supplies them:

    - exact per-pattern triple counts, answered from the store's indexes;
    - number-of-distinct-values (NDV) statistics per property and position,
      and store-wide distinct counts per position — both maintained by the
      store itself on every insert and delete
      ({!Encoded_store.property_ndv}, {!Encoded_store.distinct}), so
      reading one is a table lookup and a fresh instance counts nothing;
    - textbook System-R estimation for conjunctive queries: the product of
      per-atom counts discounted by [1/max(ndv)] for every additional
      occurrence of a join variable;
    - UCQ estimates as the sum of the member CQ estimates (set semantics
      makes this an upper bound; duplicate ratios are workload-dependent
      and deliberately not modeled, as in the paper's simple cost model).

    CQ estimates are cached per statistics instance, keyed by the CQ's
    canonical form encoded one int per position — head arity, head terms,
    then each body atom's [s p o] — with constants as dictionary codes and
    variables (and constants absent from the dictionary) as negative ids
    from per-instance tables.  The key distinguishes exactly what the
    printed canonical form distinguishes.  The first computation under a
    key wins: a UCQ disjunct (already canonical) and a {!cq_cardinality}
    call on any CQ with that canonical form read the same cached value,
    whichever came first, even though each computes its estimate in its
    own atom order.  The cache tracks the store's
    {!Encoded_store.data_version} and flushes after updates, so a
    long-lived system keeps estimating correctly as data arrives. *)

type t

val create : Encoded_store.t -> t
(** Statistics bound to a store.  Creation is O(1): distinct counts are
    read from the store, which keeps them current, and the CQ-estimate
    cache starts empty.  When the store's {!Encoded_store.data_version}
    moves, that cache is flushed on the next estimate; schema-only changes
    flush nothing. *)

val store : t -> Encoded_store.t
(** The underlying store. *)

val atom_count : t -> Query.Bgp.atom -> int
(** Exact number of triples matching one atom (variables as wildcards;
    repeated variables within the atom are filtered exactly). *)

val ndv : t -> prop:int -> [ `Subject | `Object ] -> int
(** Number of distinct subject (resp. object) codes among the triples with
    the given property code, at least 1: {!Encoded_store.property_ndv}. *)

val global_distinct : t -> [ `Subject | `Property | `Object ] -> int
(** Store-wide number of distinct codes in a triple position, at least 1:
    {!Encoded_store.distinct}. *)

val cq_cardinality : t -> Query.Bgp.t -> float
(** Estimated number of answers of a CQ (before head projection /
    duplicate elimination). *)

val ucq_cardinality : t -> Query.Ucq.t -> float
(** Estimated number of answers of a UCQ: sum of the member estimates. *)

val ucq_volume_and_cardinality : t -> Query.Ucq.t -> float * float
(** [(volume, cardinality)] of a UCQ in one pass that counts each atom
    once: [volume] is [Σ_{cq} Σ_{t_i} |cq_(t_i)|], the sum of the
    disjuncts' {!atom_count}s, and [cardinality] is {!ucq_cardinality}. *)
