(** Exhaustive CQ → UCQ reformulation: the [Reformulate(q, db)] algorithm
    of [4]/[23] (Section 2.3).

    Starting from the incoming BGP query, the reformulation rules of
    {!Rules} are applied to a fixpoint; the result is the union of all
    derived CQs (the original query included), deduplicated up to renaming
    of non-distinguished variables.  Evaluating this union against the
    non-saturated database yields the complete answer set:
    [q(db∞) = q_ref(db)].

    Two implementations are provided:

    - {!reformulate_naive}: the textbook breadth-first fixpoint over whole
      CQs — the executable specification, used by the test suite;
    - the {!t} engine: an equivalent factorized evaluation that first
      closes the CQ under the class/property-variable instantiation rules
      (which substitute through the whole query) and then expands each atom
      by its atom-local closure, assembling the cartesian product.  This is
      what makes 300,000-term reformulations (LUBM Q28, Table 3) tractable,
      and it caches atom closures, which ECov/GCov request massively (one
      reformulation per candidate fragment per cover).  Whole-query
      reformulations are memoized one level up, by the schema-versioned
      tier of [Cache] — an engine is bound to one immutable schema and
      cannot know when a store update obsoletes it. *)

type t
(** A reformulation engine bound to one schema, with internal per-atom
    caches (closures and reformulation counts). *)

exception Too_large of { bound : int; limit : int }
(** Raised when a reformulation's size provably exceeds the engine's
    construction cap (e.g. DBLP Q10's ~1.9M-CQ union): real query engines
    likewise refuse such statements before executing them, and no profile
    in this library accepts a union anywhere near the cap. *)

val create : ?max_terms:int -> Rdf.Schema.t -> t
(** Engine for a schema.  [max_terms] (default 500,000) caps the size of
    any constructed union; {!reformulate} raises {!Too_large} beyond it. *)

val schema : t -> Rdf.Schema.t
(** The engine's schema. *)

val reformulate : t -> Query.Bgp.t -> Query.Ucq.t
(** [reformulate t q] is the UCQ reformulation of [q] w.r.t. the schema.
    @raise Rules.Unsupported_atom on out-of-fragment atoms. *)

val count : t -> Query.Bgp.t -> int
(** [|q_ref|]: number of union terms of the reformulation — the statistic
    reported for every query in Table 4. *)

val atom_count : t -> Query.Bgp.atom -> int
(** Number of reformulations of the single-atom query on this atom — the
    per-triple "#reformulations" column of Tables 1 and 3. *)

val count_product_bound : t -> Query.Bgp.t -> int
(** A cheap upper bound on [|q_ref|]: the product of the per-atom
    reformulation counts.  Exact whenever no class/property variable is
    shared between atoms and no two derived CQs are isomorphic — which
    holds for all the paper's evaluation queries — and an upper bound
    otherwise.  Saturates at [max_int] rather than overflowing.  Per-atom
    counts are memoized with the atom closures.  Used to refuse
    over-capacity unions without building them. *)

val reformulate_naive : Rdf.Schema.t -> Query.Bgp.t -> Query.Ucq.t
(** Reference breadth-first fixpoint (exponentially slower; tests only). *)

val answer_via_reformulation : Rdf.Graph.t -> Query.Bgp.t -> Rdf.Term.t list list
(** Reference reformulation-based query answering: reformulates against the
    graph's schema and evaluates the UCQ on the {e non-saturated} graph
    with the naive evaluator.  Equals [Bgp.answer g q] (tested). *)
