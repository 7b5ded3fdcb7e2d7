(** The space of BGP query covers (Section 3).

    The cover-based reformulation space is bounded above by the number of
    minimal covers of an [n]-set, which "grows rapidly": 1 for n = 1, 49
    for n = 4, 462 for n = 5, 6424 for n = 6 (OEIS A046165).  In practice
    the space is smaller because every fragment must join with another and
    (as this library additionally requires) be internally connected, but
    exhaustive exploration is still infeasible on large queries — DBLP's
    10-atom Q10 times out in the paper's experiments (Figure 8), and ECov
    accepts a budget for exactly that reason. *)

val minimal_cover_counts : int -> int
(** [minimal_cover_counts n] is the number of minimal covers of an [n]-set
    (the paper's upper bound on the space size), for [1 <= n <= 8]. *)

val connected_fragments : Query.Bgp.t -> Query.Jucq.fragment list
(** All internally connected, non-empty subsets of the query's atoms —
    the candidate fragments. *)

val now_ms : unit -> float
(** Wall-clock milliseconds ([Unix.gettimeofday]): the one clock every
    search budget, [elapsed_ms] and [planning_ms] is measured with. *)

type budget = {
  max_covers : int;    (** stop after enumerating this many covers *)
  max_millis : float;  (** wall-clock budget in milliseconds *)
}

val default_budget : budget
(** 200,000 covers / 30 s: ample for the paper's query sizes, finite on
    pathological ones. *)

type enumeration = {
  covers : Query.Jucq.cover list;  (** valid covers, in discovery order *)
  complete : bool;                 (** false if a budget tripped *)
}

val enumerate : ?budget:budget -> Query.Bgp.t -> enumeration
(** Enumerates the valid covers of a query: minimal covers by internally
    connected fragments, pairwise joinable (every cover satisfies
    {!Query.Jucq.check_cover}). *)
