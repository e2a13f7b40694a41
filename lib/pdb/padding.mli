(** Inert padding: the r-equivalence device of Proposition 6.1.

    A truncation stands in for the countable limit space, so quantifiers
    must not be decided on the accidentally small truncated domain.
    Extending the evaluation domain with [quantifier_rank phi] {e inert}
    values — occurring in no fact and distinct from the query's
    constants — makes every world's truth value the one it has over
    every larger domain: inert values satisfy no relation atom, are
    pairwise interchangeable, and [r] quantifier rounds can tell at most
    [r] of them apart.  The built-in order [Cmp] can distinguish inert
    values, so comparison queries take no padding and keep the truncated
    semantics.

    Every engine takes its padding from here: one rule for the count,
    one namespace for the values.  (The enumeration oracle and the
    fuzzer keep their own, as the independent reference.) *)

val rank : Fo.t -> int
(** The number of inert values [phi] needs: [0] for a query with a
    [Cmp] atom, [Fo.quantifier_rank phi] otherwise. *)

val candidate : attempt:int -> int -> Value.t
(** [candidate ~attempt i]: the [i]-th padding value of choice number
    [attempt].  Distinct [(attempt, i)] pairs give distinct values. *)

val choose : avoid:(Value.t -> bool) -> attempt:int -> int -> Value.t list * int
(** [choose ~avoid ~attempt k]: the [k] candidates of the first choice
    number [>= attempt] none of which satisfies [avoid], with that
    number (to pass [attempt + 1] when a later fact names one of them).
    [([], attempt)] when [k = 0]. *)

val for_queries : ?extra:Value.t list -> Fact.t list -> Fo.t array -> Value.t list
(** [for_queries facts qs]: inert values avoiding every argument of
    [facts], every constant of [qs] and [extra], as many as the maximum
    {!rank} over [qs] — any [k >= rank phi] inert values decide [phi]
    exactly as [rank phi] do, so one padding serves a whole batch.
    [[]] when no member needs padding. *)

val for_query : Fact.t list -> Fo.t -> Value.t list
(** [for_queries facts [| phi |]]. *)
