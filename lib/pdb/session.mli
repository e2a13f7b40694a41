(** An incremental compilation session: one sentence's lineage, kept as
    a live BDD while its fact alphabet grows.

    The core {!Anytime} (a deepening truncation prefix) and
    {!Delta_eval} (a mutating table) share:

    - one {!Bdd.manager} for the session's lifetime, with variables
      ordered newest-first, so facts added later sit closer to the root:
      joining fresh lineage builds nodes above the old root, and even a
      full recompilation replays against warm unique and operation
      caches;
    - a grow-only alphabet (variable [i] is the [i]-th fact ever added)
      and evaluation domain: the query's constants, every value of an
      alphabet fact, and the {!Padding} values of Proposition 6.1;
    - {!extend}: when the sentence is a quantifier chain [Q x1...xk. psi]
      over a quantifier-free matrix and every new fact names a value
      outside the old domain, only the ground instances that mention a
      fresh value are compiled and disjoined (conjoined) onto the root.
      Otherwise a new fact could turn an old ground atom — compiled to
      [False] — into a variable, and the lineage is recompiled;
    - a fact that names a padding value turns it live: the padding is
      re-chosen and the lineage recompiled;
    - the session root is always protected against the manager's GC,
      and a new root is published protect-then-release.

    The weights and the model count stay with the caller. *)

type t

val create :
  ?tick:(unit -> unit) ->
  ?on_free:(int -> unit) ->
  ?cache_size:int ->
  ?gc_threshold:int ->
  Fact.t list ->
  Fo.t ->
  t
(** Compile [phi] over the alphabet [facts] in a fresh manager.  [tick],
    [on_free], [cache_size] and [gc_threshold] configure the manager
    (see {!Bdd.manager}); [tick] may raise out of this and every later
    compilation, which then leaves the session as it was. *)

val query : t -> Fo.t
val manager : t -> Bdd.manager

val root : t -> Bdd.t
(** The lineage of the query over the current alphabet and domain. *)

val alphabet : t -> Lineage.alphabet

val padding : t -> Value.t list
(** The current inert padding values ([[]] for a [Cmp] query). *)

val gc_seen : t -> bool
(** Whether a collection freed nodes since the last {!clear_gc_seen}:
    node indices may have been reused, so per-node memos are stale. *)

val clear_gc_seen : t -> unit

type growth =
  | Joined  (** fresh ground instances joined at the root *)
  | Recompiled  (** full recompilation in the session's manager *)

val extend : t -> Fact.t list -> growth
(** Append facts absent from the alphabet and bring the root up to date
    ([Joined] without work on [[]]). *)

val rebind : t -> Fact.t list -> unit
(** Replace the alphabet by [facts] and the domain by exactly the
    query's constants and their values, then recompile: the active
    domain of a table that can also shrink, for [Cmp] queries. *)
