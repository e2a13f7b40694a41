(* Incremental anytime evaluation: deepen the truncation prefix of
   Proposition 6.1 step by step, reusing lineage/BDD work across steps
   instead of recompiling from scratch at each precision level.  The
   reuse — one warm newest-first manager, a grow-only alphabet in which
   variable [i] is the [i]-th enumerated fact, delta-joins of the fresh
   ground instances of a quantifier chain — is {!Session}'s; this module
   pulls prefixes, certifies tails and narrows the enclosure.

   Certification across steps needs care: the classical engines evaluate
   over the active domain of the truncated table, and that semantics
   *moves* as the prefix deepens — over a 1-element domain
   [exists x. R(x) & !(forall y. R(y))] is identically false, so its
   step-1 enclosure says nothing about the limit and must not be
   intersected with later ones.  The session therefore evaluates every
   step over the prefix domain padded with {!Padding.rank} fresh inert
   values, realizing the r-equivalence argument behind Proposition 6.1:
   a world whose support lies inside the prefix evaluates identically
   over every larger domain.  Every per-step enclosure then bounds the
   same limit probability, so intersecting them — the
   monotone-narrowing interval we report — is sound.  The one query
   feature that breaks interchangeability is the built-in order [Cmp]:
   such queries are evaluated unpadded, over each prefix's truncated
   semantics (as {!Approx_eval} does), and we skip the intersection and
   report each step's enclosure of its own truncated-semantics value. *)

(* Per-step model counts use the certified interval carrier, not exact
   rationals: on slowly-decaying sources the prefix probabilities have
   pairwise-coprime denominators, so exact WMC costs a huge-integer gcd
   per BDD node and goes cubic in the prefix length — fatal for an engine
   whose whole point is cheap re-evaluation at every depth.  Outward
   rounding keeps every emitted enclosure sound. *)
module W = Wmc.Make (Prob.Interval_carrier)

let c_steps = Stats.counter "anytime.steps"
let c_delta = Stats.counter "anytime.delta_steps"
let c_recompile = Stats.counter "anytime.recompile_steps"
let step_timer = Stats.timer "anytime.step"

type stop_reason =
  | Converged
  | Exhausted
  | Step_budget
  | Node_budget
  | Prefix_budget
  | Interrupted of Budget.exhaustion

let stop_reason_to_string = function
  | Converged -> "converged"
  | Exhausted -> "exhausted"
  | Step_budget -> "step budget"
  | Node_budget -> "node budget"
  | Prefix_budget -> "prefix budget"
  | Interrupted e -> "interrupted (" ^ Budget.exhaustion_to_string e ^ ")"

type step = {
  index : int;
  n : int;
  tail : float option;
  estimate : Interval.t;
  bounds : Interval.t;
  width : float;
  bdd_size : int;
  incremental : bool;
  stats : Stats.snapshot;
}

type t = {
  src : Fact_source.t;
  budget : Budget.t option;
  core : Session.t;  (* lineage of phi over the facts pulled so far *)
  intersectable : bool;  (* Cmp-free: padded enclosures share one limit *)
  eps : float;
  max_n : int;
  max_steps : int;
  max_nodes : int;
  growth : int -> int;
  mutable n : int;  (* current truncation depth *)
  mutable best_tail : float option;  (* min certified tail seen so far *)
  mutable bounds : Interval.t;  (* running enclosure *)
  mutable steps_rev : step list;
  mutable stopped : stop_reason option;
}

let create ?(eps = 0.01) ?(max_n = 1 lsl 20) ?(max_steps = 64)
    ?(max_nodes = max_int) ?growth ?budget ?cache_size ?gc_threshold src phi =
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Anytime: eps must lie in (0, 1/2)";
  if Fo.free_vars phi <> [] then
    invalid_arg "Anytime: query must be a sentence";
  let growth =
    match growth with
    | Some g -> fun n -> Stdlib.max (n + 1) (g n)
    | None -> fun n -> Stdlib.max (n + 1) (2 * n)
  in
  (* Under a budget, source accesses are charged (Facts/Probes) through
     the wrapper and every fresh BDD node charges one Bdd_nodes unit;
     either may raise [Budget.Exhausted] mid-step, which [step] converts
     into an [Interrupted] stop with the last completed step's bounds
     still standing. *)
  let src =
    match budget with Some b -> Fact_source.with_budget b src | None -> src
  in
  let tick =
    Option.map (fun b () -> Budget.charge b Budget.Bdd_nodes 1) budget
  in
  (* Nodes the kernel's GC reclaims are refunded, so the Bdd_nodes cap
     governs the live diagram, not every node the session ever built. *)
  let on_free =
    Option.map (fun b n -> Budget.refund b Budget.Bdd_nodes n) budget
  in
  {
    src;
    budget;
    (* Depth-0 lineage: empty alphabet, domain = constants ∪ padding.
       Every atom compiles to [False] there (no node is allocated, so no
       budget is charged), which settles e.g. a universal sentence to its
       padded (stable) value rather than the vacuous empty-domain
       [True]. *)
    core = Session.create ?tick ?on_free ?cache_size ?gc_threshold [] phi;
    intersectable = not (Fo.has_cmp phi);
    eps;
    max_n;
    max_steps;
    max_nodes;
    growth;
    n = 0;
    best_tail = None;
    bounds = Interval.make 0.0 1.0;
    steps_rev = [];
    stopped = None;
  }

let eps t = t.eps
let current_n t = t.n
let history t = List.rev t.steps_rev
let last_step t = match t.steps_rev with [] -> None | s :: _ -> Some s
let stop_reason t = t.stopped
let node_count t = Bdd.node_count (Session.manager t.core)
let allocated_nodes t = Bdd.allocated_count (Session.manager t.core)
let bounds t = t.bounds

(* The body of one deepening step; mutates [t] and returns the data the
   step record needs.  The session grows first (publishing its new
   root); [t.n] and [t.bounds] only move once the step has completed. *)
let advance t =
  let target = Stdlib.min t.max_n (t.growth t.n) in
  let prefix = Fact_source.prefix t.src target in
  let n' = List.length prefix in
  let delta_facts = List.filteri (fun i _ -> i >= t.n) (List.map fst prefix) in
  let incremental =
    delta_facts = []
    ||
    match Session.extend t.core delta_facts with
    | Session.Joined ->
      Stats.incr c_delta;
      true
    | Session.Recompiled ->
      Stats.incr c_recompile;
      false
  in
  let bdd' = Session.root t.core in
  let probs = Array.of_list (List.map snd prefix) in
  let estimate =
    W.probability
      ~weight:(fun v -> Prob.Interval_carrier.of_rational probs.(v))
      bdd'
  in
  let tail_now = Fact_source.tail_mass t.src n' in
  let best =
    match (t.best_tail, tail_now) with
    | Some a, Some b -> Some (Float.min a b)
    | (Some _ as a), None -> a
    | None, b -> b
  in
  let fresh_bounds =
    match best with
    | Some tl ->
      Approx_eval.enclosure_interval estimate
        (Approx_eval.omega_bounds_of_tail tl)
    | None -> Interval.make 0.0 1.0
  in
  let bounds =
    if not t.intersectable then fresh_bounds
    else
      (* Padded enclosures all bound the same limit probability, so the
         intersection is sound.  (An empty intersection would witness an
         unsound tail certificate; keep the old interval then.) *)
      match Interval.intersect fresh_bounds t.bounds with
      | Some b -> b
      | None -> t.bounds
  in
  let exhausted = n' < target in
  t.n <- n';
  t.best_tail <- best;
  t.bounds <- bounds;
  (estimate, best, bounds, Bdd.size bdd', incremental, exhausted)

let step t =
  match t.stopped with
  | Some _ -> None
  | None when
      (match t.budget with
      | Some b ->
        Budget.spend b Budget.Steps 1;
        not (Budget.ok b)
      | None -> false) ->
    (* The budget tripped between steps (deadline, step cap, or an
       ancestor): stop cleanly; the running bounds keep their last
       certified value. *)
    (match t.budget with
    | Some b ->
      t.stopped <-
        Some (Interrupted (Option.value (Budget.exhausted b) ~default:Budget.Cancelled))
    | None -> assert false);
    None
  | None ->
    Stats.incr c_steps;
    let before = Stats.snapshot () in
    match Stats.time step_timer (fun () -> advance t) with
    | exception Budget.Exhausted e ->
      (* Cooperative cancellation fired inside the step (a source pull,
         tail probe, or BDD allocation).  The partially advanced state is
         not published: [t.n] and [t.bounds] still hold the last
         completed step, so the session's enclosure remains certified. *)
      t.stopped <- Some (Interrupted e);
      None
    | estimate, tail, bounds, bdd_size, incremental, exhausted ->
    let stats = Stats.diff (Stats.snapshot ()) before in
    let index = List.length t.steps_rev + 1 in
    let width = Interval.width bounds in
    let st =
      {
        index;
        n = t.n;
        tail;
        estimate;
        bounds;
        width;
        bdd_size;
        incremental;
        stats;
      }
    in
    t.steps_rev <- st :: t.steps_rev;
    t.stopped <-
      (if width <= 2.0 *. t.eps then Some Converged
       else if exhausted then Some Exhausted
       else if t.n >= t.max_n then Some Prefix_budget
       else if index >= t.max_steps then Some Step_budget
       else if node_count t >= t.max_nodes then Some Node_budget
       else None);
    Some st

let run t =
  let rec go () = match step t with Some _ -> go () | None -> () in
  go ();
  (Option.get t.stopped, history t)
