type result = {
  estimate : Rational.t;
  eps : float;
  n_used : int;
  tail_mass : float;
  omega_n_bounds : Interval.t;
  bounds : Interval.t;
}

(* The truncation point needs alpha_n = (3/2) * tail(n) to satisfy both
   e^{alpha_n} <= 1 + eps and e^{-alpha_n} >= 1 - eps; the binding
   constraint is alpha_n <= ln(1 + eps) (smaller than -ln(1 - eps)).
   Claim (∗) additionally needs every truncated probability below 1/2,
   which tail(n) <= ln(1+eps)*2/3 < 1/2 already implies for eps < 1/2. *)
let required_tail eps = 2.0 /. 3.0 *. log1p eps

let check_eps eps =
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Approx_eval: eps must lie in (0, 1/2)"

let truncation_point ?max_n src ~eps =
  check_eps eps;
  Fact_source.prefix_for_tail ?max_n src (required_tail eps)

(* The truncation search returns both n and the certified tail bound it
   observed there; threading the value through (instead of re-asking the
   certificate afterwards) is what keeps [result.tail_mass] meaningful
   even for certificates whose answers depend on mutable scan state. *)
let truncate_or_fail ?max_n src ~eps =
  check_eps eps;
  match Fact_source.truncation ?max_n src (required_tail eps) with
  | Some nt -> nt
  | None ->
    if not (Fact_source.converges ?max_n src) then
      invalid_arg
        (Printf.sprintf
           "Approx_eval: source %s diverges; no tuple-independent PDB exists \
            (Theorem 4.8), nothing to approximate"
           (Fact_source.name src))
    else
      invalid_arg
        (Printf.sprintf
           "Approx_eval: source %s converges too slowly: no adequate \
            truncation below the bound (cf. the closing remark of Section 6)"
           (Fact_source.name src))

(* The truncated table stands in for the countable limit space, so
   quantifiers must not be decided on the accidentally small truncated
   domain: a universal sentence that happens to hold on the prefix's
   active domain can be false on every deeper truncation.  {!Padding}
   extends the evaluation domain with inert values, making each world's
   truth value stable under further truncation (the r-equivalence
   device of Proposition 6.1); {!Anytime} applies the same device
   incrementally.  [Cmp] queries are evaluated unpadded. *)
let padding table phi = Padding.for_query (Ti_table.support table) phi

(* P(Omega_n) = prod_{i>=n} (1 - p_i): none of the truncated facts
   occurs.  Lower bound from claim (∗), upper bound trivially 1 minus
   nothing (each factor <= 1). *)
let omega_bounds_of_tail t =
  if t < 0.5 then Interval.make (exp (-1.5 *. t)) 1.0
  else Interval.make 0.0 1.0

let enclosure_interval pf om =
  let lower = Interval.mul pf om in
  Interval.clamp01
    (Interval.make (Interval.lo lower)
       (Interval.hi (Interval.add lower (Interval.compl om))))

let enclosure p om = enclosure_interval (Prob.Interval_carrier.of_rational p) om

let boolean ?max_n src ~eps phi =
  let n, tail = truncate_or_fail ?max_n src ~eps in
  let table = Fact_source.truncate src n in
  (* If the enumeration turned out to end at or before n, the tail is
     exactly 0 — sharper than whatever the certificate promised, and it
     keeps nan out of [result] on sources whose certificate cannot answer
     again after the search. *)
  let tail =
    match Fact_source.tail_mass src n with Some t -> Float.min t tail | None -> tail
  in
  let p = Query_eval.boolean ~extra_domain:(padding table phi) table phi in
  let om = omega_bounds_of_tail tail in
  {
    estimate = p;
    eps;
    n_used = n;
    tail_mass = tail;
    omega_n_bounds = om;
    bounds = enclosure p om;
  }

(* ------------------------------------------------------------------ *)
(* Result-returning entry points (structured errors, budgets) *)
(* ------------------------------------------------------------------ *)

let fact_source_default_max_n = 1 lsl 20 (* = Fact_source's default *)

let truncation_r ?max_n src ~eps =
  let what = "Approx_eval(" ^ Fact_source.name src ^ ")" in
  match
    Errors.protect ~what (fun () ->
        check_eps eps;
        let r = Fact_source.truncation ?max_n src (required_tail eps) in
        let converged = r <> None || Fact_source.converges ?max_n src in
        (r, converged))
  with
  | Error e -> Error e
  | Ok (Some nt, _) -> Ok nt
  | Ok (None, converged) ->
    let probed_to = Option.value max_n ~default:fact_source_default_max_n in
    if not converged then
      Error
        (Errors.Divergent_source { source = Fact_source.name src; probed_to })
    else begin
      (* The certificate exists but never drops below the bound within
         the probe budget: the "series may converge arbitrarily slowly"
         caveat of Section 6.  Recoverable: report the enclosure the
         deepest certified tail still implies. *)
      let partial =
        match Fact_source.tail_mass src probed_to with
        | Some t ->
          Some
            (enclosure_interval
               (Interval.make 0.0 1.0)
               (omega_bounds_of_tail t))
        | None | (exception _) -> None
      in
      Error
        (Errors.Budget_exhausted
           {
             what =
               what
               ^ ": no adequate truncation below max_n (source converges \
                  too slowly)";
             exhaustion = Budget.Cap Budget.Probes;
             partial;
           })
    end

let boolean_r ?max_n ?budget ?bdd_cache_size ?bdd_gc_threshold src ~eps phi =
  let src =
    match budget with Some b -> Fact_source.with_budget b src | None -> src
  in
  let tick =
    Option.map (fun b () -> Budget.charge b Budget.Bdd_nodes 1) budget
  in
  (* The inverse hook: nodes reclaimed by the kernel's GC (enabled via
     [bdd_gc_threshold]) are refunded, so the [Bdd_nodes] cap governs
     live nodes rather than every node ever built. *)
  let on_free =
    Option.map (fun b n -> Budget.refund b Budget.Bdd_nodes n) budget
  in
  match truncation_r ?max_n src ~eps with
  | Error e -> Error e
  | Ok (n, tail) -> (
    let what = "Approx_eval(" ^ Fact_source.name src ^ ")" in
    match
      Errors.protect ~what (fun () ->
          let table = Fact_source.truncate src n in
          let tail =
            match Fact_source.tail_mass src n with
            | Some t -> Float.min t tail
            | None | (exception Budget.Exhausted _) -> tail
          in
          let p =
            Query_eval.boolean ~extra_domain:(padding table phi) ?tick
              ?on_free ?cache_size:bdd_cache_size
              ?gc_threshold:bdd_gc_threshold table phi
          in
          let om = omega_bounds_of_tail tail in
          {
            estimate = p;
            eps;
            n_used = n;
            tail_mass = tail;
            omega_n_bounds = om;
            bounds = enclosure p om;
          })
    with
    | Ok r -> Ok r
    | Error (Errors.Budget_exhausted { what; exhaustion; partial = _ }) ->
      (* The truncation point was certified before the budget ran out, so
         the trivial conditional enclosure at that tail is still sound —
         degrade with it instead of dropping to "no answer". *)
      let partial =
        Some
          (enclosure_interval
             (Interval.make 0.0 1.0)
             (omega_bounds_of_tail tail))
      in
      Error (Errors.Budget_exhausted { what; exhaustion; partial })
    | Error e -> Error e)

(* The lifted fast path: same truncation certificate, but the classical
   engine is the safe-plan UCQ evaluator instead of lineage + BDD.  No
   inert padding is needed — the lifted engine only answers for positive
   existential UCQs, which cannot distinguish the truncated domain from
   any inert extension, so its answer already is the limit-semantics
   conditional probability.  Plan-rule applications are charged as
   [Steps], the cancellation hook of the robust ladder. *)
let boolean_lifted_r ?max_n ?budget src ~eps phi =
  let src =
    match budget with Some b -> Fact_source.with_budget b src | None -> src
  in
  let step = Option.map (fun b () -> Budget.charge b Budget.Steps 1) budget in
  match truncation_r ?max_n src ~eps with
  | Error e -> Error e
  | Ok (n, tail) -> (
    let what = "Approx_eval.lifted(" ^ Fact_source.name src ^ ")" in
    match
      Errors.protect ~what (fun () ->
          let table = Fact_source.truncate src n in
          let tail =
            match Fact_source.tail_mass src n with
            | Some t -> Float.min t tail
            | None | (exception Budget.Exhausted _) -> tail
          in
          match Query_eval.boolean_safe ?step table phi with
          | None -> `Unsafe
          | Some p ->
            let om = omega_bounds_of_tail tail in
            `Safe
              {
                estimate = p;
                eps;
                n_used = n;
                tail_mass = tail;
                omega_n_bounds = om;
                bounds = enclosure p om;
              })
    with
    | Ok (`Safe r) -> Ok r
    | Ok `Unsafe ->
      (* A query property, not a transient fault: the dichotomy routed
         this query to the grounded engines. *)
      Error
        (Errors.Model_invalid
           {
             what;
             msg =
               "query has no polynomial-time lifted plan (hard side of the \
                dichotomy); use a grounded engine";
           })
    | Error (Errors.Budget_exhausted { what; exhaustion; partial = _ }) ->
      let partial =
        Some
          (enclosure_interval
             (Interval.make 0.0 1.0)
             (omega_bounds_of_tail tail))
      in
      Error (Errors.Budget_exhausted { what; exhaustion; partial })
    | Error e -> Error e)

let marginals ?max_n src ~eps phi =
  let n, _ = truncate_or_fail ?max_n src ~eps in
  let table = Fact_source.truncate src n in
  Query_eval.marginals table phi

(* ------------------------------------------------------------------ *)
(* Proposition 6.2 witness *)
(* ------------------------------------------------------------------ *)

let prop62_witness ~first_acceptance ~horizon =
  if first_acceptance < 1 || horizon < first_acceptance then
    invalid_arg "Approx_eval.prop62_witness";
  let fact k =
    let rel = if k = first_acceptance then "R" else "S" in
    (Fact.make rel [ Value.Int k ], Rational.pow Rational.half k)
  in
  let entries = List.init horizon (fun i -> fact (i + 1)) in
  Fact_source.of_list
    ~name:(Printf.sprintf "prop62(t0=%d)" first_acceptance)
    entries
