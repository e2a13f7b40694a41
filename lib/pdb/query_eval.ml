type mc_result = {
  estimate : float;
  std_error : float;
  samples : int;
}

let require_sentence phi =
  match Fo.free_vars phi with
  | [] -> ()
  | fvs ->
    invalid_arg
      (Printf.sprintf "Query_eval: query has free variables %s"
         (String.concat ", " (fvs : string list)))

(* The shared evaluation domain: active domain of the table's support plus
   the query's constants. *)
let eval_domain_ti ti phi =
  Fo_eval.evaluation_domain
    (Instance.of_list (Ti_table.support ti))
    phi []

let alphabet_of_ti ti = Lineage.alphabet (Ti_table.support ti)

let c_safe_plan = Stats.counter "query.safe_plan"
let c_bdd_fallback = Stats.counter "query.bdd_fallback"

module Make (C : Prob.CARRIER) = struct
  let weight_of_table ti f = C.of_rational (Ti_table.prob ti f)

  let boolean_bdd ?(extra_domain = []) ?tick ?on_free ?cache_size ?gc_threshold
      ti phi =
    require_sentence phi;
    let a = alphabet_of_ti ti in
    let lin = Lineage.of_sentence ~extra:extra_domain a phi in
    let module W = Wmc.Make (C) in
    W.probability_expr ?tick ?on_free ?cache_size ?gc_threshold
      ~weight:(fun v -> weight_of_table ti (Lineage.fact_of_var a v))
      lin

  let boolean_safe ?step ti phi =
    require_sentence phi;
    let module S = Safe_plan.Make (C) in
    S.probability ?step
      ~weight:(weight_of_table ti)
      ~facts:(Ti_table.support ti)
      phi

  let boolean ?(extra_domain = []) ?tick ?on_free ?cache_size ?gc_threshold ti
      phi =
    (* Dichotomy-aware routing: the lifted UCQ engine first, lineage +
       BDD for everything it rejects.  A safe plan quantifies over the
       values occurring in facts; an extension by inert values (occurring
       in no fact and not among the query's constants) cannot change the
       truth of a positive existential UCQ on any world, so the plan's
       answer is the padded answer and the fast path stays valid. *)
    match boolean_safe ti phi with
    | Some p ->
      Stats.incr c_safe_plan;
      p
    | None ->
      Stats.incr c_bdd_fallback;
      boolean_bdd ~extra_domain ?tick ?on_free ?cache_size ?gc_threshold ti phi
end

module Exact = Make (Prob.Rational_carrier)
module Fast = Make (Prob.Float_carrier)
module Certified = Make (Prob.Interval_carrier)

let boolean_enum ti phi =
  require_sentence phi;
  let domain = eval_domain_ti ti phi in
  Seq.fold_left
    (fun acc (inst, p) ->
      (* Evaluate against the fixed domain, not adom(world), so all
         engines share one semantics. *)
      let extra = List.filter (fun v ->
          not (List.exists (Value.equal v) (Instance.active_domain inst))) domain
      in
      if Fo_eval.models ~extra_domain:extra inst phi then Rational.add acc p
      else acc)
    Rational.zero (Ti_table.worlds ti)

let boolean_bdd_rational ti phi = Exact.boolean_bdd ti phi
let boolean_bdd_float ti phi = Fast.boolean_bdd ti phi
let boolean_bdd_interval ti phi = Certified.boolean_bdd ti phi
let boolean_safe ?step ti phi = Exact.boolean_safe ?step ti phi
let safe phi = Safe_plan.is_safe phi
let boolean = Exact.boolean

let boolean_mc ?(seed = 0xC0FFEE) ~samples ti phi =
  require_sentence phi;
  if samples <= 0 then invalid_arg "Query_eval.boolean_mc: samples <= 0";
  let g = Prng.create ~seed () in
  let domain = eval_domain_ti ti phi in
  let hits = ref 0 in
  for _ = 1 to samples do
    let world = Ti_table.sample ti g in
    let extra =
      List.filter
        (fun v -> not (List.exists (Value.equal v) (Instance.active_domain world)))
        domain
    in
    if Fo_eval.models ~extra_domain:extra world phi then incr hits
  done;
  let p = float_of_int !hits /. float_of_int samples in
  {
    estimate = p;
    std_error = sqrt (p *. (1.0 -. p) /. float_of_int samples);
    samples;
  }

let boolean_mc_adaptive ?seed ~eps ~delta ti phi =
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Query_eval.boolean_mc_adaptive: eps out of range";
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Query_eval.boolean_mc_adaptive: delta out of range";
  let samples =
    int_of_float (Float.ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))
  in
  boolean_mc ?seed ~samples:(Stdlib.max 1 samples) ti phi

let boolean_karp_luby ?seed ~samples ti phi =
  require_sentence phi;
  let a = alphabet_of_ti ti in
  let lin = Lineage.of_sentence a phi in
  match Dnf.of_expr lin with
  | None -> None
  | Some [] -> Some { estimate = 0.0; std_error = 0.0; samples }
  | Some dnf ->
    let weight v =
      Rational.to_float (Ti_table.prob ti (Lineage.fact_of_var a v))
    in
    let e = Dnf.karp_luby ?seed ~samples ~weight dnf in
    Some
      {
        estimate = e.Dnf.value;
        std_error = e.Dnf.std_error;
        samples = e.Dnf.samples;
      }

let boolean_finite pdb phi =
  require_sentence phi;
  let universe = Instance.of_list (Finite_pdb.fact_universe pdb) in
  let domain = Fo_eval.evaluation_domain universe phi [] in
  List.fold_left
    (fun acc (inst, p) ->
      let extra =
        List.filter
          (fun v -> not (List.exists (Value.equal v) (Instance.active_domain inst)))
          domain
      in
      if Fo_eval.models ~extra_domain:extra inst phi then Rational.add acc p
      else acc)
    Rational.zero (Finite_pdb.worlds pdb)

(* Enumerate candidate valuations of the free variables over the domain. *)
let valuations domain k =
  let rec go k =
    if k = 0 then Seq.return []
    else
      Seq.concat_map
        (fun rest -> Seq.map (fun v -> v :: rest) (List.to_seq domain))
        (go (k - 1))
  in
  Seq.map List.rev (go k)

let marginals ?cache_size ?gc_threshold ti phi =
  let prob_sentence s = boolean ?cache_size ?gc_threshold ti s in
  let fvs = Fo.free_vars phi in
  let k = List.length fvs in
  if k = 0 then begin
    let p = prob_sentence phi in
    if Rational.is_zero p then [] else [ ([||], p) ]
  end
  else if k > 3 then
    invalid_arg "Query_eval.marginals: more than 3 free variables"
  else
    valuations (eval_domain_ti ti phi) k
    |> Seq.filter_map (fun vals ->
           let bindings = List.combine fvs vals in
           let grounded = Fo.substitute bindings phi in
           let p = prob_sentence grounded in
           if Rational.is_zero p then None
           else Some (Array.of_list vals, p))
    |> List.of_seq
    |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)
