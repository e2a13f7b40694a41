module VSet = Set.Make (Value)

type chain_kind = Ch_exists | Ch_forall

(* [Chain (kind, xs, matrix)]: the sentence is [Q xs. matrix] with a
   quantifier-free matrix and pairwise-distinct bound names (shadowed
   names would make the tuple/binding correspondence ambiguous). *)
type shape =
  | Chain of chain_kind * string list * Fo.t
  | Opaque

let shape_of phi =
  let rec strip kind acc = function
    | Fo.Exists (x, f) when kind = Ch_exists -> strip kind (x :: acc) f
    | Fo.Forall (x, f) when kind = Ch_forall -> strip kind (x :: acc) f
    | f -> (List.rev acc, f)
  in
  let chain kind =
    let xs, matrix = strip kind [] phi in
    if
      Fo.is_quantifier_free matrix
      && List.length xs = List.length (List.sort_uniq String.compare xs)
    then Chain (kind, xs, matrix)
    else Opaque
  in
  match phi with
  | Fo.Exists _ -> chain Ch_exists
  | Fo.Forall _ -> chain Ch_forall
  | _ -> if Fo.is_quantifier_free phi then Chain (Ch_exists, [], phi) else Opaque

(* All k-tuples over [dom] using at least one value outside [old_dom] —
   the ground instances the previous diagram could not mention. *)
let fresh_tuples k dom old_dom =
  let rec go k =
    if k = 0 then Seq.return ([], false)
    else
      Seq.concat_map
        (fun (rest, has_fresh) ->
          Seq.map
            (fun v -> (v :: rest, has_fresh || not (VSet.mem v old_dom)))
            (List.to_seq dom))
        (go (k - 1))
  in
  Seq.filter_map
    (fun (vals, has_fresh) -> if has_fresh then Some vals else None)
    (go k)

let adom_union acc facts =
  List.fold_left
    (fun acc f -> Array.fold_left (fun acc v -> VSet.add v acc) acc f.Fact.args)
    acc facts

type t = {
  phi : Fo.t;
  shape : shape;
  pad_count : int;
  mgr : Bdd.manager;
  gc_seen : bool ref;  (* set by the manager's on_free hook *)
  mutable facts_rev : Fact.t list;  (* the alphabet, newest first *)
  mutable alpha : Lineage.alphabet;
  mutable adom : VSet.t;  (* constants ∪ values of the alphabet's facts *)
  mutable padding : VSet.t;
  mutable pad_attempt : int;  (* bumped when a fact names a padding value *)
  mutable root : Bdd.t;  (* always protected *)
}

let choose_padding t ~avoid ~attempt =
  let pads, attempt =
    Padding.choose ~avoid:(fun v -> VSet.mem v avoid) ~attempt t.pad_count
  in
  (VSet.of_list pads, attempt)

let compile t alpha padding =
  Bdd.of_expr t.mgr
    (Lineage.of_sentence ~extra:(VSet.elements padding) alpha t.phi)

(* Install a fully built state.  The root is published
   protect-then-release, so a GC between the two cannot sweep the
   incoming diagram; then the kernel is offered a collection, so dead
   garbage is reclaimed (and refunded to the [on_free] hook). *)
let commit t ~facts_rev ~alpha ~adom ~padding ~pad_attempt bdd =
  t.facts_rev <- facts_rev;
  t.alpha <- alpha;
  t.adom <- adom;
  t.padding <- padding;
  t.pad_attempt <- pad_attempt;
  if not (Bdd.equal bdd t.root) then begin
    Bdd.protect bdd;
    Bdd.release t.root;
    t.root <- bdd
  end;
  ignore (Bdd.maybe_gc t.mgr)

let create ?tick ?on_free ?cache_size ?(gc_threshold = 1 lsl 16) facts phi =
  let gc_seen = ref false in
  let on_free n =
    if n > 0 then gc_seen := true;
    Option.iter (fun f -> f n) on_free
  in
  let mgr =
    Bdd.manager ~order:(fun v -> -v) ?tick ~on_free ?cache_size ~gc_threshold ()
  in
  let t =
    {
      phi;
      shape = shape_of phi;
      pad_count = Padding.rank phi;
      mgr;
      gc_seen;
      facts_rev = [];
      alpha = Lineage.alphabet [];
      adom = VSet.of_list (Fo.constants phi);
      padding = VSet.empty;
      pad_attempt = 0;
      root = Bdd.fls mgr;
    }
  in
  let adom = adom_union t.adom facts in
  let padding, pad_attempt = choose_padding t ~avoid:adom ~attempt:0 in
  let alpha = Lineage.alphabet facts in
  commit t ~facts_rev:(List.rev facts) ~alpha ~adom ~padding ~pad_attempt
    (compile t alpha padding);
  t

let query t = t.phi
let manager t = t.mgr
let root t = t.root
let alphabet t = t.alpha
let padding t = VSet.elements t.padding
let gc_seen t = !(t.gc_seen)
let clear_gc_seen t = t.gc_seen := false

type growth = Joined | Recompiled

(* Every [of_expr] is a GC safe point, so the running accumulator is
   pinned join by join; the session root stays protected until the
   publish. *)
let delta_join t alpha kind xs matrix dom old_dom =
  let join = match kind with Ch_exists -> Bdd.disj | Ch_forall -> Bdd.conj in
  let acc = ref t.root in
  Bdd.protect !acc;
  Fun.protect
    ~finally:(fun () -> Bdd.release !acc)
    (fun () ->
      Seq.iter
        (fun vals ->
          let d =
            Bdd.of_expr t.mgr (Lineage.of_formula alpha (List.combine xs vals) matrix)
          in
          let joined = join t.mgr !acc d in
          Bdd.protect joined;
          Bdd.release !acc;
          acc := joined)
        (fresh_tuples (List.length xs) (VSet.elements dom) old_dom);
      !acc)

let extend t facts =
  if facts = [] then Joined
  else begin
    let old_dom = VSet.union t.adom t.padding in
    let adom = adom_union t.adom facts in
    let touches_padding =
      List.exists
        (fun f -> Array.exists (fun v -> VSet.mem v t.padding) f.Fact.args)
        facts
    in
    let padding, pad_attempt =
      if touches_padding then
        choose_padding t ~avoid:adom ~attempt:(t.pad_attempt + 1)
      else (t.padding, t.pad_attempt)
    in
    let facts_rev = List.rev_append facts t.facts_rev in
    let alpha = Lineage.alphabet (List.rev facts_rev) in
    let joinable =
      (not touches_padding)
      && List.for_all
           (fun f -> Array.exists (fun v -> not (VSet.mem v old_dom)) f.Fact.args)
           facts
    in
    let bdd, growth =
      match t.shape with
      | Chain (kind, xs, matrix) when joinable ->
        (delta_join t alpha kind xs matrix (VSet.union adom padding) old_dom, Joined)
      | _ -> (compile t alpha padding, Recompiled)
    in
    commit t ~facts_rev ~alpha ~adom ~padding ~pad_attempt bdd;
    growth
  end

let rebind t facts =
  let adom = adom_union (VSet.of_list (Fo.constants t.phi)) facts in
  let padding, pad_attempt =
    if VSet.exists (fun v -> VSet.mem v adom) t.padding then
      choose_padding t ~avoid:adom ~attempt:(t.pad_attempt + 1)
    else (t.padding, t.pad_attempt)
  in
  let alpha = Lineage.alphabet facts in
  commit t ~facts_rev:(List.rev facts) ~alpha ~adom ~padding ~pad_attempt
    (compile t alpha padding)
