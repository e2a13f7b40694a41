module VSet = Set.Make (Value)
module ISet = Set.Make (Int)

type delta =
  | Insert of Fact.t * Rational.t
  | Delete of Fact.t
  | Reweight of Fact.t * Rational.t

let delta_fact = function Insert (f, _) | Delete f | Reweight (f, _) -> f

let delta_target = function
  | Insert (_, p) | Reweight (_, p) -> p
  | Delete _ -> Rational.zero

let delta_to_string = function
  | Insert (f, p) ->
    Printf.sprintf "insert %s %s" (Fact.to_string f) (Rational.to_string p)
  | Delete f -> Printf.sprintf "delete %s" (Fact.to_string f)
  | Reweight (f, p) ->
    Printf.sprintf "reweight %s %s" (Fact.to_string f) (Rational.to_string p)

let delta_of_string s =
  let s = String.trim s in
  let fail () = invalid_arg ("Delta_eval.delta_of_string: " ^ s) in
  match String.index_opt s ' ' with
  | None -> fail ()
  | Some i ->
    let op = String.sub s 0 i in
    let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
    (* The probability is the last space-separated token; the fact text
       (which itself contains ", " between arguments) is everything
       before it. *)
    let fact_and_prob () =
      match String.rindex_opt rest ' ' with
      | None -> fail ()
      | Some j ->
        let fs = String.trim (String.sub rest 0 j) in
        let ps = String.sub rest (j + 1) (String.length rest - j - 1) in
        (Fact.of_string fs, Rational.of_string ps)
    in
    (match op with
    | "insert" ->
      let f, p = fact_and_prob () in
      Insert (f, p)
    | "delete" -> Delete (Fact.of_string rest)
    | "reweight" ->
      let f, p = fact_and_prob () in
      Reweight (f, p)
    | _ -> fail ())

let check_target d =
  let p = delta_target d in
  try Prob.check_probability_rational p
  with Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf "Delta_eval: marginal %s outside [0,1] in %s"
         (Rational.to_string p) (delta_to_string d))

let apply_table tbl d =
  let f = delta_fact d in
  let p = check_target d in
  if Rational.is_zero p then Ti_table.remove tbl f else Ti_table.add tbl f p

let inverse_of tbl d =
  let f = delta_fact d in
  let w = Ti_table.prob tbl f in
  if Rational.is_zero w then Delete f else Reweight (f, w)

type apply_kind = Noop | Patched | Extended | Recompiled

let apply_kind_to_string = function
  | Noop -> "noop"
  | Patched -> "patched"
  | Extended -> "extended"
  | Recompiled -> "recompiled"

let c_noop = Stats.counter "delta.apply.noop"
let c_patched = Stats.counter "delta.apply.patched"
let c_extended = Stats.counter "delta.apply.extended"
let c_recompiled = Stats.counter "delta.apply.recompiled"
let c_folds = Stats.counter "delta.wmc.folds"
let c_fold_nodes = Stats.counter "delta.wmc.nodes_recomputed"

(* -------------------- TI sessions -------------------- *)

module Make (C : Prob.CARRIER) = struct
  type t = {
    core : Session.t;  (* lineage, alphabet, domain and padding *)
    cmp_free : bool;
    tail : float;
    memo : C.t Bdd.prob_memo;
    mutable tbl : Ti_table.t;
    mutable weights : C.t array;  (* variable -> current marginal *)
    mutable dirty : ISet.t;  (* weight-patched vars since last fold *)
    mutable memo_valid : bool;  (* false after a variable rebind *)
    mutable cached : C.t option;
    mutable epoch : int;
  }

  let weight_of p = C.of_rational p

  let rebuild_weights t =
    let alpha = Session.alphabet t.core in
    t.weights <-
      Array.init (Lineage.alphabet_size alpha) (fun v ->
          weight_of (Ti_table.prob t.tbl (Lineage.fact_of_var alpha v)))

  let create ?(tail = 0.0) ?cache_size ?gc_threshold tbl phi =
    if Fo.free_vars phi <> [] then
      invalid_arg "Delta_eval: query must be a sentence";
    if not (tail >= 0.0 && tail < 1.0) then
      invalid_arg "Delta_eval: tail must lie in [0, 1)";
    let t =
      {
        core =
          Session.create ?cache_size ?gc_threshold (Ti_table.support tbl) phi;
        cmp_free = not (Fo.has_cmp phi);
        tail;
        memo = Bdd.prob_memo ();
        tbl;
        weights = [||];
        dirty = ISet.empty;
        memo_valid = true;
        cached = None;
        epoch = 0;
      }
    in
    rebuild_weights t;
    t

  let query t = Session.query t.core
  let table t = t.tbl
  let tail t = t.tail
  let epoch t = t.epoch
  let padding t = Session.padding t.core
  let inverse t d = inverse_of t.tbl d
  let live_nodes t = Bdd.node_count (Session.manager t.core)
  let diagram_size t = Bdd.size (Session.root t.core)

  let patch t v target =
    t.weights.(v) <- weight_of target;
    t.dirty <- ISet.add v t.dirty;
    Stats.incr c_patched;
    Patched

  let recompiled () =
    Stats.incr c_recompiled;
    Recompiled

  (* A fact outside the alphabet, being set to a positive marginal.
     Surviving node indices keep their memoized counts (weights of
     existing variables are untouched on this path); a GC triggered by
     the compilation itself is caught by [Session.gc_seen] at the next
     fold. *)
  let absorb_new_atom t f target =
    let growth = Session.extend t.core [ f ] in
    t.weights <- Array.append t.weights [| weight_of target |];
    match growth with
    | Session.Joined ->
      Stats.incr c_extended;
      Extended
    | Session.Recompiled -> recompiled ()

  (* Comparison queries carry no padding and an exact active domain: any
     support change rebinds the alphabet and recompiles. *)
  let rebuild_exact t =
    Session.rebind t.core (Ti_table.support t.tbl);
    rebuild_weights t;
    t.memo_valid <- false;
    t.dirty <- ISet.empty;
    recompiled ()

  let apply t d =
    let f = delta_fact d in
    let target = check_target d in
    let before = Ti_table.prob t.tbl f in
    if Rational.equal before target then begin
      Stats.incr c_noop;
      Noop
    end
    else begin
      t.tbl <-
        (if Rational.is_zero target then Ti_table.remove t.tbl f
         else Ti_table.add t.tbl f target);
      t.epoch <- t.epoch + 1;
      t.cached <- None;
      let var = Lineage.var_of_fact (Session.alphabet t.core) f in
      if t.cmp_free then
        match var with
        | Some v -> patch t v target
        | None ->
          (* [before = 0 <> target] here, so this is a genuine insert. *)
          absorb_new_atom t f target
      else if
        (not (Rational.is_zero before)) && not (Rational.is_zero target)
      then
        match var with
        | Some v -> patch t v target
        | None -> assert false (* present fact, exact alphabet *)
      else rebuild_exact t
    end

  let prob t =
    match t.cached with
    | Some p -> p
    | None ->
      Stats.incr c_folds;
      let full = (not t.memo_valid) || Session.gc_seen t.core in
      if full then Bdd.prob_memo_clear t.memo;
      let dirty =
        if full then fun _ -> true else fun v -> ISet.mem v t.dirty
      in
      let recomputed = ref 0 in
      let p =
        Bdd.fold_prob_memo ~memo:t.memo ~dirty ~zero:C.zero ~one:C.one
          ~node:(fun v lo hi ->
            incr recomputed;
            let w = t.weights.(v) in
            C.add (C.mul w hi) (C.mul (C.compl w) lo))
          (Session.root t.core)
      in
      Stats.add c_fold_nodes !recomputed;
      t.dirty <- ISet.empty;
      t.memo_valid <- true;
      Session.clear_gc_seen t.core;
      t.cached <- Some p;
      p
end

module Exact = Make (Prob.Rational_carrier)
module Fast = Make (Prob.Float_carrier)
module Certified = Make (Prob.Interval_carrier)

(* -------------------- BID sessions -------------------- *)

module Bid = struct
  type bdelta =
    | B_set of string * Fact.t * Rational.t
    | B_remove of Fact.t

  type t = {
    phi : Fo.t;
    cmp_free : bool;
    tail : float;
    mutable tbl : Bid_table.t;
    mutable adom : VSet.t;  (* grow-only for cmp-free queries *)
    mutable padding : Value.t list;
    mutable pad_attempt : int;
    mutable cached : Rational.t option;
    mutable epoch : int;
  }

  let adom_of acc facts =
    List.fold_left
      (fun acc f -> List.fold_left (fun acc v -> VSet.add v acc) acc (Fact.args f))
      acc facts

  let choose_padding t ~attempt =
    let padding, attempt =
      Padding.choose ~avoid:(fun v -> VSet.mem v t.adom) ~attempt
        (Padding.rank t.phi)
    in
    t.padding <- padding;
    t.pad_attempt <- attempt

  let create ?(tail = 0.0) tbl phi =
    if Fo.free_vars phi <> [] then
      invalid_arg "Delta_eval.Bid: query must be a sentence";
    if not (tail >= 0.0 && tail < 1.0) then
      invalid_arg "Delta_eval.Bid: tail must lie in [0, 1)";
    let t =
      {
        phi;
        cmp_free = not (Fo.has_cmp phi);
        tail;
        tbl;
        adom = adom_of (VSet.of_list (Fo.constants phi)) (Bid_table.support tbl);
        padding = [];
        pad_attempt = 0;
        cached = None;
        epoch = 0;
      }
    in
    choose_padding t ~attempt:0;
    t

  let query t = t.phi
  let table t = t.tbl
  let tail t = t.tail
  let epoch t = t.epoch
  let padding t = t.padding

  (* Rebuild the block list with [fact]'s marginal set to [p] inside
     [block]; [None] rejections carry the reason. *)
  let edited_blocks t block fact p =
    match Bid_table.block_of_fact t.tbl fact with
    | Some b when b <> block ->
      Error
        (Printf.sprintf "fact %s already belongs to block %s"
           (Fact.to_string fact) b)
    | home -> (
      let blocks = Bid_table.blocks t.tbl in
      let present = home <> None in
      let edit (bl : Bid_table.block) =
        if bl.Bid_table.block_id <> block then bl
        else
          let alts =
            List.filter
              (fun (f, _) -> not (Fact.equal f fact))
              bl.Bid_table.alternatives
          in
          let alts =
            if Rational.is_zero p then alts else alts @ [ (fact, p) ]
          in
          { bl with Bid_table.alternatives = alts }
      in
      let blocks =
        if present || List.exists (fun b -> b.Bid_table.block_id = block) blocks
        then List.map edit blocks
        else if Rational.is_zero p then blocks
        else blocks @ [ { Bid_table.block_id = block; alternatives = [ (fact, p) ] } ]
      in
      let blocks =
        List.filter (fun b -> b.Bid_table.alternatives <> []) blocks
      in
      let mass bl =
        Rational.sum (List.map snd bl.Bid_table.alternatives)
      in
      match
        List.find_opt
          (fun bl -> Rational.compare (mass bl) Rational.one > 0)
          blocks
      with
      | Some bl ->
        Error
          (Printf.sprintf "block %s mass %s would exceed 1"
             bl.Bid_table.block_id
             (Rational.to_string (mass bl)))
      | None -> (
        match Bid_table.create blocks with
        | tbl -> Ok tbl
        | exception Invalid_argument msg -> Error msg))

  let commit t tbl =
    t.tbl <- tbl;
    t.epoch <- t.epoch + 1;
    t.cached <- None;
    if t.cmp_free then begin
      t.adom <- adom_of t.adom (Bid_table.support tbl);
      if List.exists (fun v -> VSet.mem v t.adom) t.padding then
        choose_padding t ~attempt:(t.pad_attempt + 1)
    end
    else
      t.adom <-
        adom_of (VSet.of_list (Fo.constants t.phi)) (Bid_table.support tbl)

  let apply t d =
    match d with
    | B_set (block, fact, p) ->
      if not (Rational.is_probability p) then
        Error
          (Printf.sprintf "marginal %s outside [0,1]" (Rational.to_string p))
      else if Rational.equal (Bid_table.prob t.tbl fact) p then Ok ()
      else (
        match edited_blocks t block fact p with
        | Ok tbl ->
          commit t tbl;
          Ok ()
        | Error _ as e -> e)
    | B_remove fact -> (
      match Bid_table.block_of_fact t.tbl fact with
      | None -> Ok ()
      | Some block -> (
        match edited_blocks t block fact Rational.zero with
        | Ok tbl ->
          commit t tbl;
          Ok ()
        | Error _ as e -> e))

  let prob t =
    match t.cached with
    | Some p -> p
    | None ->
      let domain =
        if t.cmp_free then VSet.elements t.adom @ t.padding
        else
          Fo_eval.evaluation_domain
            (Instance.of_list (Bid_table.support t.tbl))
            t.phi []
      in
      let p =
        Seq.fold_left
          (fun acc (inst, w) ->
            let extra =
              List.filter
                (fun v ->
                  not
                    (List.exists (Value.equal v)
                       (Instance.active_domain inst)))
                domain
            in
            if Fo_eval.models ~extra_domain:extra inst t.phi then
              Rational.add acc w
            else acc)
          Rational.zero (Bid_table.worlds t.tbl)
      in
      t.cached <- Some p;
      p
end
