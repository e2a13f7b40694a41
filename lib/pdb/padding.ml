let rank phi = if Fo.has_cmp phi then 0 else Fo.quantifier_rank phi

(* The string sort under a name no dataset uses; a collision is still
   detected by the caller's [avoid] and resolved by the next attempt. *)
let candidate ~attempt i = Value.Str (Printf.sprintf "\x00pad.%d.%d" attempt i)

let rec choose ~avoid ~attempt k =
  let cand = List.init k (candidate ~attempt) in
  if List.exists avoid cand then choose ~avoid ~attempt:(attempt + 1) k
  else (cand, attempt)

let for_queries ?(extra = []) facts qs =
  match Array.fold_left (fun acc phi -> Stdlib.max acc (rank phi)) 0 qs with
  | 0 -> []
  | k ->
    let mem v = List.exists (Value.equal v) in
    let avoid v =
      mem v extra
      || Array.exists (fun phi -> mem v (Fo.constants phi)) qs
      || List.exists (fun f -> Array.exists (Value.equal v) f.Fact.args) facts
    in
    fst (choose ~avoid ~attempt:0 k)

let for_query facts phi = for_queries facts [| phi |]
