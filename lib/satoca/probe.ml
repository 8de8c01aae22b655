(* Failed-literal probing over the roots of the binary implication
   graph.

   A binary clause (a | b) contributes the edges ~a -> b and ~b -> a,
   so a literal has an out-edge exactly when its negation occurs in a
   live binary clause, and an in-edge exactly when it occurs itself.
   Assuming a root literal l (out-edges, no in-edges) and propagating
   explores its full implication cone in one step; if that hits a
   conflict, the unit ~l is implied (and is RUP by definition),
   shrinking the search space at the root.  Probing only roots keeps
   the candidate set small without losing strength: a non-root literal
   that fails would make its ancestors fail too, and those are probed.

   The budget is measured in propagations, read off the solver's own
   counter, so probe cost is commensurable across instance sizes.  A
   pleasant side effect: the polarities each probe propagates are kept
   as saved phases, seeding later decisions. *)

(* Roots in ascending literal order. *)
let roots solver =
  let nlits = 2 * Solver.nvars solver in
  let has_out = Array.make nlits false and has_in = Array.make nlits false in
  for ci = 0 to Solver.n_clause_slots solver - 1 do
    let arr = Solver.clause_view solver ci in
    if
      Array.length arr = 2
      && Solver.root_value solver arr.(0) = -1
      && Solver.root_value solver arr.(1) = -1
    then
      Array.iter
        (fun l ->
          has_in.(l) <- true;
          has_out.(Lit.negate l) <- true)
        arr
  done;
  List.filter (fun l -> has_out.(l) && not has_in.(l)) (List.init nlits Fun.id)

let run solver ~budget =
  let start = (Solver.stats solver).propagations in
  let within_budget () = (Solver.stats solver).propagations - start < budget in
  let rec go = function
    | [] -> ()
    | l :: rest ->
        if Solver.ok solver && within_budget () then begin
          if Solver.root_value solver l = -1 && Solver.probe_lit solver l then begin
            Solver.note_probed_failed solver;
            (* the failed assumption's negation is a root fact *)
            Solver.simp_add solver [ Lit.negate l ]
          end;
          go rest
        end
  in
  go (roots solver)
