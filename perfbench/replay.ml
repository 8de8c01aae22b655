(* Stage-by-stage replay of one mapping request, with a span around
   every call into a layer.

   [run] performs exactly the steps [Ilp_mapper.map] performs for a
   feasibility query on the default SAT engine — formulation build,
   annealing warm start (phases seeded only when it succeeds), presolve
   (skipped under certification, as [Solve] does), clausification with
   the default inprocessing configuration, one CDCL solve, extraction
   and [Check.run], and the DRAT check of a certified refutation — but
   calls each layer itself so it can time it and read its counters.
   The benchmark compares the replayed verdict against an untraced
   [map] call of the same cell. *)

module Dfg = Cgra_dfg.Dfg
module Mrrg = Cgra_mrrg.Mrrg
module Fi = Cgra_core.Formulation_intf
module Formulation = Cgra_core.Formulation
module Anneal = Cgra_core.Anneal
module Check = Cgra_core.Check
module Model = Cgra_ilp.Model
module Presolve = Cgra_ilp.Presolve
module Encode = Cgra_ilp.Encode
module Solver = Cgra_satoca.Solver
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Deadline = Cgra_util.Deadline

(* ---------------- spans ---------------- *)

type span = {
  req : int;  (** request id; spans of one request share it *)
  name : string;
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing span in the trace, -1 for a root *)
}

type trace = { mutable spans : span array; mutable n : int }

let create_trace () = { spans = [||]; n = 0 }

let push tr s =
  if tr.n = Array.length tr.spans then begin
    let grown = Array.make (max 64 (2 * tr.n)) s in
    Array.blit tr.spans 0 grown 0 tr.n;
    tr.spans <- grown
  end;
  tr.spans.(tr.n) <- s;
  tr.n <- tr.n + 1;
  tr.n - 1

(* Open a span now and close it when [f] returns; the slot is reserved
   first so children (opened inside [f]) can name it as their parent. *)
let with_span tr ~req ~parent name f =
  let start = Deadline.now () in
  let idx = push tr { req; name; start; stop = start; parent } in
  let finish () = tr.spans.(idx) <- { (tr.spans.(idx)) with stop = Deadline.now () } in
  match f idx with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let iter_spans tr f =
  for i = 0 to tr.n - 1 do
    f i tr.spans.(i)
  done

let duration s = s.stop -. s.start

(* ---------------- the replay ---------------- *)

type outcome = {
  verdict : string;  (** "feasible", "infeasible" or "timeout" *)
  legal : bool;  (** a feasible answer's mapping passed Check; true otherwise *)
  mapping : Cgra_core.Mapping.t option;  (** the extracted mapping of a feasible answer *)
  counts : (string * float) list;  (** layer counters, per_layer metric names *)
}

let phase phases label = Option.value (List.assoc_opt label phases) ~default:0.0

let run tr ~req ~deadline ~warm_start ~certify (impl : Fi.impl) dfg mrrg =
  let counts = ref [] in
  let count name v = counts := (name, v) :: !counts in
  let verdict, legal, mapping =
    with_span tr ~req ~parent:(-1) "request" (fun root ->
        let span name f = with_span tr ~req ~parent:root name (fun _ -> f ()) in
        let f =
          span "formulation.build" (fun () ->
              impl.Fi.build ~objective:Formulation.Feasibility dfg mrrg)
        in
        let phases = f.Fi.phases in
        List.iter
          (fun label -> count ("formulation." ^ label ^ "_s") (phase phases label))
          [ "placement"; "corridors"; "routing_rows"; "exclusivity" ];
        let model = f.Fi.model in
        count "formulation.rows" (float (Model.nrows model));
        count "formulation.vars" (float (Model.nvars model));
        if warm_start > 0.0 then begin
          let params = if warm_start >= 20.0 then Anneal.thorough else Anneal.moderate in
          let mapped =
            span "anneal" (fun () ->
                match
                  Anneal.map ~params ~deadline:(Deadline.after ~seconds:warm_start) dfg mrrg
                with
                | Anneal.Mapped (m, _) ->
                    f.Fi.warm m;
                    true
                | Anneal.Failed _ -> false)
          in
          count "anneal.attempted" 1.0;
          count "anneal.mapped" (if mapped then 1.0 else 0.0)
        end;
        let proof = if certify then Some (Proof.create ()) else None in
        let presolved =
          if certify then Some (model, None)
          else
            let p = span "presolve" (fun () -> Presolve.run model) in
            count "presolve.fixed" (float (Presolve.n_fixed p));
            count "presolve.rows_dropped" (float (Presolve.n_rows_dropped ~original:model p));
            if p.Presolve.infeasible then None else Some (p.Presolve.reduced, Some p)
        in
        match presolved with
        | None -> ("infeasible", true, None)
        | Some (reduced, p) -> (
            let enc = span "encode" (fun () -> Encode.encode ?proof reduced) in
            let solver = enc.Encode.solver in
            count "encode.sat_vars" (float (Solver.nvars solver));
            count "encode.clauses" (float (Solver.n_clause_slots solver));
            let result = span "solver" (fun () -> Solver.solve ~deadline solver) in
            let st = Solver.stats solver in
            count "solver.sat_calls" 1.0;
            List.iter
              (fun (name, v) -> count ("solver." ^ name) (float v))
              [
                ("conflicts", st.Solver.conflicts);
                ("decisions", st.Solver.decisions);
                ("propagations", st.Solver.propagations);
                ("restarts", st.Solver.restarts);
                ("learnt", st.Solver.learnt);
              ];
            List.iter
              (fun (name, v) -> count ("inprocess." ^ name) (float v))
              (Solver.inprocess_counters st);
            match result with
            | Solver.Unknown -> ("timeout", true, None)
            | Solver.Unsat ->
                (match proof with
                | None -> ()
                | Some pr ->
                    let valid =
                      span "drat" (fun () ->
                          Proof.has_empty_clause pr
                          && Drat.check pr = Drat.Valid)
                    in
                    count "drat.proof_steps" (float (Proof.n_steps pr));
                    if not valid then failwith "replay: DRAT certificate rejected");
                ("infeasible", true, None)
            | Solver.Sat ->
                let mapping =
                  span "check.extract" (fun () ->
                      let a = Encode.assignment enc reduced in
                      let a =
                        match p with
                        | None -> a
                        | Some p -> Presolve.lift ~original:model p a
                      in
                      f.Fi.extract a)
                in
                let legal = span "check.run" (fun () -> Check.run mapping = Ok ()) in
                ("feasible", legal, Some mapping)))
  in
  { verdict; legal; mapping; counts = List.rev !counts }
