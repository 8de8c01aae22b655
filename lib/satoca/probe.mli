(** Failed-literal probing over binary-implication-graph roots.

    The implication graph is read off the live binary clauses: (a | b)
    contributes the edges [~a -> b] and [~b -> a].  Its roots — literals
    with out-edges but no in-edges — are assumed one at a time on a
    throwaway decision level; when propagation fails, the negation is
    asserted as a root unit (a RUP step by definition).  Scheduled by
    {!Inprocess}. *)

val run : Solver.t -> budget:int -> unit
(** Run one round from the quiescent root state established by
    {!Solver.simp_prepare}; [budget] caps the propagations spent.
    Bumps the [probed_failed] counter per failed literal. *)
