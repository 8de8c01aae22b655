(** External MILP solvers as backends.

    The adapter writes the model through {!Cgra_ilp.Lp_format} (whose
    sanitized identifiers real LP readers accept), spawns the solver
    binary under the call's deadline ({!Subprocess} kills it on
    expiry), parses the solution file back with {!Sol_parse}, and
    replays the claimed assignment against the model before believing
    anything: an assignment that violates a row, a non-integral value,
    or an objective that does not recompute raises {!Backend.Error}
    instead of becoming a verdict.

    Binaries are resolved from [$PATH], overridable per solver with an
    environment variable ([CGRA_HIGHS_BIN], [CGRA_CBC_BIN],
    [CGRA_SCIP_BIN]) — which is also how the test suite points the
    adapters at stub solvers. *)

val highs : Backend.t
(** HiGHS ([highs model.lp --solution_file out]): the open-source MILP
    solver closest in class to the paper's Gurobi. *)

val cbc : Backend.t
(** COIN-OR CBC ([cbc model.lp solve solution out]). *)

val scip : Backend.t
(** SCIP ([scip -c "read … optimize write solution … quit"]). *)
