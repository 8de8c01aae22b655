(** A resident solving session for one (DFG, architecture) pair.

    The daemon's tier-2 cache value: one CDCL solver instance that
    {e survives across requests}, into which the feasibility
    formulation for each requested II is clausified once as an
    independently-guarded block ({!Cgra_ilp.Encode.encode_into}).
    Solving II [k] means assuming block [k]'s activation literal — the
    MiniSat-style incremental interface — so:

    - a {b repeat} of an already-compiled (DFG, arch, II) skips both
      formulation build and clausification ([cache_hit]), and resumes
      with the saved phases, branching activity and learnt clauses of
      the previous solve;
    - an {b incremental II search} (II = 1, 2, 3, ... until feasible —
      the SAT-MapIt iteration pattern) reuses one solver across IIs:
      each block's learnt clauses are implied by the union of guarded
      clause sets, hence sound for every later solve ([warm_start]).

    Sessions answer {e feasibility} queries only; optimisation,
    certification, explanation and named solvers take the
    stateless one-shot path (their solver lifecycles are
    query-specific).

    {b Concurrency.}  A session serialises its solves behind a mutex
    (a CDCL solver is single-threaded state); distinct sessions solve
    in parallel freely. *)

type t

type outcome = {
  result : Cgra_core.Ilp_mapper.result;
  cache_hit : bool;  (** this (II)'s encoding was already compiled in *)
  warm_start : bool;  (** the solver had completed at least one prior solve *)
  solves : int;  (** total solves served by this session, including this one *)
  solve_stats : Cgra_satoca.Solver.stats;
      (** {e this} solve's share of the resident solver's counters — a
          {!Cgra_satoca.Solver.stats_delta} against the pre-solve
          snapshot, not the session-cumulative totals.  Two sequential
          solves therefore report disjoint work. *)
}

val create : Cgra_dfg.Dfg.t -> t
(** A fresh session with an empty resident solver.  The DFG is frozen
    into the session; callers guarantee it matches the cache key's
    digest. *)

val solve : ?deadline:Cgra_util.Deadline.t -> t -> mrrg:Cgra_mrrg.Mrrg.t -> ii:int -> outcome
(** Decide feasibility at [ii] on the MRRG (which must be the session
    architecture elaborated at [ii] — the server's tier-1 cache
    guarantees the pairing).  Compiles the block on first use of this
    [ii], then solves under its activation assumption.  A [Mapped]
    result has passed {!Cgra_core.Check} exactly like a one-shot
    answer; [Timeout] leaves the session intact and reusable.
    @raise Failure if the extracted mapping fails the independent
    checker (a bug, not an input error). *)

val compiled_iis : t -> int list
(** IIs whose encodings are resident, in compilation order (tests). *)
