(** The sweep work queue: fan a job list out over OCaml 5 domains.

    Workers claim jobs from a shared atomic counter, so the schedule is
    dynamic (long jobs do not stall the queue) while the result list
    stays in input order — the answers are deterministic regardless of
    worker count, only timings vary.  A job that raises records
    [Error] and the sweep continues; a worker can never die with jobs
    still queued.

    [on_event] is serialised by a mutex, so callbacks may write to
    shared channels (progress lines, the JSONL {!Store}) without their
    own locking; exceptions it raises are swallowed. *)

type event =
  | Job_started of { index : int; total : int; worker : int; job : Job.t }
  | Job_finished of { index : int; total : int; worker : int; record : Record.t }

type stats = {
  ran : int;           (** jobs executed *)
  skipped : int;       (** jobs dropped by [skip] (resume) *)
  disagreements : int;
      (** cross-checked cells where the second backend contradicted the
          primary verdict (see {!Record.disagreement}); always 0
          without [cross_check] *)
  wall_seconds : float;
}

val run :
  ?jobs:int ->
  ?portfolio:bool ->
  ?racers:Runner.variant list ->
  ?cross_check:Runner.variant ->
  ?executor:(Job.t -> Record.t) ->
  ?certify:bool ->
  ?explain:bool ->
  ?skip:(Job.t -> bool) ->
  ?on_event:(event -> unit) ->
  Job.t list ->
  Record.t list * stats
(** [run ~jobs job_list] executes the non-skipped jobs on [jobs]
    workers (the calling domain plus [jobs - 1] spawned ones; default
    1) and returns their records in input order.

    [portfolio] races a
    variant field per job instead of the single default engine; the
    field is [racers] when non-empty, otherwise
    {!Runner.default_racers} sized to the machine.  [racers] without
    [portfolio] is ignored.

    [cross_check] is a variant (typically {!Runner.variant_of_name}) to
    run as a second, independent prover on every cell whose primary
    answer is definitive ([Feasible]/[Infeasible]).  The second opinion
    is folded into the record's [cross] field, under the variant's
    name, and journaled with it; a
    contradiction (see {!Record.verdicts_agree}) marks the record as a
    disagreement and is counted in [stats.disagreements].  A checker
    that times out, errors, or is simply not installed is inconclusive
    — recorded, never a disagreement, and never a sweep failure.

    [executor] replaces the per-job solver entirely (the annealing
    baseline of [bench fig8] runs through it); [portfolio], [racers],
    [certify] and [explain] are then ignored, while [skip],
    [on_event] and [cross_check] still apply.  An executor exception
    becomes the job's [Error] record.

    [certify] requests DRAT-certified verdicts from every job
    (see {!Runner.run_variant}).  [explain] journals a constraint-group
    unsat core with every [Infeasible] record (the definitive 0-cells
    of the Table-2 grid).  [skip] implements resume: skipped jobs
    produce no record here (their records already live in the
    journal). *)
