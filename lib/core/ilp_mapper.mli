(** The ILP mapper: the paper's end-to-end flow (Fig. 7, ILP side).

    Builds the formulation from a DFG and an MRRG, hands it to an exact
    0-1 engine, and extracts a verified mapping.  Because the engines
    are complete, [Infeasible] is a {e proof} that no mapping exists —
    the property that distinguishes this mapper from heuristics. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg

type diagnosis = {
  core : string list;
      (** constraint-group labels ([place:]/[excl:]/[route:val], see
          {!Formulation.group_subject}) whose conjunction with the hard
          rows is infeasible *)
  core_minimized : bool;
      (** dropping any single group makes the remainder satisfiable *)
  core_verified : bool;
      (** the core was re-solved from scratch and confirmed infeasible
          ({!Cgra_ilp.Unsat_core.check}); [false] only when the
          deadline expired before verification finished *)
  core_sat_calls : int;  (** incremental SAT calls spent on extraction *)
  conflict_ops : string list;      (** operations named by [place:] groups *)
  conflict_values : string list;
      (** values named by [route:] groups, rendered producer -> sinks *)
  conflict_resources : string list;  (** MRRG nodes named by [excl:] groups *)
}
(** An infeasibility explanation in mapping vocabulary: which placement,
    routing and exclusivity obligations cannot be met together. *)

type info = {
  size : Formulation.size;
  solve_seconds : float;
  build_seconds : float;
  build_phases : (string * float) list;
      (** {!Formulation.profile_fields} of the model construction:
          labelled wall-clock seconds per encode phase ([placement],
          [corridors], [routing_rows], [exclusivity], [total]).
          [build_seconds] additionally includes the warm-start attempt;
          [build_phases] is the formulation alone. *)
  objective_value : int option;  (** routing cost when optimising *)
  proven_optimal : bool;
  sat_calls : int;               (** SAT invocations; 0 for non-SAT engines *)
  presolve_fixed : int;          (** variables eliminated by presolve *)
  certified : bool;
      (** the verdict carries validated evidence: a {!Check}-accepted
          mapping for [Mapped], a {!Cgra_satoca.Drat}-validated
          refutation for a certified [Infeasible]; always [false] for
          [Timeout] and for uncertified [Infeasible] runs *)
  proof_steps : int;             (** DRAT derivation steps logged; 0 unless certifying *)
  inprocess : (string * int) list;
      (** SAT inprocessing counters ([probed_failed]) of the solver
          behind the verdict; empty when no in-process
          SAT solver ran (external backends, pure B&B feasible
          answers) *)
  diagnosis : diagnosis option;
      (** present only for an [Infeasible] verdict under [~explain:true]
          whose core extraction finished before the deadline *)
}

type result =
  | Mapped of Mapping.t * info
  | Infeasible of info
  | Timeout of info

type engine =
  | Native of Cgra_ilp.Solve.engine
      (** an in-process exact engine ({!Cgra_ilp.Solve.solve_report}) *)
  | External of Cgra_backend.Backend.t
      (** an external MILP solver run as a subprocess over the LP
          export ({!Cgra_backend.Milp_adapter}) *)
(** Who decides the compiled model.  The formulation — which model is
    compiled — is the other, independent half of a solver selection. *)

type selection = {
  name : string;  (** e.g. ["native-sat"], ["conn-bnb"], ["highs"] *)
  doc : string;  (** one-line description for [cgra_map backends] *)
  formulation : string option;
      (** the {!Formulation_intf} entry the name implies, if any *)
  engine : engine;
}
(** One solver name as {!resolve} reads it. *)

val selections : unit -> selection list
(** Every name {!resolve} accepts: the in-process names first
    (["native-sat"], ["native-bnb"], and ["conn-sat"]/["conn-bnb"] —
    formulation ["conn"] on the same two engines), then
    {!Cgra_backend.Registry.all}.  A registry entry, runtime
    registrations included, shadows an in-process name it repeats. *)

val resolve : ?formulation:string -> string -> (string option * engine, string) Stdlib.result
(** [resolve ?formulation name] is the formulation and engine the
    solver [name] selects, ready for [map ?formulation ~engine]: the
    formulation [name] implies, else the [formulation] given.  [Error]
    names the problem: an unknown [name] (listing the known ones), or a
    [name] whose implied formulation contradicts the given one. *)

val available : engine -> Cgra_backend.Backend.availability
(** In-process engines are always available; an external one probes
    its binary now. *)

val find_formulation : string option -> (Formulation_intf.impl, string) Stdlib.result
(** The {!Formulation_intf} entry of that name (default
    {!Formulation_intf.default_name}); [Error] lists the known names. *)

val map :
  ?objective:Formulation.objective ->
  ?engine:engine ->
  ?formulation:string ->
  ?deadline:Cgra_util.Deadline.t ->
  ?cancel:bool Atomic.t ->
  ?prune:bool ->
  ?warm_start:float ->
  ?certify:bool ->
  ?explain:bool ->
  ?inprocess:Cgra_satoca.Inprocess.config ->
  Dfg.t ->
  Mrrg.t ->
  result
(** Defaults: [Feasibility] objective (a Table 2 style query), the
    paper's formulation, [Native Sat_backed], no deadline, corridor
    pruning on.  Mappings are checked with {!Check} before being
    returned.  Use {!resolve} to turn a solver name into
    [formulation] and [engine].

    [formulation] selects the constraint structure by
    {!Formulation_intf} registry name (default
    {!Formulation_intf.default_name}, the paper's per-edge sub-value
    model).  Every downstream stage — presolve, SAT encoding,
    certification, explanation, {!Check.run} validation — is
    formulation-agnostic, so any registered formulation gets the full
    pipeline.

    [engine] decides the compiled model.  Whatever decides it, one path
    turns the answer into a verdict: the extracted mapping of a
    feasible answer must pass {!Check.run}, so a [Mapped] verdict is
    [certified] alike for every engine.  An [External] engine exports
    the model as an LP file, runs the solver under the deadline and
    replays the parsed answer row by row against the model before
    anything is believed.  Its [Infeasible] is the solver's word and
    stays [certified = false] (no DRAT trace exists; [sweep
    --cross-check] exists to diff such verdicts), and it gets no warm
    start.
    @raise Cgra_backend.Backend.Error on an unknown formulation name, a
    missing solver binary, or an external answer that fails replay.

    {b Reentrancy.}  [map] is the single-job entry point of the
    parallel sweep engine: it holds no global mutable state — the
    formulation, the solver instance and the annealer's RNG are all
    created per call — so concurrent calls from several domains are
    safe, provided each call gets its own [Dfg.t]/[Mrrg.t] (or shares
    frozen, no-longer-mutated ones read-only).

    [cancel] attaches a shared cancellation flag to every deadline the
    call polls (including the warm start's internal deadline): raising
    the flag from any domain makes the call return [Timeout] at the
    engine's next poll.  Portfolio racing uses this to stop losing
    engines.

    [warm_start] (default 5 seconds; 0 disables) bounds a quick
    annealing attempt whose verified solution, when found, seeds the
    exact engine's variable phases — the standard embedded-heuristic
    warm start of production MIP solvers.  It never outlives
    [deadline]: the attempt gets at most what remains of it.
    Completeness is unaffected: the answer is still decided by the
    exact engine.

    [certify] (default [false]) makes an in-process engine's
    [Infeasible] verdict carry a DRAT refutation, independently
    re-validated by {!Cgra_satoca.Drat.check} before the call returns;
    presolve is bypassed for the certified solve and the B&B engine
    cross-certifies through a proof-logging SAT run (see
    {!Cgra_ilp.Solve.solve}).  [info.certified] reports whether the
    returned verdict carries validated evidence; a certificate cut
    short by the deadline yields [certified = false], not a failure.

    [explain] (default [false]) makes an [Infeasible] verdict carry a
    {!diagnosis}: a group-level unsat core extracted with
    {!Cgra_ilp.Unsat_core}, minimized and independently re-verified
    under the same deadline, then translated back to DFG/MRRG terms.
    The extraction is in-process whatever the engine, so it explains an
    external solver's infeasibility too.  A deadline hit during
    extraction leaves [diagnosis = None].
    @raise Failure if the engine returns an assignment the independent
    checker rejects, a DRAT certificate the independent checker
    refutes, or an infeasibility the core extraction refutes (each
    would be a bug, not an input error). *)

val result_feasible : result -> bool
val pp_result : Format.formatter -> result -> unit

val pp_diagnosis : Format.formatter -> diagnosis -> unit
(** Multi-line rendering of a diagnosis: the core's labels followed by
    the conflicting operations, values and resources. *)
