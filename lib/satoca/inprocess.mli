(** Inprocessing scheduler: failed-literal probing between restarts.

    Installs a hook the solver fires at the start of every solve and
    after every Luby restart; each due round runs {!Probe} under a
    propagation budget.  Every unit a round derives flows through the
    solver's {!Proof} sink, so DRAT certificates remain checkable by
    {!Drat.check}.  The work done is reported as the [probed_failed]
    counter of {!Solver.stats}. *)

type config =
  | Off  (** no inprocessing: the plain CDCL solver *)
  | On
      (** a probing round once 1000 conflicts have accrued since the
          previous one, so instances decided in a few hundred conflicts
          never pay for it *)
  | Eager
      (** a probing round at the start of every solve and after every
          restart — what the differential fuzzers run, so probing
          fires even on tiny instances *)

val of_spec : string option -> config
(** Parse a [CGRA_INPROCESS] value: [None], [""], ["on"] and ["1"]
    give [On]; ["off"], ["0"] and ["none"] give [Off]; any other value
    is read as a comma-separated pass list, which gives [Eager] when it
    names [probe] and [Off] otherwise (names of passes this solver no
    longer has are ignored). *)

val default : unit -> config
(** {!of_spec} of the [CGRA_INPROCESS] environment variable. *)

val install : ?config:config -> Solver.t -> unit
(** Install the scheduler on a solver (replacing any previous hook);
    [config] defaults to {!default}[ ()].  [Off] removes the hook. *)
