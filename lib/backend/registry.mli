(** The external-solver registry: name → {!Backend.t}.

    Ships with the three external MILP adapters; {!register} adds (or
    replaces) entries at runtime — used by tests to inject adversarial
    backends and available to embedders as a plugin point.  All
    operations are mutex-protected and safe to call from any domain.
    Solver names are read by [Cgra_core.Ilp_mapper.resolve], which
    adds the in-process engines' names to the ones held here. *)

val all : unit -> Backend.t list
(** The built-ins [highs; cbc; scip], then runtime registrations in
    registration order; a registered backend shadows a built-in of the
    same name. *)

val register : Backend.t -> unit
(** Add a backend, replacing any previous entry with the same name. *)
