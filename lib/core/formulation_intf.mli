(** The formulation seam: "compile DFG × MRRG into a 0-1 model" as a
    first-class, registered value.

    {!Ilp_mapper.engine} makes the {e solver} pluggable; this
    registry makes the {e constraint structure} pluggable.  A
    formulation packages everything {!Ilp_mapper.map} needs beyond the
    model itself — solution extraction, warm-start phase seeding, and
    value naming for unsat-core diagnosis — so genuinely different
    encodings (the paper's per-edge sub-value model, the
    connectivity/flow model of [Cgra_conn]) flow through the same
    solve / certify / explain / check pipeline unchanged.

    The base formulation registers itself here as ["paper"] at
    module-init time; other libraries do the same for theirs (e.g.
    [Cgra_conn.Conn] registers ["conn"]).  Since OCaml links library
    modules only when referenced, binaries that want a non-core
    formulation call its [ensure_registered] hook once. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg

type built = {
  model : Cgra_ilp.Model.t;
  size : Formulation.size;
      (** variable/row counts in the base formulation's vocabulary:
          [n_f] placement vars, [n_r] per-value vars, [n_rk] per-sink
          vars (formulations without a family report 0) *)
  phases : (string * float) list;
      (** labelled wall-clock seconds per encode phase, the shape of
          {!Formulation.profile_fields} *)
  extract : bool array -> Mapping.t;
      (** read a feasible assignment back into a mapping; the result
          must pass {!Check.run} or the mapper treats it as a bug *)
  warm : Mapping.t -> unit;
      (** seed the model's branch phases from a heuristic solution *)
  describe_value : int -> string;
      (** human-readable rendering of value [j] for diagnoses *)
}
(** One compiled model plus the closures tying it back to mapping
    vocabulary. *)

type impl = {
  name : string;  (** registry key, e.g. ["paper"], ["conn"] *)
  build : ?prune:bool -> objective:Formulation.objective -> Dfg.t -> Mrrg.t -> built;
      (** compile; [prune] selects corridor restriction where the
          formulation supports it (default on) *)
}

val default_name : string
(** ["paper"] — what {!Ilp_mapper.map} uses when no formulation is
    named. *)

val register : impl -> unit
(** Add (or shadow, by name) a formulation.  Thread-safe. *)

val find : string -> impl option

val names : unit -> string list
(** Registered names, sorted. *)

val apply_warm_phases : Formulation.t -> Mapping.t -> unit
(** Phase-seed a base-formulation model from a heuristic mapping:
    placement variables of the mapping's choices (and only those) go
    phase-true, as do the route variables along its routes.  Exposed
    for the ["paper"] impl and for direct [Formulation.t] users. *)
