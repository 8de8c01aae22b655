module Model = Cgra_ilp.Model
module Dfg = Cgra_dfg.Dfg
module Mrrg = Cgra_mrrg.Mrrg

type built = {
  model : Model.t;
  size : Formulation.size;
  phases : (string * float) list;
  extract : bool array -> Mapping.t;
  warm : Mapping.t -> unit;
  describe_value : int -> string;
}

type impl = {
  name : string;
  build : ?prune:bool -> objective:Formulation.objective -> Dfg.t -> Mrrg.t -> built;
}

let default_name = "paper"

(* Same discipline as Cgra_backend.Registry: a name-keyed table behind
   a mutex, registration shadows, snapshot reads.  Formulations are
   registered at module-init time of their defining library, so a
   binary that links the library sees its formulations without any
   imperative setup beyond forcing the linker to keep the module. *)
let table : (string, impl) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register impl = with_lock (fun () -> Hashtbl.replace table impl.name impl)
let find name = with_lock (fun () -> Hashtbl.find_opt table name)

let names () =
  with_lock (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) table [])
  |> List.sort String.compare

(* Seed the exact engine's variable phases from a heuristic solution:
   the first descent of the CDCL search then reproduces the incumbent
   (or repairs it cheaply), and the optimisation loop starts from its
   cost.  Hints only — completeness is untouched. *)
let apply_warm_phases (f : Formulation.t) (m : Mapping.t) =
  let model = f.Formulation.model in
  let set v = Model.set_branch_phase model v true in
  (* the formulation marks every placement variable phase-true as a
     cold-start heuristic; a warm start needs exactly one per op *)
  Hashtbl.iter (fun _ v -> Model.set_branch_phase model v false) f.Formulation.f_vars;
  List.iter
    (fun (q, p) ->
      match Hashtbl.find_opt f.Formulation.f_vars (p, q) with
      | Some v -> set v
      | None -> ())
    m.Mapping.placement;
  let j_of_producer = Hashtbl.create 32 in
  Array.iteri
    (fun j (v : Dfg.value) -> Hashtbl.replace j_of_producer v.Dfg.producer j)
    f.Formulation.values;
  List.iter
    (fun (r : Mapping.route) ->
      match Hashtbl.find_opt j_of_producer r.Mapping.value_producer with
      | None -> ()
      | Some j ->
          let sinks = f.Formulation.values.(j).Dfg.sinks in
          let k =
            let rec index i = function
              | [] -> -1
              | s :: rest -> if s = r.Mapping.sink then i else index (i + 1) rest
            in
            index 0 sinks
          in
          if k >= 0 then
            List.iter
              (fun i ->
                (match Hashtbl.find_opt f.Formulation.rk_vars (i, j, k) with
                | Some v -> set v
                | None -> ());
                match Hashtbl.find_opt f.Formulation.r_vars (i, j) with
                | Some v -> set v
                | None -> ())
              r.Mapping.nodes)
    m.Mapping.routes

let paper =
  {
    name = default_name;
    build =
      (fun ?prune ~objective dfg mrrg ->
        let f, profile = Formulation.build_profiled ~objective ?prune dfg mrrg in
        {
          model = f.Formulation.model;
          size = Formulation.size f;
          phases = Formulation.profile_fields profile;
          extract = (fun assign -> Extract.mapping f assign);
          warm = (fun m -> apply_warm_phases f m);
          describe_value = (fun j -> Formulation.value_description f j);
        });
  }

let () = register paper
