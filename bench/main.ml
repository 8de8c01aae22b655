(* Experiment harness: regenerates every table and figure of the paper.

   Subcommands:
     table1            benchmark characteristics (paper Table 1)
     table2            feasibility grid, ILP mapper (paper Table 2)
     fig8              SA mapper vs ILP mapper (paper Figure 8); journaled,
                       resumable, exits 1 if SA ever beats the exact mapper
     sizes             formulation sizes per cell (diagnostics)
     ablation          exact-solve time under formulation variants
     sweep             parallel sweep engine scaling (--jobs 1/2/4)
     certify           DRAT certification overhead (proof logging off vs on)
     inprocess         SAT inprocessing A/B on hard Table 2 cells (probing
                       off vs on); exits 1 if the geomean speedup is < 1.3x
     explain           unsat-core extraction overhead on infeasible cells
     conn              formulation A/B: the paper's per-edge model vs the
                       connectivity model — encode size, encode/solve time;
                       exits 1 if conn's row count passes 8x the paper's
     crosscheck        native engine vs an external MILP backend on a small
                       grid (a logged skip when the binary is not installed)
     serve             daemon latency, cold vs warm requests over one socket;
                       exits 1 unless warm is at least 1.5x faster than cold
     archscale         elaborate/encode/solve cost vs array size (2x2 to
                       16x16, mesh vs torus); exits 1 if 8x8 mesh elaboration
                       or encoding regresses >2x over the journaled baseline
     micro             Bechamel micro-benchmarks of the pipeline stages
     all               table1 + table2 + fig8 + micro (default)

   sweep, certify, inprocess, conn, serve and archscale append a run
   record to BENCH_<name>.json.  inprocess and conn exit 3 if a verdict
   flips between their two sides; crosscheck exits 5 on a disagreement.

   Common options:
     --limit SECS      per-cell time limit (default 120)
     --size N          array size NxN (default 4, the paper's)
     --benchmark NAME  restrict to one benchmark (repeatable)
     --seeds N         annealing attempts per cell in fig8 (default 3)
     --jobs N          parallel workers for fig8 (default 1)
     --journal BASE    fig8 journal base path (default "fig8"; writes
                       BASE.ilp.jsonl and BASE.sa.jsonl, resumable)
     --backend NAME    external backend for crosscheck (default "highs") *)

module Dfg = Cgra_dfg.Dfg
module Benchmarks = Cgra_dfg.Benchmarks
module Lib = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Mrrg = Cgra_mrrg.Mrrg
module IM = Cgra_core.Ilp_mapper
module Anneal = Cgra_core.Anneal
module Formulation = Cgra_core.Formulation
module Deadline = Cgra_util.Deadline
module Solve = Cgra_ilp.Solve
module Jsonl = Cgra_sweep.Jsonl
module Sweep_job = Cgra_sweep.Job
module Sweep_store = Cgra_sweep.Store
module Sweep_sched = Cgra_sweep.Scheduler
module Sweep_record = Cgra_sweep.Record
module Sweep_runner = Cgra_sweep.Runner

(* Append a run record to BENCH_<name>.json, preserving earlier runs so
   each journal accumulates a history across commits — the same schema
   for every journaled subcommand: {"bench": name, "runs": [...]}, each
   run stamped with its "unix_time" first. *)
let previous_bench_runs ~name =
  let path = Printf.sprintf "BENCH_%s.json" name in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Jsonl.of_string text with
    | Ok json -> (
        match Jsonl.member "runs" json with Some (Jsonl.List runs) -> runs | _ -> [])
    | Error _ -> []
  end
  else []

let record_bench_run ~name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let previous = previous_bench_runs ~name in
  let run = Jsonl.Obj (("unix_time", Jsonl.Num (Unix.gettimeofday ())) :: fields) in
  let doc =
    Jsonl.Obj [ ("bench", Jsonl.Str name); ("runs", Jsonl.List (previous @ [ run ])) ]
  in
  let oc = open_out path in
  output_string oc (Jsonl.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  recorded run %d in %s\n" (List.length previous + 1) path

(* The number [field] of the first of [rows] that [where] accepts. *)
let find_num ?(where = fun _ -> true) field rows =
  List.find_map
    (fun row ->
      match Jsonl.member field row with Some (Jsonl.Num x) when where row -> Some x | _ -> None)
    rows

(* [find_num] over the [rows] list of the last run journaled in
   BENCH_<name>.json: the previous run's value to gate against. *)
let last_journaled ~name ~rows ?where field =
  match List.rev (previous_bench_runs ~name) with
  | last :: _ -> (
      match Jsonl.member rows last with
      | Some (Jsonl.List rs) -> find_num ?where field rs
      | _ -> None)
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Shared harness parts: cells, timing, verdicts, the A/B driver       *)
(* ------------------------------------------------------------------ *)

(* One benchmark cell: a kernel on an architecture at one array size
   and context count (II).  Names resolve as the CLI and the sweep
   engine resolve them: paper configuration, gallery, file path. *)
type cell = { bench : string; arch : string; size : int; ii : int }

let cell_name c = Printf.sprintf "%s/%s/ii%d" c.bench c.arch c.ii

let cell_fields c =
  [
    ("benchmark", Jsonl.Str c.bench);
    ("arch", Jsonl.Str c.arch);
    ("size", Jsonl.Num (float_of_int c.size));
    ("contexts", Jsonl.Num (float_of_int c.ii));
  ]

let cell (bench, arch, size, ii) = { bench; arch; size; ii }

(* The 2x2 homo-orth cells the certify and explain overheads use. *)
let homo_orth_2x2 = List.map (fun (bench, ii) -> cell (bench, "homo-orth", 2, ii))

let resolve c =
  match (Sweep_runner.load_benchmark c.bench, Sweep_runner.load_arch ~size:c.size c.arch) with
  | Ok dfg, Ok arch -> Ok (dfg, Build.elaborate arch ~ii:c.ii)
  | Error e, _ | _, Error e -> Error e

(* Declared after [cell], so an unannotated [opts.size] means this one. *)
type options = {
  limit : float;
  size : int;
  benchmarks : string list; (* empty = all *)
  seeds : int;
  jobs : int;
  journal : string;
  backend : string;
}

let default_options =
  { limit = 120.0; size = 4; benchmarks = []; seeds = 3; jobs = 1; journal = "fig8";
    backend = "highs" }

(* Mean wall time of [reps] runs of [f], with the last run's result. *)
let mean_of ~reps f =
  let t0 = Deadline.now () in
  let last = ref None in
  for _ = 1 to reps do
    last := Some (f ())
  done;
  (Deadline.elapsed_of ~start:t0 /. float_of_int reps, Option.get !last)

(* Verdict names: an exact-mapper result as the sweep journal spells
   it, a solver outcome as the A/B journals do. *)
let result_status = function
  | IM.Mapped _ -> "feasible"
  | IM.Infeasible _ -> "infeasible"
  | IM.Timeout _ -> "timeout"

let outcome_status = function
  | Solve.Optimal _ | Solve.Feasible _ -> "sat"
  | Solve.Infeasible -> "unsat"
  | Solve.Timeout -> "TO"

type agreement = Agree | Flipped of string * string | Disagreed

(* The driver every A/B harness shares.  Each cell is resolved and its
   DFG and MRRG handed to [prepare] (untimed setup both sides share),
   then side [a] and side [b] run on the prepared value, in that
   order.  [agree] compares their answers: a flipped verdict exits 3 at
   once, a disagreement is counted and exits 5 once the table is out.
   [row] prints the cell's table line and returns its journal row.
   [gate] judges all rows and names a failure; it runs before the
   journal is written, so the summary lines it prints come first, and
   a failure exits 1 after the journal is written.  With [journal] the
   run is appended to BENCH_<name>.json: the fields [journal rows],
   then the rows under "cells". *)
let ab ~name ?journal ?(gate = fun _ -> None) ?(agree = fun _ _ -> Agree) ~prepare ~row
    (label_a, a) (label_b, b) cells =
  let disagreements = ref 0 in
  let rows =
    List.filter_map
      (fun c ->
        match resolve c with
        | Error e ->
            Printf.printf "  %-26s %s — skipped\n%!" (cell_name c) e;
            None
        | Ok instance ->
            let p = prepare c instance in
            let ra = a p in
            let rb = b p in
            (match agree ra rb with
            | Agree -> ()
            | Flipped (va, vb) ->
                Printf.eprintf "%s: %s verdict flipped between %s and %s (%s vs %s)\n%!" name
                  (cell_name c) label_a label_b va vb;
                exit 3
            | Disagreed -> incr disagreements);
            Some (Jsonl.Obj (row c ra rb)))
      cells
  in
  let failure = gate rows in
  Option.iter
    (fun fields -> record_bench_run ~name (fields rows @ [ ("cells", Jsonl.List rows) ]))
    journal;
  Option.iter (fun msg -> Printf.eprintf "%s: %s\n%!" name msg; exit 1) failure;
  print_newline ();
  if !disagreements > 0 then begin
    Printf.eprintf "%s: %d disagreement(s) between %s and %s\n%!" name !disagreements label_a
      label_b;
    exit 5
  end

(* One exact-mapper side: [reps] cold solves of the cell, timed. *)
let timed_map opts ~reps ?certify ?explain () (dfg, mrrg) =
  mean_of ~reps (fun () ->
      IM.map ~deadline:(Deadline.after ~seconds:opts.limit) ~warm_start:0.0 ?certify ?explain dfg
        mrrg)

let selected_benchmarks opts =
  match opts.benchmarks with
  | [] -> Benchmarks.all
  | names -> List.filter (fun (n, _) -> List.mem n names) Benchmarks.all

(* The eight architectures of Table 2: four structures x two context
   counts, single-context columns first, exactly as the paper prints
   them. *)
let table2_columns opts =
  List.concat_map
    (fun ii ->
      List.map (fun (name, config) -> (name, config, ii)) (Lib.paper_configs ~size:opts.size))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let run_table1 opts =
  print_endline "== Table 1: benchmark characteristics ==";
  Printf.printf "%-14s %6s %12s %12s\n" "Benchmark" "I/Os" "Operations" "#Multiplies";
  List.iter
    (fun (name, mk) ->
      let s = Dfg.stats (mk ()) in
      Printf.printf "%-14s %6d %12d %12d\n" name s.Dfg.ios s.Dfg.operations s.Dfg.multiplies)
    (selected_benchmarks opts);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let cell_char = function "feasible" -> "1" | "infeasible" -> "0" | _ -> "T"

let mrrg_cache : (string * int * int, Mrrg.t) Hashtbl.t = Hashtbl.create 16

let mrrg_for opts (name, config, ii) =
  match Hashtbl.find_opt mrrg_cache (name, opts.size, ii) with
  | Some m -> m
  | None ->
      let m = Build.elaborate (Lib.make config) ~ii in
      Hashtbl.replace mrrg_cache (name, opts.size, ii) m;
      m

(* Two-phase exact query: a cold attempt first (fast on easy cells and
   on infeasibility proofs), then a warm-started attempt seeded by a
   thorough annealing run for the cells where search alone stalls. *)
let ilp_cell opts column dfg =
  let mrrg = mrrg_for opts column in
  let t0 = Deadline.now () in
  let slice = Float.min (opts.limit /. 3.0) 30.0 in
  let cold =
    IM.map ~objective:Formulation.Feasibility ~warm_start:0.0
      ~deadline:(Deadline.after ~seconds:slice) dfg mrrg
  in
  let verdict =
    match result_status cold with
    | "timeout" ->
        let remaining = opts.limit -. Deadline.elapsed_of ~start:t0 in
        if remaining <= 1.0 then "timeout"
        else
          result_status
            (IM.map ~objective:Formulation.Feasibility
               ~warm_start:(Float.min 60.0 (remaining /. 2.0))
               ~deadline:(Deadline.after ~seconds:remaining) dfg mrrg)
    | decided -> decided
  in
  (verdict, Deadline.elapsed_of ~start:t0)

let run_table2 opts =
  Printf.printf "== Table 2: mapping feasibility (ILP mapper, %dx%d, limit %.0fs) ==\n" opts.size
    opts.size opts.limit;
  let columns = table2_columns opts in
  Printf.printf "%-14s" "Benchmark";
  List.iter (fun (name, _, ii) -> Printf.printf " %20s" (Printf.sprintf "%s/ii%d" name ii)) columns;
  print_newline ();
  let totals = Array.make (List.length columns) 0 in
  let times = ref [] in
  List.iter
    (fun (bname, mk) ->
      let dfg = mk () in
      Printf.printf "%-14s%!" bname;
      List.iteri
        (fun idx column ->
          let verdict, dt = ilp_cell opts column dfg in
          times := dt :: !times;
          if verdict = "feasible" then totals.(idx) <- totals.(idx) + 1;
          Printf.printf " %14s %4.0fs%!" (cell_char verdict) dt)
        columns;
      print_newline ())
    (selected_benchmarks opts);
  Printf.printf "%-14s" "Total Feasible";
  Array.iter (fun n -> Printf.printf " %20d" n) totals;
  print_newline ();
  (* the paper's runtime remark (>80% of runs within an hour) *)
  let all = List.length !times in
  if all > 0 then begin
    let within limit = List.length (List.filter (fun t -> t < limit) !times) in
    let sorted = List.sort compare !times in
    Printf.printf "runtimes: %d/%d cells within 60s, %d/%d within the %.0fs limit, median %.2fs\n"
      (within 60.0) all (within opts.limit) all opts.limit (List.nth sorted (all / 2))
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

(* Both mappers sweep the full grid through the scheduler, each side
   journaling to its own resumable JSONL file: BASE.ilp.jsonl for the
   exact mapper, BASE.sa.jsonl for the annealing baseline.  A killed
   run re-entered with the same --journal base redoes only the missing
   cells. *)
let fig8_side opts ~label ~path ?executor jobs =
  let done_keys = Sweep_store.completed_keys (Sweep_store.load path) in
  let skip j = Hashtbl.mem done_keys (Sweep_job.key j) in
  let store = Sweep_store.append_to path in
  let on_event = function
    | Sweep_sched.Job_started _ -> ()
    | Sweep_sched.Job_finished { index; total; record; _ } ->
        Sweep_store.append store record;
        Printf.eprintf "  [%s %d/%d] %-10s %s (%.1fs)\n%!" label (index + 1) total
          (Sweep_record.status_to_string record.Sweep_record.status)
          (Sweep_job.to_string record.Sweep_record.job)
          record.Sweep_record.total_seconds
  in
  let _, stats = Sweep_sched.run ~jobs:opts.jobs ?executor ~skip ~on_event jobs in
  Sweep_store.close store;
  if stats.Sweep_sched.skipped > 0 then
    Printf.eprintf "  [%s] resumed: %d cell(s) from %s\n%!" label stats.Sweep_sched.skipped path;
  Cgra_sweep.Grid.latest_by_key (Sweep_store.load path)

let run_fig8 opts =
  Printf.printf "== Figure 8: benchmarks mapped, SA mapper vs ILP mapper (%dx%d) ==\n" opts.size
    opts.size;
  let benchmarks = List.map fst (selected_benchmarks opts) in
  let jobs =
    Sweep_job.paper_grid ~size:opts.size ~contexts:[ 1; 2 ] ~limit:opts.limit ~benchmarks ()
  in
  let ilp = fig8_side opts ~label:"ilp" ~path:(opts.journal ^ ".ilp.jsonl") jobs in
  let sa =
    fig8_side opts ~label:"sa" ~path:(opts.journal ^ ".sa.jsonl")
      ~executor:(fun j -> Sweep_runner.run_anneal ~seeds:opts.seeds j)
      jobs
  in
  let feasible_count tbl arch ii =
    let feasible benchmark =
      let job = { Sweep_job.benchmark; arch; size = opts.size; contexts = ii; limit = opts.limit } in
      match Hashtbl.find_opt tbl (Sweep_job.key job) with
      | Some (r : Sweep_record.t) -> r.Sweep_record.status = Sweep_record.Feasible
      | None -> false
    in
    List.length (List.filter feasible benchmarks)
  in
  Printf.printf "%-18s %12s %12s\n" "Architecture" "SA mapper" "ILP mapper";
  let violations = ref [] in
  List.iter
    (fun ii ->
      List.iter
        (fun (arch, _) ->
          let sa_n = feasible_count sa arch ii and ilp_n = feasible_count ilp arch ii in
          (* The exact mapper is complete: any cell SA can map is
             feasible, so ILP losing a column means a mapper bug (or a
             too-small --limit starving the exact side). *)
          if ilp_n < sa_n then
            violations := Printf.sprintf "%s/ii%d (SA %d > ILP %d)" arch ii sa_n ilp_n :: !violations;
          Printf.printf "%-18s %12d %12d%s\n%!"
            (Printf.sprintf "%s/ii%d" arch ii)
            sa_n ilp_n
            (if ilp_n < sa_n then "   ** SA BEATS EXACT MAPPER **" else ""))
        (Lib.paper_configs ~size:opts.size))
    [ 1; 2 ];
  print_newline ();
  match List.rev !violations with
  | [] -> ()
  | vs ->
      Printf.eprintf "fig8: SA beat the complete mapper on %d architecture column(s): %s\n%!"
        (List.length vs) (String.concat ", " vs);
      exit 1

(* ------------------------------------------------------------------ *)
(* Diagnostics: formulation sizes                                      *)
(* ------------------------------------------------------------------ *)

let run_sizes opts =
  Printf.printf "== Formulation sizes (%dx%d) ==\n" opts.size opts.size;
  let columns = table2_columns opts in
  List.iter
    (fun (bname, mk) ->
      let dfg = mk () in
      List.iter
        (fun ((cname, _, ii) as column) ->
          let mrrg = mrrg_for opts column in
          let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
          Printf.printf "%-14s %s/ii%d: %s\n%!" bname cname ii
            (Format.asprintf "%a" Formulation.pp_size (Formulation.size f)))
        columns)
    (selected_benchmarks opts);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation: formulation refinements (DESIGN.md §7)                    *)
(* ------------------------------------------------------------------ *)

let run_ablation opts =
  Printf.printf
    "== Ablation: exact-solve time under formulation variants (limit %.0fs) ==\n" opts.limit;
  let variants =
    [
      ("full", true, true, true);
      ("no-prune", false, true, true);
      ("no-anchor", true, false, true);
      ("no-backward", true, true, false);
      ("paper-literal", false, false, false);
    ]
  in
  let cases =
    [ ("mac", "homo-orth", 1); ("2x2-f", "hetero-orth", 1); ("accum", "homo-orth", 1);
      ("exp_4", "homo-diag", 1); ("mac", "homo-orth", 2) ]
  in
  Printf.printf "%-24s" "case";
  List.iter (fun (n, _, _, _) -> Printf.printf " %16s" n) variants;
  print_newline ();
  List.iter
    (fun (bench, arch, ii) ->
      let c = cell (bench, arch, opts.size, ii) in
      match resolve c with
      | Ok (dfg, mrrg) ->
          Printf.printf "%-24s%!" (cell_name c);
          List.iter
            (fun (_, prune, anchor_sinks, backward_continuity) ->
              let dt, outcome =
                mean_of ~reps:1 (fun () ->
                    let f =
                      Formulation.build ~objective:Formulation.Feasibility ~prune ~anchor_sinks
                        ~backward_continuity dfg mrrg
                    in
                    Solve.solve ~deadline:(Deadline.after ~seconds:opts.limit) f.Formulation.model)
              in
              Printf.printf " %9.2fs %5s%!" dt (outcome_status outcome))
            variants;
          print_newline ()
      | Error e -> Printf.printf "%s: %s\n" (cell_name c) e)
    cases;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sweep engine throughput: worker-count scaling                       *)
(* ------------------------------------------------------------------ *)

let run_sweep_scaling opts =
  Printf.printf "== Sweep scaling: wall clock vs worker count (limit %.0fs/job) ==\n" opts.limit;
  let benchmarks =
    match opts.benchmarks with [] -> [ "accum"; "mac"; "add_10"; "2x2-f" ] | bs -> bs
  in
  let jobs =
    Sweep_job.paper_grid ~size:opts.size ~contexts:[ 1 ] ~limit:opts.limit ~benchmarks
      ~archs:[ "homo-orth"; "homo-diag" ] ()
  in
  Printf.printf "%d jobs; host has %d cores\n%!" (List.length jobs)
    (Domain.recommended_domain_count ());
  let baseline = ref 0.0 in
  let rows =
    List.map
      (fun n ->
        let records, stats = Sweep_sched.run ~jobs:n jobs in
        let undecided =
          List.length (List.filter (fun r -> not (Sweep_record.definitive r)) records)
        in
        if n = 1 then baseline := stats.Sweep_sched.wall_seconds;
        let speedup = !baseline /. stats.Sweep_sched.wall_seconds in
        Printf.printf "  --jobs %d: %6.1fs wall  (speedup %.2fx, %d undecided)\n%!" n
          stats.Sweep_sched.wall_seconds speedup undecided;
        Jsonl.Obj
          [
            ("workers", Jsonl.Num (float_of_int n));
            ("wall_seconds", Jsonl.Num stats.Sweep_sched.wall_seconds);
            ("speedup", Jsonl.Num speedup);
            ("undecided", Jsonl.Num (float_of_int undecided));
          ])
      [ 1; 2; 4 ]
  in
  record_bench_run ~name:"sweep"
    [
      ("size", Jsonl.Num (float_of_int opts.size));
      ("limit", Jsonl.Num opts.limit);
      ("n_jobs", Jsonl.Num (float_of_int (List.length jobs)));
      ("scaling", Jsonl.List rows);
    ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Certification overhead: proof logging + checking vs plain solving   *)
(* ------------------------------------------------------------------ *)

(* Small 2x2 cells whose verdicts need real CDCL search (not presolve),
   so the proof trace is non-trivial: mac is infeasible at both context
   counts, 2x2-f flips to feasible at ii2.  The [plain] column is the
   defaults path — proof logging disabled costs one [option] test per
   solver event — and [certified] includes both logging and the
   independent DRAT re-check of infeasible answers. *)
let run_certify opts =
  let reps = 3 in
  Printf.printf "== Certification overhead (2x2 cells, %d reps) ==\n" reps;
  Printf.printf "  %-10s %-4s %10s %10s %9s %12s\n" "benchmark" "ii" "plain" "certified"
    "overhead" "proof steps";
  ab ~name:"certify"
    ~journal:(fun _ -> [ ("size", Jsonl.Num 2.0); ("reps", Jsonl.Num (float_of_int reps)) ])
    ~prepare:(fun _ i -> i)
    ~row:(fun c (plain, _) (certified, result) ->
      let steps =
        match result with
        | IM.Mapped (_, info) | IM.Infeasible info | IM.Timeout info -> info.IM.proof_steps
      in
      let overhead = if plain > 0.0 then certified /. plain else 0.0 in
      Printf.printf "  %-10s ii%-3d %9.3fs %9.3fs %8.2fx %12d\n%!" c.bench c.ii plain certified
        overhead steps;
      [
        ("benchmark", Jsonl.Str c.bench);
        ("contexts", Jsonl.Num (float_of_int c.ii));
        ("plain_seconds", Jsonl.Num plain);
        ("certified_seconds", Jsonl.Num certified);
        ("overhead", Jsonl.Num overhead);
        ("proof_steps", Jsonl.Num (float_of_int steps));
      ])
    ("plain", timed_map opts ~reps ~certify:false ())
    ("certified", timed_map opts ~reps ~certify:true ())
    (homo_orth_2x2 [ ("mac", 1); ("2x2-f", 1); ("mac", 2); ("2x2-f", 2) ])

(* ------------------------------------------------------------------ *)
(* Inprocessing A/B: probing on vs off                                 *)
(* ------------------------------------------------------------------ *)

(* Hard Table 2 cells — the ones whose verdicts need real CDCL search
   rather than presolve or a lucky first descent — solved twice through
   the exact engine: once with the default inprocessing schedule
   (failed-literal probing) and once with the hook disabled.  Both
   sides share the formulation; each rep re-encodes, so the comparison
   covers the whole SAT path.  The gate asserts the geomean speedup:
   inprocessing must pay for itself on the hot path, not merely break
   even. *)
let inprocess_gate = 1.3

let run_inprocess opts =
  let module Inprocess = Cgra_satoca.Inprocess in
  let reps = 3 in
  Printf.printf "== Inprocessing A/B: probing vs none (%d reps, limit %.0fs) ==\n" reps
    opts.limit;
  Printf.printf "  %-26s %-6s %10s %10s %9s\n" "cell" "status" "off" "on" "speedup";
  let side inprocess f =
    mean_of ~reps (fun () ->
        Solve.solve_report
          ~deadline:(Deadline.after ~seconds:opts.limit)
          ~inprocess f.Formulation.model)
  in
  let geomean rows =
    match List.filter_map (fun row -> find_num "speedup" [ row ]) rows with
    | [] -> 1.0
    | rs -> exp (List.fold_left (fun acc r -> acc +. log r) 0.0 rs /. float_of_int (List.length rs))
  in
  ab ~name:"inprocess"
    ~journal:(fun rows ->
      [
        ("reps", Jsonl.Num (float_of_int reps));
        ("gate", Jsonl.Num inprocess_gate);
        ("geomean_speedup", Jsonl.Num (geomean rows));
      ])
    ~gate:(fun rows ->
      let g = geomean rows in
      Printf.printf "  geomean speedup: %.2fx (gate %.1fx)\n%!" g inprocess_gate;
      if g < inprocess_gate then
        Some (Printf.sprintf "geomean speedup %.2fx below the %.1fx gate" g inprocess_gate)
      else None)
    ~agree:(fun (_, off) (_, on) ->
      let off = outcome_status off.Solve.outcome and on = outcome_status on.Solve.outcome in
      if off = on then Agree else Flipped (off, on))
    ~prepare:(fun _ (dfg, mrrg) -> Formulation.build ~objective:Formulation.Feasibility dfg mrrg)
    ~row:(fun c (off_seconds, _) (on_seconds, on_report) ->
      let status = outcome_status on_report.Solve.outcome in
      let speedup = if on_seconds > 0.0 then off_seconds /. on_seconds else 1.0 in
      Printf.printf "  %-26s %-6s %9.3fs %9.3fs %8.2fx\n%!" (cell_name c) status off_seconds
        on_seconds speedup;
      cell_fields c
      @ [
          ("status", Jsonl.Str status);
          ("off_seconds", Jsonl.Num off_seconds);
          ("on_seconds", Jsonl.Num on_seconds);
          ("speedup", Jsonl.Num speedup);
        ]
      @ List.map (fun (k, n) -> (k, Jsonl.Num (float_of_int n))) on_report.Solve.inprocess)
    ("off", side Inprocess.Off) ("on", side Inprocess.On)
    (List.map cell
       [
         ("mult_10", "homo-orth", 2, 1); ("mult_10", "homo-diag", 2, 1);
         ("mult_14", "homo-orth", 2, 1); ("cos_4", "homo-orth", 2, 2);
         ("tay_4", "homo-orth", 2, 2); ("weighted_sum", "homo-orth", 2, 2);
       ])

(* ------------------------------------------------------------------ *)
(* Explanation overhead: unsat-core extraction on infeasible cells     *)
(* ------------------------------------------------------------------ *)

(* 2x2 cells proven infeasible by real search.  The [plain] column is
   the bare infeasibility proof; [explain] adds grouped re-encoding,
   assumption solving, deletion-based core minimization and the
   from-scratch verification re-solve. *)
let run_explain opts =
  let reps = 3 in
  Printf.printf "== Explanation overhead (2x2 infeasible cells, %d reps) ==\n" reps;
  Printf.printf "  %-10s %-4s %10s %10s %9s %6s %10s %9s\n" "benchmark" "ii" "plain" "explain"
    "overhead" "core" "minimized" "SATcalls";
  ab ~name:"explain" ~prepare:(fun _ i -> i)
    ~row:(fun c (plain, _) (explained, result) ->
      (match result with
      | IM.Infeasible { IM.diagnosis = Some d; _ } ->
          Printf.printf "  %-10s ii%-3d %9.3fs %9.3fs %8.2fx %6d %10b %9d\n%!" c.bench c.ii plain
            explained
            (if plain > 0.0 then explained /. plain else 0.0)
            (List.length d.IM.core) d.IM.core_minimized d.IM.core_sat_calls
      | IM.Infeasible { IM.diagnosis = None; _ } ->
          Printf.printf "  %-10s ii%-3d core extraction hit the deadline\n%!" c.bench c.ii
      | IM.Mapped _ | IM.Timeout _ ->
          Printf.printf "  %-10s ii%-3d not an infeasible cell — skipped\n%!" c.bench c.ii);
      [])
    ("plain", timed_map opts ~reps ~explain:false ())
    ("explain", timed_map opts ~reps ~explain:true ())
    (homo_orth_2x2 [ ("mac", 1); ("exp_4", 1); ("mac", 2) ])

(* ------------------------------------------------------------------ *)
(* Cross-check: native exact engine vs an external MILP backend        *)
(* ------------------------------------------------------------------ *)

(* A restricted grid — one architecture, a handful of benchmarks, both
   context counts — solved twice: once natively, once through an
   external backend's LP-file round trip.  Prints both verdicts and
   wall clocks side by side; any contradiction exits 5.  When the
   solver binary is simply not installed the whole section degrades to
   a logged skip, because a benchmark must run everywhere. *)
let run_crosscheck opts =
  let module Backend = Cgra_backend.Backend in
  Printf.printf "== Cross-check: native-sat vs %s (%dx%d, limit %.0fs) ==\n" opts.backend
    opts.size opts.size opts.limit;
  let variant =
    match Sweep_runner.variant_of_name opts.backend with
    | Ok variant -> variant
    | Error msg ->
        Printf.eprintf "crosscheck: %s\n%!" msg;
        exit 2
  in
  match IM.available variant.Sweep_runner.engine with
  | Backend.Unavailable reason ->
      Printf.printf "crosscheck: skipped — backend %s unavailable (%s)\n\n%!" opts.backend reason
  | Backend.Available { version } ->
      Printf.printf "backend %s: %s\n" opts.backend
        (Option.value ~default:"version unknown" version);
      Printf.printf "  %-28s %-12s %8s   %-12s %8s\n" "cell" "native" "sec" opts.backend "sec";
      let agreed (a : Sweep_record.t) (b : Sweep_record.t) =
        Sweep_record.verdicts_agree ~status:a.Sweep_record.status
          ~objective:a.Sweep_record.objective ~status2:b.Sweep_record.status
          ~objective2:b.Sweep_record.objective
      in
      let benchmarks =
        match opts.benchmarks with [] -> [ "accum"; "mac"; "2x2-f"; "exp_4" ] | bs -> bs
      in
      ab ~name:"crosscheck"
        ~prepare:(fun c _ ->
          { Sweep_job.benchmark = c.bench; arch = c.arch; size = c.size; contexts = c.ii;
            limit = opts.limit })
        ~agree:(fun native ext -> if agreed native ext then Agree else Disagreed)
        ~row:(fun _ native ext ->
          Printf.printf "  %-28s %-12s %7.2fs   %-12s %7.2fs%s\n%!"
            (Sweep_job.to_string native.Sweep_record.job)
            (Sweep_record.status_to_string native.Sweep_record.status)
            native.Sweep_record.total_seconds
            (Sweep_record.status_to_string ext.Sweep_record.status)
            ext.Sweep_record.total_seconds
            (if agreed native ext then "" else "   ** DISAGREEMENT **");
          [])
        ("native-sat", fun job -> Sweep_runner.run job)
        (opts.backend, Sweep_runner.run_variant variant)
        (List.concat_map
           (fun ii -> List.map (fun b -> cell (b, "homo-orth", opts.size, ii)) benchmarks)
           [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== Micro-benchmarks (Bechamel, ns/run) ==";
  let arch = Lib.make Lib.default in
  let mrrg = Build.elaborate arch ~ii:1 in
  let dfg = Benchmarks.mac () in
  let tests =
    Test.make_grouped ~name:"pipeline"
      [
        Test.make ~name:"arch-elaborate-4x4"
          (Staged.stage (fun () -> ignore (Lib.make Lib.default)));
        Test.make ~name:"mrrg-elaborate-4x4"
          (Staged.stage (fun () -> ignore (Build.elaborate arch ~ii:1)));
        Test.make ~name:"formulation-build-mac"
          (Staged.stage (fun () ->
               ignore (Formulation.build ~objective:Formulation.Feasibility dfg mrrg)));
        Test.make ~name:"ilp-map-mac-4x4"
          (Staged.stage (fun () ->
               ignore (IM.map ~objective:Formulation.Feasibility dfg mrrg)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] |> List.sort compare
  in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Printf.printf "  %-36s %14.0f\n" name est
      | Some _ | None -> Printf.printf "  %-36s  (no estimate)\n" name)
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* serve: daemon latency, cold vs warm                                 *)
(* ------------------------------------------------------------------ *)

module Serve_protocol = Cgra_serve.Protocol
module Serve_server = Cgra_serve.Server
module Serve_client = Cgra_serve.Client

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (Float.of_int (n - 1) *. p) in
      sorted.(max 0 (min (n - 1) idx))

let run_serve opts =
  Printf.printf "== serve: daemon latency, cold vs warm (size %d) ==\n%!" opts.size;
  let socket = Printf.sprintf "/tmp/cgra-bench-serve-%d.sock" (Unix.getpid ()) in
  let config =
    { Serve_server.default_config with Serve_server.socket_path = socket; pool_size = 2 }
  in
  let server = Domain.spawn (fun () -> Serve_server.run config) in
  let rec await tries =
    if tries = 0 then failwith "daemon socket never appeared"
    else if not (Sys.file_exists socket) then begin
      Unix.sleepf 0.05;
      await (tries - 1)
    end
  in
  await 100;
  let request =
    {
      Serve_protocol.id = None;
      payload =
        Serve_protocol.Map
          {
            Serve_protocol.benchmark = "mac";
            dfg_text = None;
            arch = "homo-orth";
            adl_text = None;
            size = opts.size;
            contexts = 1;
            limit = opts.limit;
            optimize = false;
            certify = false;
            explain = false;
            backend = None;
          };
    }
  in
  let client = match Serve_client.connect ~socket with Ok c -> c | Error e -> failwith e in
  let roundtrip () =
    match mean_of ~reps:1 (fun () -> Serve_client.roundtrip client request) with
    | dt, Ok { Serve_protocol.reply = Serve_protocol.Verdict v; _ } -> (dt, v)
    | _, Ok _ -> failwith "unexpected daemon reply"
    | _, Error e -> failwith e
  in
  let cold_seconds, cold_verdict = roundtrip () in
  if cold_verdict.Serve_protocol.provenance.Serve_protocol.cache_hit then
    failwith "first request reported a cache hit";
  let repeats = 20 in
  let warm = Array.init repeats (fun _ -> roundtrip ()) in
  Array.iter
    (fun (_, (v : Serve_protocol.verdict)) ->
      if v.Serve_protocol.status <> cold_verdict.Serve_protocol.status then
        failwith "warm verdict disagrees with cold verdict";
      if not v.Serve_protocol.provenance.Serve_protocol.cache_hit then
        failwith "warm request missed the encoding cache")
    warm;
  let latencies = Array.map fst warm in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.50 and p95 = percentile latencies 0.95 in
  let speedup = if p50 > 0.0 then cold_seconds /. p50 else infinity in
  let stats =
    match
      Serve_client.roundtrip client { Serve_protocol.id = None; payload = Serve_protocol.Stats }
    with
    | Ok { Serve_protocol.reply = Serve_protocol.Stats_reply s; _ } -> s
    | Ok _ | Error _ -> failwith "stats request failed"
  in
  let hit_rate =
    let hits = float_of_int stats.Serve_protocol.session_hits in
    let total = hits +. float_of_int stats.Serve_protocol.session_misses in
    if total > 0.0 then hits /. total else 0.0
  in
  ignore
    (Serve_client.roundtrip client { Serve_protocol.id = None; payload = Serve_protocol.Shutdown });
  Serve_client.close client;
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> failwith ("daemon failed: " ^ e));
  Printf.printf "  cold request:        %8.4fs (status %s)\n" cold_seconds
    cold_verdict.Serve_protocol.status;
  Printf.printf "  warm p50 / p95:      %8.5fs / %.5fs over %d repeats\n" p50 p95 repeats;
  Printf.printf "  cold/warm speedup:   %8.1fx\n" speedup;
  Printf.printf "  session cache hits:  %d/%d (rate %.2f)\n" stats.Serve_protocol.session_hits
    (stats.Serve_protocol.session_hits + stats.Serve_protocol.session_misses)
    hit_rate;
  record_bench_run ~name:"serve"
    (cell_fields { bench = "mac"; arch = "homo-orth"; size = opts.size; ii = 1 }
    @ [
      ("repeats", Jsonl.Num (float_of_int repeats));
      ("cold_seconds", Jsonl.Num cold_seconds);
      ("warm_p50_seconds", Jsonl.Num p50);
      ("warm_p95_seconds", Jsonl.Num p95);
      ("speedup", Jsonl.Num speedup);
      ("cache_hit_rate", Jsonl.Num hit_rate);
      ("warm_starts", Jsonl.Num (float_of_int stats.Serve_protocol.warm_starts));
    ]);
  if speedup < 1.5 then begin
    Printf.eprintf
      "serve: warm path only %.2fx faster than cold — resident caching is not paying off\n"
      speedup;
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* arch-scale: pipeline cost vs array size                             *)
(* ------------------------------------------------------------------ *)

module Topology = Cgra_arch.Topology

(* Elaboration, encoding and solving cost as the array grows from the
   paper's 4x4 to 16x16, mesh vs torus.  Elaboration and encoding are
   measured at every size (best of 3 — elaboration via the profiled
   hook, encoding via [Formulation.build_profiled]); solving runs up to
   4x4 — beyond that the point is the scaling curve, not the verdict.
   Two gates compare 8x8 mesh against the previous journaled run: a
   >2x regression of either elaboration or encode time fails the
   build. *)
let archscale_gate = 2.0

(* The row every archscale gate reads: the 8x8 mesh. *)
let mesh_8x8 row =
  Jsonl.member "size" row = Some (Jsonl.Num 8.0)
  && Jsonl.member "topology" row = Some (Jsonl.Str "mesh")

let run_archscale opts =
  Printf.printf "== arch-scale: elaborate/encode/solve cost vs array size ==\n";
  let dfg = Benchmarks.mac () in
  let best_of n f =
    let best = ref (f ()) in
    for _ = 2 to n do
      let ((dt, _) as run) = f () in
      if dt < fst !best then best := run
    done;
    !best
  in
  Printf.printf "  %-8s %-6s %12s %10s %10s %12s %10s\n" "topology" "size" "elaborate"
    "nodes" "edges" "encode" "solve";
  let rows =
    List.concat_map
      (fun topology ->
        List.map
          (fun size ->
            let arch =
              Lib.make
                { Lib.rows = size; cols = size; topology; fu_mix = Lib.Homogeneous; route = Lib.Direct }
            in
            let elab_seconds, (profile : Build.profile) =
              best_of 3 (fun () ->
                  let _, p = Build.elaborate_profiled arch ~ii:1 in
                  (p.Build.total_seconds, p))
            in
            let mrrg = Build.elaborate arch ~ii:1 in
            (* best of 3, like elaboration: the encode gate compares
               journaled runs across commits, so the number must
               measure the builder, not the machine's load spikes.
               One untimed warmup build extends the major heap to this
               size's footprint (first touch of fresh pages is an OS
               cost, not a builder cost), then the heap is stabilized —
               by this point the run has built models at every smaller
               size, and paying their collection debt inside the timed
               region would charge this builder for that garbage. *)
            ignore (Formulation.build ~objective:Formulation.Feasibility dfg mrrg);
            Gc.full_major ();
            let encode_seconds, (f, (encode_profile : Formulation.profile)) =
              best_of 3 (fun () ->
                  let f, p =
                    Formulation.build_profiled ~objective:Formulation.Feasibility dfg mrrg
                  in
                  (p.Formulation.total_seconds, (f, p)))
            in
            let model_rows = (Formulation.size f).Formulation.n_rows in
            let solve =
              if size > 4 then None
              else
                let dt, result =
                  mean_of ~reps:1 (fun () ->
                      IM.map ~warm_start:0.0 ~deadline:(Deadline.after ~seconds:opts.limit) dfg mrrg)
                in
                Some (dt, result_status result)
            in
            Printf.printf "  %-8s %-6s %11.1fms %10d %10d %11.1fms %10s\n%!"
              (Topology.to_string topology)
              (Printf.sprintf "%dx%d" size size)
              (1000.0 *. elab_seconds) profile.Build.n_nodes profile.Build.n_edges
              (1000.0 *. encode_seconds)
              (match solve with
              | Some (dt, status) -> Printf.sprintf "%s %.1fs" status dt
              | None -> "-");
            Jsonl.Obj
              ([
                 ("size", Jsonl.Num (float_of_int size));
                 ("topology", Jsonl.Str (Topology.to_string topology));
                 ("elaborate_seconds", Jsonl.Num elab_seconds);
                 ("instance_seconds", Jsonl.Num profile.Build.instance_seconds);
                 ("wire_seconds", Jsonl.Num profile.Build.wire_seconds);
                 ("nodes", Jsonl.Num (float_of_int profile.Build.n_nodes));
                 ("edges", Jsonl.Num (float_of_int profile.Build.n_edges));
                 ("encode_seconds", Jsonl.Num encode_seconds);
                 ("model_rows", Jsonl.Num (float_of_int model_rows));
                 ( "encode_phases",
                   Jsonl.Obj
                     (List.map
                        (fun (k, s) -> (k, Jsonl.Num s))
                        (Formulation.profile_fields encode_profile)) );
               ]
              @
              match solve with
              | Some (dt, status) ->
                  [
                    ("solve_seconds", Jsonl.Num dt);
                    ("solve_status", Jsonl.Str status);
                    ("solve_budget_seconds", Jsonl.Num opts.limit);
                  ]
              | None -> []))
          [ 2; 4; 8; 16 ])
      [ Topology.Mesh; Topology.Torus ]
  in
  (* read before this run is journaled: the baseline is the last run *)
  let baseline field = last_journaled ~name:"archscale" ~rows:"rows" ~where:mesh_8x8 field in
  let elab_baseline = baseline "elaborate_seconds" and encode_baseline = baseline "encode_seconds" in
  record_bench_run ~name:"archscale"
    [
      ("benchmark", Jsonl.Str "mac");
      ("gate", Jsonl.Num archscale_gate);
      ("rows", Jsonl.List rows);
    ];
  let gate what field baseline =
    match (baseline, find_num ~where:mesh_8x8 field rows) with
    | Some base, Some current ->
        Printf.printf "  gate: 8x8 mesh %s %.1fms vs journaled %.1fms (limit %.1fx)\n%!" what
          (1000.0 *. current) (1000.0 *. base) archscale_gate;
        if current > archscale_gate *. base then begin
          Printf.eprintf
            "archscale: 8x8 %s regressed %.2fx over the journaled baseline (%.1fms -> %.1fms, \
             gate %.1fx)\n%!"
            what (current /. base) (1000.0 *. base) (1000.0 *. current) archscale_gate;
          exit 1
        end
    | None, _ ->
        Printf.printf
          "  gate: no journaled %s baseline yet — this run seeds BENCH_archscale.json\n%!" what
    | _, None -> ()
  in
  gate "elaboration" "elaborate_seconds" elab_baseline;
  gate "encode" "encode_seconds" encode_baseline;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Formulation A/B: paper per-edge model vs connectivity model         *)
(* ------------------------------------------------------------------ *)

(* The two formulations answer the same feasibility question from
   different constraint structures, so every cell both decide must get
   the same verdict (exit 3 on a flip — that is a soundness bug, not a
   performance regression).  The gate bounds conn's encode blowup
   instead of its solve time: the row count must stay within
   [conn_gate]x the paper formulation's on every cell, a deterministic
   tripwire for corridor-pruning regressions that CI timing noise
   cannot trip. *)
let conn_gate = 8.0

let run_conn opts =
  let module FI = Cgra_core.Formulation_intf in
  Cgra_conn.Conn.ensure_registered ();
  Printf.printf "== Formulation A/B: paper vs conn (limit %.0fs) ==\n" opts.limit;
  (* one side: encode (timed), then solve; sizes as rows and variables *)
  let measure name =
    let impl =
      match IM.find_formulation (Some name) with Ok i -> i | Error e -> failwith ("bench conn: " ^ e)
    in
    fun (dfg, mrrg) ->
    let encode_seconds, f =
      mean_of ~reps:1 (fun () -> impl.FI.build ~objective:Formulation.Feasibility dfg mrrg)
    in
    let report = Solve.solve_report ~deadline:(Deadline.after ~seconds:opts.limit) f.FI.model in
    let s = f.FI.size in
    ( float_of_int s.Formulation.n_rows,
      float_of_int (s.Formulation.n_f + s.Formulation.n_r + s.Formulation.n_rk),
      encode_seconds,
      outcome_status report.Solve.outcome,
      report.Solve.solve_seconds )
  in
  Printf.printf "  %-24s %-6s %16s %16s %18s\n" "cell" "status" "rows paper/conn"
    "enc paper/conn" "solve paper/conn";
  ab ~name:"conn"
    ~journal:(fun _ -> [ ("gate", Jsonl.Num conn_gate) ])
    ~gate:(fun rows ->
      let blowups = List.filter_map (fun row -> find_num "row_blowup" [ row ]) rows in
      if List.exists (fun b -> b > conn_gate) blowups then
        Some (Printf.sprintf "a cell's row count blew past %.1fx the paper formulation's" conn_gate)
      else None)
    ~agree:(fun (_, _, _, p, _) (_, _, _, c, _) ->
      if p = "TO" || c = "TO" || p = c then Agree else Flipped (p, c))
    ~prepare:(fun _ i -> i)
    ~row:(fun c (p_rows, p_vars, p_encode, _, p_solve) (c_rows, c_vars, c_encode, status, c_solve) ->
      let blowup = c_rows /. Float.max 1.0 p_rows in
      Printf.printf "  %-24s %-6s %7.0f/%8.0f %7.0f/%5.0fms %8.0f/%7.0fms\n%!" (cell_name c)
        status p_rows c_rows (1000.0 *. p_encode) (1000.0 *. c_encode) (1000.0 *. p_solve)
        (1000.0 *. c_solve);
      cell_fields c
      @ [
          ("status", Jsonl.Str status);
          ("paper_rows", Jsonl.Num p_rows);
          ("paper_vars", Jsonl.Num p_vars);
          ("paper_encode_seconds", Jsonl.Num p_encode);
          ("paper_solve_seconds", Jsonl.Num p_solve);
          ("conn_rows", Jsonl.Num c_rows);
          ("conn_vars", Jsonl.Num c_vars);
          ("conn_encode_seconds", Jsonl.Num c_encode);
          ("conn_solve_seconds", Jsonl.Num c_solve);
          ("row_blowup", Jsonl.Num blowup);
        ])
    ("paper", measure FI.default_name) ("conn", measure Cgra_conn.Conn.formulation_name)
    (* feasible and infeasible cells, both context counts; the 2x2 mac
       cell keeps an unsat verdict in the agreement check *)
    (List.map cell
       [
         ("mac", "homo-orth", 2, 1); ("mac", "homo-orth", 4, 1);
         ("mac", "hetero-orth", 4, 1); ("2x2-f", "homo-diag", 4, 1);
         ("accum", "homo-orth", 4, 1); ("2x2-f", "homo-orth", 2, 2);
       ])

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let parse_args () =
  let rec go opts cmds = function
    | [] -> (opts, List.rev cmds)
    | "--limit" :: v :: rest -> go { opts with limit = float_of_string v } cmds rest
    | "--size" :: v :: rest -> go { opts with size = int_of_string v } cmds rest
    | "--benchmark" :: v :: rest -> go { opts with benchmarks = v :: opts.benchmarks } cmds rest
    | "--seeds" :: v :: rest -> go { opts with seeds = int_of_string v } cmds rest
    | "--jobs" :: v :: rest -> go { opts with jobs = int_of_string v } cmds rest
    | "--journal" :: v :: rest -> go { opts with journal = v } cmds rest
    | "--backend" :: v :: rest -> go { opts with backend = v } cmds rest
    | cmd :: rest -> go opts (cmd :: cmds) rest
  in
  go default_options [] (List.tl (Array.to_list Sys.argv))

let () =
  let opts, cmds = parse_args () in
  let cmds = if cmds = [] then [ "all" ] else cmds in
  List.iter
    (function
      | "table1" -> run_table1 opts
      | "table2" -> run_table2 opts
      | "fig8" -> run_fig8 opts
      | "sizes" -> run_sizes opts
      | "ablation" -> run_ablation opts
      | "sweep" -> run_sweep_scaling opts
      | "certify" -> run_certify opts
      | "inprocess" -> run_inprocess opts
      | "explain" -> run_explain opts
      | "conn" -> run_conn opts
      | "crosscheck" -> run_crosscheck opts
      | "serve" -> run_serve opts
      | "archscale" | "arch-scale" -> run_archscale opts
      | "micro" -> run_micro ()
      | "all" ->
          run_table1 opts;
          run_table2 opts;
          run_fig8 opts;
          run_micro ()
      | other ->
          Printf.eprintf "unknown subcommand %S\n" other;
          exit 2)
    cmds
