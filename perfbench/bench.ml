(* The repository benchmark: one workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]

   Workloads (see README.md for why each exists):
   - feasible, refute, conn: grid workloads.  Each request is one
     [Ilp_mapper.map] call on a pinned cell; whole passes over the
     workload's cells, in a seeded order, run until the time budget
     would be exceeded by another pass.
   - serve: an in-process daemon ([Server.run], one pool worker) and a
     single client connection in a closed loop, fed a seeded request
     sequence over eight pinned cells.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics of a stage-by-stage
   replay (see [Replay]).  Every verdict is compared against its pin
   and every feasible mapping re-checked; a wrong verdict makes the
   result [correct = false] and the exit code 1.  Earlier stdout lines
   hold the pinned environment, per-cell rows and a summary.  Every
   end-to-end time is scaled to reference speed (see [Calib]). *)

module Benchmarks = Cgra_dfg.Benchmarks
module Dfg = Cgra_dfg.Dfg
module Library = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Mrrg = Cgra_mrrg.Mrrg
module IM = Cgra_core.Ilp_mapper
module Check = Cgra_core.Check
module Mapping = Cgra_core.Mapping
module Fi = Cgra_core.Formulation_intf
module Server = Cgra_serve.Server
module Engine = Cgra_serve.Engine
module Client = Cgra_serve.Client
module Protocol = Cgra_serve.Protocol
module Cache = Cgra_serve.Cache
module Jsonl = Cgra_sweep.Jsonl
module Rng = Cgra_util.Rng
module Deadline = Cgra_util.Deadline

let () = Cgra_conn.Conn.ensure_registered ()

(* Per-request deadline: several times the slowest cell, so a timeout
   is a regression rather than noise. *)
let request_limit = 60.0

(* Times each set-up is repeated in a run; setup_s is their median. *)
let setup_repeats = 9

(* ---------------- small helpers ---------------- *)

let now = Deadline.now

let sorted xs = List.sort compare xs

(* Harrell-Davis estimate of the [p] quantile: a weighted mean of the
   order statistics, the i-th (of n) weighted by the mass the
   Beta(p(n+1), (1-p)(n+1)) distribution puts on [(i-1)/n, i/n].  A
   workload's verdict times come from a handful of cells, so the plain
   sample median is one cell's time and jumps whenever two cells near
   the middle trade places; this estimate moves smoothly instead.  The
   weights are integrated numerically (midpoint rule, normalised). *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let alpha = p *. float (n + 1) and beta = (1.0 -. p) *. float (n + 1) in
    let steps_per_bin = 400 in
    let steps = n * steps_per_bin in
    let weights = Array.make n 0.0 in
    for k = 0 to steps - 1 do
      let x = (float k +. 0.5) /. float steps in
      let density = exp (((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x))) in
      let bin = k / steps_per_bin in
      weights.(bin) <- weights.(bin) +. density
    done;
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    Array.iteri (fun i w -> acc := !acc +. (w *. a.(i))) weights;
    !acc /. total
  end

(* Sample median, with the usual midpoint for even samples: the centre
   of one request's or one cell's repeated times. *)
let sample_median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs

let peak_heap_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0

let print_json j = print_endline (Jsonl.to_string j)

let num f = Jsonl.Num f
let str s = Jsonl.Str s

let shuffled rng xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  Array.to_list a

let fail_usage msg =
  prerr_endline ("bench: " ^ msg);
  exit 2

(* ---------------- arguments and environment ---------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref 0 and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME feasible | refute | conn | serve");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--commit", Arg.Set_string commit, "SHA source revision to record");
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = match !seed with Some s -> s | None -> fail_usage "--seed is required" in
  if not (List.mem !workload [ "feasible"; "refute"; "conn"; "serve" ]) then
    fail_usage (Printf.sprintf "unknown workload %S" !workload);
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  { workload = !workload; seed; seconds = !seconds; trace = !trace = 1; commit = !commit }

(* CGRA_INPROCESS silently changes the SAT solver's configuration, so a
   run under it would not measure the default pipeline: refuse it. *)
let check_environment () =
  match Sys.getenv_opt "CGRA_INPROCESS" with
  | Some v ->
      prerr_endline
        (Printf.sprintf
           "bench: CGRA_INPROCESS=%S is set; it changes the solver configuration. Unset it." v);
      exit 2
  | None -> ()

let print_env args =
  print_json
    (Jsonl.Obj
       [
         ( "env",
           Jsonl.Obj
             [
               ("workload", str args.workload);
               ("seed", num (float args.seed));
               ("seconds", num args.seconds);
               ("trace", Jsonl.Bool args.trace);
               ("commit", str args.commit);
               ("ocaml", str Sys.ocaml_version);
               ("nproc", num (float (Domain.recommended_domain_count ())));
               ("cgra_inprocess", str "unset");
               ("request_limit_s", num request_limit);
             ] );
       ])

(* ---------------- cells ---------------- *)

type prepared = { cell : Cells.t; dfg : Dfg.t; mrrg : Mrrg.t }

let library_config (c : Cells.t) =
  match Library.find_config ~size:c.Cells.size c.Cells.arch with
  | Some config -> config
  | None -> failwith ("unknown architecture " ^ c.Cells.arch)

let load_dfg (c : Cells.t) =
  match Benchmarks.by_name c.Cells.bench with
  | Some dfg -> dfg
  | None -> failwith ("unknown benchmark " ^ c.Cells.bench)

let prepare cells =
  List.map
    (fun cell ->
      let dfg = load_dfg cell in
      let arch = Library.make (library_config cell) in
      { cell; dfg; mrrg = Build.elaborate arch ~ii:cell.Cells.ii })
    cells

let cells_of = function
  | "feasible" -> Cells.feasible
  | "refute" -> Cells.refute
  | "conn" -> Cells.conn
  | _ -> Cells.serve

(* ---------------- metric output ---------------- *)

type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

let metrics_json ms =
  Jsonl.Obj
    (List.map
       (fun m -> (m.name, Jsonl.Obj [ ("value", num m.value); ("unit", str m.unit) ]))
       ms)

(* A summary line with sample counts precedes the result line, which
   carries only values and units. *)
let finish ~attempted ~failed ~wrong ~extra ms =
  print_json
    (Jsonl.Obj
       ([
          ( "summary",
            Jsonl.Obj
              (List.map
                 (fun m ->
                   ( m.name,
                     Jsonl.Obj
                       [ ("value", num m.value); ("unit", str m.unit); ("samples", num (float m.samples)) ]
                   ))
                 ms) );
          ("wrong_verdicts", num (float wrong));
        ]
       @ extra));
  let correct = wrong = 0 && failed = 0 in
  print_json
    (Jsonl.Obj
       [
         ("correct", Jsonl.Bool correct);
         ("attempted", num (float attempted));
         ("failed", num (float failed));
         ("metrics", metrics_json ms);
       ]);
  exit (if correct then 0 else 1)

(* ---------------- set-up ---------------- *)

(* ---------------- timing ---------------- *)

(* A timed interval: when it ran and the process CPU seconds it took. *)
type interval = { start : float; stop : float; cpu : float }

let measured i = i.stop -. i.start

(* Run [f], timing it, and read the meter right after it (see [Calib]). *)
let interval meter f =
  let c0 = Sys.time () and t0 = now () in
  let v = f () in
  let i = { start = t0; stop = now (); cpu = Sys.time () -. c0 } in
  Calib.read meter;
  (v, i)

(* Wall and CPU seconds of an interval at reference speed.  Computed
   once the run is over, when the meter holds the readings on both
   sides of every interval. *)
let at_reference meter i =
  let k = Calib.factor meter ~start:i.start ~stop:i.stop in
  (measured i *. k, i.cpu *. k)

let wall_at_reference meter i = fst (at_reference meter i)

(* Repeat the set-up [setup_repeats] times and keep the last result and
   every repeat's interval; setup_s is their median at reference speed. *)
let repeated_setup meter f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_repeats do
    let v, i = interval meter f in
    times := i :: !times;
    last := Some v
  done;
  (Option.get !last, !times)

(* ---------------- grid workloads: untraced ---------------- *)

type sample = {
  s_cell : Cells.t;
  s_time : interval;
  s_verdict : string;
  s_right : bool;  (** verdict equals the pin, and a mapping passes Check *)
  s_info : IM.info;
}

let status = function
  | IM.Mapped _ -> "feasible"
  | IM.Infeasible _ -> "infeasible"
  | IM.Timeout _ -> "timeout"

let info_of = function IM.Mapped (_, i) | IM.Infeasible i | IM.Timeout i -> i

let map_cell p =
  let c = p.cell in
  IM.map ~formulation:c.Cells.formulation ~certify:c.Cells.certify
    ~deadline:(Deadline.after ~seconds:request_limit) p.dfg p.mrrg

let right_answer (c : Cells.t) result =
  match (c.Cells.expect, result) with
  | Cells.Feasible, IM.Mapped (m, _) -> Check.is_legal m
  | Cells.Infeasible, IM.Infeasible i -> (not c.Cells.certify) || i.IM.certified
  | _ -> false

(* A grid request under [interval].  A full major collection first (not
   timed) makes each request start from the same heap, whatever ran
   before it. *)
let timed meter f =
  Gc.full_major ();
  interval meter f

(* Run passes until another pass (estimated by the longest pass so far)
   would overrun the budget; always at least one.  The first pass
   visits every cell in table order and the heap's high-water mark is
   read after it, so that figure does not depend on the seed; later
   passes visit the cells in seeded orders.  Returns the samples and
   the peak heap. *)
let run_passes ~rng ~seconds ~run_one prepared =
  let t_start = now () in
  let samples = ref [] and heap = ref 0.0 in
  let rec loop order longest =
    let t0 = now () in
    List.iter (fun p -> samples := run_one p :: !samples) order;
    if !heap = 0.0 then heap := peak_heap_mb ();
    let longest = Float.max longest (now () -. t0) in
    if now () -. t_start +. longest <= seconds then loop (shuffled rng prepared) longest
  in
  loop prepared 0.0;
  (List.rev !samples, !heap)

(* Group timed samples by key: the key's median wall and CPU seconds
   and its sample count, in first-seen order.  Medians over the run's
   passes, of times already at reference speed, are what keeps one run
   close to the next on a shared host (see [Calib]). *)
let medians samples =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (k, wall, cpu) ->
      match Hashtbl.find_opt tbl k with
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k ([ wall ], [ cpu ])
      | Some (ws, cs) -> Hashtbl.replace tbl k (wall :: ws, cpu :: cs))
    samples;
  List.rev_map
    (fun k ->
      let ws, cs = Hashtbl.find tbl k in
      (k, (sample_median ws, sample_median cs, List.length ws)))
    !order

(* [samples] pairs each sample with its wall and CPU seconds at
   reference speed. *)
let cell_rows workload samples =
  let by_cell = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let id = Cells.id (fst s).s_cell in
      Hashtbl.replace by_cell id (s :: Option.value (Hashtbl.find_opt by_cell id) ~default:[]))
    samples;
  Hashtbl.fold (fun id ss acc -> (id, List.rev ss) :: acc) by_cell []
  |> List.sort compare
  |> List.iter (fun (id, ss) ->
         let walls = List.map (fun (_, (w, _)) -> w) ss in
         let raws = List.map (fun (s, _) -> measured s.s_time) ss in
         let ss = List.map fst ss in
         let s = List.hd ss in
         let i = s.s_info in
         print_json
           (Jsonl.Obj
              [
                ( "row",
                  Jsonl.Obj
                    ([
                       ("workload", str workload);
                       ("cell", str id);
                       ("expect", str (Cells.verdict_name s.s_cell.Cells.expect));
                       ("verdict", str s.s_verdict);
                       ("right", Jsonl.Bool (List.for_all (fun s -> s.s_right) ss));
                       ("samples", num (float (List.length ss)));
                       ("verdict_p50_s", num (sample_median walls));
                       ("measured_p50_s", num (sample_median raws));
                       ("measured_min_s", num (List.fold_left Float.min infinity raws));
                       ("measured_max_s", num (List.fold_left Float.max 0.0 raws));
                       ("build_s", num i.IM.build_seconds);
                       ("solve_s", num i.IM.solve_seconds);
                       ("rows", num (float i.IM.size.Cgra_core.Formulation.n_rows));
                       ("sat_calls", num (float i.IM.sat_calls));
                       ("presolve_fixed", num (float i.IM.presolve_fixed));
                       ("proof_steps", num (float i.IM.proof_steps));
                     ]
                    @ List.map (fun (k, v) -> (k, num (float v))) i.IM.inprocess) );
              ]))

let grid_untraced args =
  let cells = cells_of args.workload in
  let meter = Calib.meter () in
  let prepared, setup_times = repeated_setup meter (fun () -> prepare cells) in
  let rng = Rng.create ~seed:args.seed in
  let run_one p =
    let r, time = timed meter (fun () -> map_cell p) in
    {
      s_cell = p.cell;
      s_time = time;
      s_verdict = status r;
      s_right = right_answer p.cell r;
      s_info = info_of r;
    }
  in
  let samples, heap = run_passes ~rng ~seconds:args.seconds ~run_one prepared in
  let scaled = List.map (fun s -> (s, at_reference meter s.s_time)) samples in
  cell_rows args.workload scaled;
  let n = List.length samples in
  let decided = List.length (List.filter (fun s -> s.s_verdict <> "timeout") samples) in
  let wrong = List.length (List.filter (fun s -> not s.s_right) samples) in
  let per_cell = medians (List.map (fun (s, (wall, cpu)) -> (Cells.id s.s_cell, wall, cpu)) scaled) in
  let walls = List.map (fun (_, (w, _, _)) -> w) per_cell in
  let cpus = List.map (fun (_, (_, c, _)) -> c) per_cell in
  let nc = List.length per_cell in
  let p50 = percentile 0.5 walls and p90 = percentile 0.9 walls in
  (* One request path: every grid request is a cold one-shot [map]
     call, so the request-class metrics of the serve workload repeat
     the all-request figures here (see README.md). *)
  finish ~attempted:n ~failed:(n - decided) ~wrong ~extra:[ ("samples", num (float n)) ]
    [
      metric ~samples:setup_repeats "setup_s" "s"
        (sample_median (List.map (wall_at_reference meter) setup_times));
      metric ~samples:n "wall_s" "s" (sum walls);
      metric ~samples:n "cpu_s" "s" (sum cpus);
      metric ~samples:n "decided_ratio" "ratio" (float decided /. float n);
      metric "peak_heap_mb" "MiB" heap;
      metric ~samples:nc "verdict_p50_s" "s" p50;
      metric ~samples:nc "verdict_p90_s" "s" p90;
      metric ~samples:nc "cold_p50_s" "s" p50;
      metric ~samples:nc "fast_p50_s" "s" p50;
      metric ~samples:nc "fast_p90_s" "s" p90;
      metric ~samples:nc "slow_p50_s" "s" p50;
    ]

(* ---------------- per-layer metrics ---------------- *)

(* Span name -> per_layer metric name. *)
let span_metrics =
  [
    ("library.make", "library.make_s");
    ("build.elaborate", "build.elaborate_s");
    ("formulation.build", "formulation.build_s");
    ("anneal", "anneal.s");
    ("presolve", "presolve.s");
    ("encode", "encode.s");
    ("solver", "solver.s");
    ("check.extract", "check.extract_s");
    ("check.run", "check.run_s");
    ("drat", "drat.s");
  ]

(* Counters summed over the requests of a pass, in output order. *)
let count_metrics =
  [
    ("build.nodes", "count");
    ("build.edges", "count");
    ("formulation.placement_s", "s");
    ("formulation.corridors_s", "s");
    ("formulation.routing_rows_s", "s");
    ("formulation.exclusivity_s", "s");
    ("formulation.rows", "count");
    ("formulation.vars", "count");
    ("presolve.fixed", "count");
    ("presolve.rows_dropped", "count");
    ("encode.sat_vars", "count");
    ("encode.clauses", "count");
    ("solver.sat_calls", "count");
    ("solver.conflicts", "count");
    ("solver.decisions", "count");
    ("solver.propagations", "count");
    ("solver.restarts", "count");
    ("solver.learnt", "count");
    ("inprocess.probed_failed", "count");
    ("inprocess.subsumed", "count");
    ("inprocess.strengthened", "count");
    ("inprocess.eliminated", "count");
    ("inprocess.substituted", "count");
    ("drat.proof_steps", "count");
  ]

(* Counters that must repeat exactly when a cell is replayed again. *)
let deterministic name =
  List.exists (fun prefix -> String.starts_with ~prefix name) [ "solver."; "inprocess."; "presolve." ]

let deterministic_counts (o : Replay.outcome) =
  List.filter (fun (k, _) -> deterministic k) o.Replay.counts

(* The replay took the same path as [map] when it found the same
   mapping and every counter [map] reports agrees with the replay's. *)
let mirrors result (o : Replay.outcome) =
  let i = info_of result in
  let get k = Option.value (List.assoc_opt k o.Replay.counts) ~default:0.0 in
  (match (result, o.Replay.mapping) with
  | IM.Mapped (m, _), Some r ->
      m.Mapping.placement = r.Mapping.placement && m.Mapping.routes = r.Mapping.routes
  | IM.Mapped _, None | _, Some _ -> false
  | _, None -> true)
  && get "solver.sat_calls" = float i.IM.sat_calls
  && get "presolve.fixed" = float i.IM.presolve_fixed
  && get "drat.proof_steps" = float i.IM.proof_steps
  && List.for_all (fun (k, v) -> get ("inprocess." ^ k) = float v) i.IM.inprocess

let add_counts tbl counts =
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0))
    counts

let span_totals tr =
  let tbl = Hashtbl.create 16 in
  Replay.iter_spans tr (fun _ s ->
      Hashtbl.replace tbl s.Replay.name
        (Replay.duration s +. Option.value (Hashtbl.find_opt tbl s.Replay.name) ~default:0.0));
  tbl

(* Share of the request spans' time that their child spans account for. *)
let coverage tr =
  let roots = ref 0.0 and children = ref 0.0 in
  Replay.iter_spans tr (fun _ s ->
      if s.Replay.parent < 0 then roots := !roots +. Replay.duration s
      else children := !children +. Replay.duration s);
  if !roots > 0.0 then !children /. !roots else 0.0

(* Chrome trace-event JSON of every span, written when the run ends. *)
let write_trace args traces =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let events =
    List.concat_map
      (fun (pass, tr) ->
        let evs = ref [] in
        Replay.iter_spans tr (fun i s ->
            evs :=
              Jsonl.Obj
                [
                  ("name", str s.Replay.name);
                  ("ph", str "X");
                  ("ts", num (s.Replay.start *. 1e6));
                  ("dur", num (Replay.duration s *. 1e6));
                  ("pid", num (float pass));
                  ("tid", num (float s.Replay.req));
                  ("args", Jsonl.Obj [ ("span", num (float i)); ("parent", num (float s.Replay.parent)) ]);
                ]
              :: !evs);
        List.rev !evs)
      traces
  in
  let path = Printf.sprintf "%s/trace-%s-%d.json" dir args.workload args.seed in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Jsonl.to_string (Jsonl.List events)))

(* One row per replayed request: its verdict, the seconds of each
   layer span and its counters. *)
let trace_rows workload tr replays =
  List.iteri
    (fun req ((c : Cells.t), (o : Replay.outcome)) ->
      let spans = ref [] in
      Replay.iter_spans tr (fun _ s ->
          if s.Replay.req = req then
            let name =
              match List.assoc_opt s.Replay.name span_metrics with
              | Some m -> m
              | None -> s.Replay.name ^ "_s"
            in
            spans := (name, num (Replay.duration s)) :: !spans);
      print_json
        (Jsonl.Obj
           [
             ( "row",
               Jsonl.Obj
                 ([ ("workload", str workload); ("cell", str (Cells.id c)); ("verdict", str o.Replay.verdict) ]
                 @ List.rev !spans
                 @ List.map (fun (k, v) -> (k, num v)) o.Replay.counts) );
           ]))
    replays

type layer_pass = {
  totals : (string, float) Hashtbl.t;  (** span name -> summed seconds *)
  counts : (string, float) Hashtbl.t;  (** counter -> summed value *)
  cover : float;
  wall : float;
}

let layer_metrics ~passes ~untraced_wall ~engine =
  let first = List.hd passes in
  let time name = sample_median (List.map (fun p -> Option.value (Hashtbl.find_opt p.totals name) ~default:0.0) passes) in
  let count name = Option.value (Hashtbl.find_opt first.counts name) ~default:0.0 in
  let attempted = count "anneal.attempted" in
  let traced_wall = sample_median (List.map (fun p -> p.wall) passes) in
  List.map (fun (span, name) -> metric name "s" (time span)) span_metrics
  @ List.map
      (fun (name, unit) ->
        if unit = "s" then metric name unit (sample_median (List.map (fun p -> Option.value (Hashtbl.find_opt p.counts name) ~default:0.0) passes))
        else metric name unit (count name))
      count_metrics
  @ [
      metric "anneal.mapped_ratio" "ratio"
        (if attempted > 0.0 then count "anneal.mapped" /. attempted else 0.0);
    ]
  @ engine
  @ [
      metric "trace.coverage_ratio" "ratio" (sample_median (List.map (fun p -> p.cover) passes));
      metric "trace.overhead_ratio" "ratio" (traced_wall /. untraced_wall);
    ]

let no_engine =
  [
    metric "engine.fast_s" "s" 0.0;
    metric "engine.slow_s" "s" 0.0;
    metric "engine.session_hit_ratio" "ratio" 0.0;
    metric "engine.mrrg_hit_ratio" "ratio" 0.0;
  ]

(* Set-up under spans: one library.make and one build.elaborate per cell. *)
let traced_prepare tr counts cells =
  List.mapi
    (fun req cell ->
      let dfg = load_dfg cell in
      let arch =
        Replay.with_span tr ~req ~parent:(-1) "library.make" (fun _ ->
            Library.make (library_config cell))
      in
      let mrrg =
        Replay.with_span tr ~req ~parent:(-1) "build.elaborate" (fun _ ->
            Build.elaborate arch ~ii:cell.Cells.ii)
      in
      add_counts counts
        [ ("build.nodes", float (Mrrg.n_nodes mrrg)); ("build.edges", float (Mrrg.n_edges mrrg)) ];
      { cell; dfg; mrrg })
    cells

let impl_of (c : Cells.t) =
  match Fi.find c.Cells.formulation with
  | Some impl -> impl
  | None -> failwith ("unknown formulation " ^ c.Cells.formulation)

(* ---------------- grid workloads: traced ---------------- *)

(* One untraced pass, then two traced replays of the same order: the
   replayed verdicts must equal the untraced ones and the pins, and
   the two replays must agree on every solver, inprocess and presolve
   counter of every cell. *)
let grid_traced args =
  let cells = cells_of args.workload in
  let rng = Rng.create ~seed:args.seed in
  let order = shuffled rng cells in
  let prepared = prepare order in
  let timed_untraced =
    List.map
      (fun p ->
        Gc.full_major ();
        let t0 = now () in
        let r = map_cell p in
        ((p, r), now () -. t0))
      prepared
  in
  let untraced = List.map fst timed_untraced in
  let untraced_wall = sum (List.map snd timed_untraced) in
  let traced_pass pass =
    let tr = Replay.create_trace () and counts = Hashtbl.create 64 in
    (* set-up spans are kept apart so coverage measures requests only *)
    let setup_tr = Replay.create_trace () in
    let prepared = traced_prepare setup_tr counts order in
    let outcomes =
      List.mapi
        (fun req p ->
          Gc.full_major ();
          let o =
            Replay.run tr ~req ~deadline:(Deadline.after ~seconds:request_limit) ~warm_start:5.0
              ~certify:p.cell.Cells.certify (impl_of p.cell) p.dfg p.mrrg
          in
          add_counts counts o.Replay.counts;
          (p.cell, o))
        prepared
    in
    let wall = ref 0.0 in
    Replay.iter_spans tr (fun _ s -> if s.Replay.parent < 0 then wall := !wall +. Replay.duration s);
    let wall = !wall in
    let totals = span_totals tr in
    Hashtbl.iter (fun k v -> Hashtbl.replace totals k v) (span_totals setup_tr);
    ((pass, tr), { totals; counts; cover = coverage tr; wall }, outcomes)
  in
  let passes = List.map traced_pass [ 1; 2 ] in
  let wrong = ref 0 and failed = ref 0 and mismatches = ref [] in
  let mismatch m =
    incr wrong;
    mismatches := m :: !mismatches
  in
  let outcomes = List.map (fun (_, _, o) -> o) passes in
  List.iteri
    (fun i (p, r) ->
      let c = p.cell in
      let id = Cells.id c in
      if status r = "timeout" then incr failed;
      if not (right_answer c r) then incr wrong;
      let replays = List.map (fun os -> snd (List.nth os i)) outcomes in
      List.iter
        (fun (o : Replay.outcome) ->
          if o.Replay.verdict <> status r
             || o.Replay.verdict <> Cells.verdict_name c.Cells.expect
             || not o.Replay.legal
          then
            mismatch
              (Printf.sprintf "%s: replayed %s, map %s, pinned %s" id o.Replay.verdict (status r)
                 (Cells.verdict_name c.Cells.expect));
          if not (mirrors r o) then mismatch (id ^ ": replay diverges from map (mapping or counters)"))
        replays;
      match List.map deterministic_counts replays with
      | [ a; b ] when a <> b -> mismatch (id ^ ": counters differ between replays")
      | _ -> ())
    untraced;
  List.iter (fun m -> prerr_endline ("bench: determinism/verdict check failed: " ^ m)) !mismatches;
  (match passes with
  | ((_, tr), _, outcomes) :: _ -> trace_rows args.workload tr outcomes
  | [] -> ());
  write_trace args (List.map (fun (t, _, _) -> t) passes);
  let n = List.length untraced in
  finish ~attempted:n ~failed:!failed ~wrong:!wrong
    ~extra:[ ("replay_mismatches", num (float (List.length !mismatches))) ]
    (layer_metrics
       ~passes:(List.map (fun (_, lp, _) -> lp) passes)
       ~untraced_wall ~engine:no_engine)

(* ---------------- serve workload ---------------- *)

type request = { r_cell : Cells.t; r_certify : bool; r_class : string (* cold | fast | slow *) }

(* One epoch's sequence: a cold round (the first, plain request per
   cell), then a warm round in which every cell gets three plain
   requests and one certified one, in a seeded order, or in table order
   without [rng].  The mix is fixed and only the order depends on the
   seed. *)
let epoch_requests ?rng cells =
  let order xs = match rng with Some rng -> shuffled rng xs | None -> xs in
  let cold = List.map (fun c -> { r_cell = c; r_certify = false; r_class = "cold" }) (order cells) in
  let warm =
    order
      (List.concat_map
         (fun c ->
           { r_cell = c; r_certify = true; r_class = "slow" }
           :: List.init 3 (fun _ -> { r_cell = c; r_certify = false; r_class = "fast" }))
         cells)
  in
  [ cold; warm ]

let map_request r =
  let c = r.r_cell in
  {
    Protocol.benchmark = c.Cells.bench;
    dfg_text = None;
    arch = c.Cells.arch;
    adl_text = None;
    size = c.Cells.size;
    contexts = c.Cells.ii;
    limit = request_limit;
    optimize = false;
    certify = r.r_certify;
    explain = false;
    backend = None;
  }

(* A served verdict is right when it matches the pin, places every DFG
   node, and carries its certificate when one was asked for. *)
let served_right dfgs r (v : Protocol.verdict) =
  let c = r.r_cell in
  v.Protocol.status = Cells.verdict_name c.Cells.expect
  && ((not r.r_certify) || v.Protocol.certified)
  && (c.Cells.expect <> Cells.Feasible
     ||
     let dfg = List.assoc (Cells.id c) dfgs in
     List.for_all (fun (n : Dfg.node) -> List.mem_assoc n.Dfg.name v.Protocol.placement) (Dfg.nodes dfg))

type daemon = { domain : (unit, string) result Domain.t; client : Client.t }

let socket_path () = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ())

let start_daemon () =
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  let socket_path = socket_path () in
  let config =
    {
      Server.default_config with
      Server.socket_path;
      pool_size = 1;
      queue_capacity = 4;
      max_limit = request_limit;
    }
  in
  let ready = Atomic.make false in
  let domain = Domain.spawn (fun () -> Server.run ~on_ready:(fun () -> Atomic.set ready true) config) in
  let give_up = now () +. 10.0 in
  while (not (Atomic.get ready)) && now () < give_up do
    Unix.sleepf 0.0002
  done;
  match Client.connect ~socket:socket_path with
  | Ok client -> { domain; client }
  | Error e -> failwith ("cannot connect to the daemon: " ^ e)

let stop_daemon d =
  ignore (Client.roundtrip d.client { Protocol.id = None; payload = Protocol.Shutdown });
  Client.close d.client;
  match Domain.join d.domain with Ok () -> () | Error e -> failwith ("daemon failed: " ^ e)

let serve_setup cells =
  let dfgs = List.map (fun c -> (Cells.id c, load_dfg c)) cells in
  List.iter (fun c -> ignore (Library.make (library_config c))) cells;
  (dfgs, start_daemon ())

type served = {
  q : request;
  time : interval;  (** process CPU seconds include the daemon's domains *)
  verdict : Protocol.verdict option;
  right : bool;
}

let send meter dfgs d r =
  let reply, time =
    interval meter (fun () ->
        Client.roundtrip d.client { Protocol.id = None; payload = Protocol.Map (map_request r) })
  in
  match reply with
  | Ok { Protocol.reply = Protocol.Verdict v; _ } ->
      { q = r; time; verdict = Some v; right = served_right dfgs r v }
  | Ok _ | Error _ -> { q = r; time; verdict = None; right = false }

(* One daemon epoch over the socket, in request order. *)
let socket_epoch meter dfgs d rounds = List.map (send meter dfgs d) (List.concat rounds)

let decided s = match s.verdict with Some v -> v.Protocol.status <> "timeout" | None -> false

(* Daemon epochs (set-up, cold round, warm round, shutdown) repeat
   until another would overrun the budget; always at least one.  The
   first epoch sends its requests in table order and the heap's
   high-water mark is read after it, so that figure does not depend on
   the seed; later epochs use seeded orders. *)
let serve_untraced args =
  let cells = Cells.serve in
  let meter = Calib.meter () in
  (* set-up only: start the daemon (timed) and stop it again *)
  let setup_times =
    List.init setup_repeats (fun _ ->
        let (_, d), time = interval meter (fun () -> serve_setup cells) in
        stop_daemon d;
        time)
  in
  let rng = Rng.create ~seed:args.seed in
  let t_start = now () in
  let results = ref [] and heap = ref 0.0 in
  let rec loop longest =
    let t0 = now () in
    let dfgs, d = serve_setup cells in
    let rng = if !heap = 0.0 then None else Some rng in
    results := List.rev_append (socket_epoch meter dfgs d (epoch_requests ?rng cells)) !results;
    stop_daemon d;
    if !heap = 0.0 then heap := peak_heap_mb ();
    (* the stopped daemon's sessions are garbage now: collect them so
       the next epoch's heap starts from the same state *)
    Gc.full_major ();
    let longest = Float.max longest (now () -. t0) in
    if now () -. t_start +. longest <= args.seconds then loop longest
  in
  loop 0.0;
  let results = List.rev !results in
  let of_class cls = List.filter (fun s -> s.q.r_class = cls) results in
  let latency s = wall_at_reference meter s.time in
  let per_cell cls =
    medians
      (List.map
         (fun s ->
           let wall, cpu = at_reference meter s.time in
           (Cells.id s.q.r_cell, wall, cpu))
         (of_class cls))
  in
  let cold = per_cell "cold" and fast = per_cell "fast" and slow = per_cell "slow" in
  List.iter
    (fun c ->
      let id = Cells.id c in
      let cls name b =
        let w, _, k = List.assoc id b in
        [ (name ^ "_p50_s", num w); (name ^ "_samples", num (float k)) ]
      in
      let mine = List.filter (fun s -> s.q.r_cell = c) results in
      print_json
        (Jsonl.Obj
           [
             ( "row",
               Jsonl.Obj
                 ([
                    ("workload", str args.workload);
                    ("cell", str id);
                    ("expect", str (Cells.verdict_name c.Cells.expect));
                    ("right", Jsonl.Bool (List.for_all (fun s -> s.right) mine));
                  ]
                 @ cls "cold" cold @ cls "fast" fast @ cls "slow" slow) );
           ]))
    cells;
  let latencies cls = List.map latency (of_class cls) in
  (* one warm round — three plain and one certified request per cell —
     with every request at its cell's median *)
  let round pick =
    List.concat_map (fun (k, f) -> let s = List.assoc k slow in [ pick f; pick f; pick f; pick s ]) fast
  in
  let round_walls = round (fun (w, _, _) -> w) and round_cpus = round (fun (_, c, _) -> c) in
  let n = List.length results in
  let nd = List.length (List.filter decided results) in
  let wrong = List.length (List.filter (fun s -> not s.right) results) in
  let count b = List.fold_left (fun acc (_, (_, _, k)) -> acc + k) 0 b in
  let cold_all = latencies "cold" and fast_all = latencies "fast" and slow_all = latencies "slow" in
  finish ~attempted:n ~failed:(n - nd) ~wrong ~extra:[ ("samples", num (float n)) ]
    [
      metric ~samples:setup_repeats "setup_s" "s"
        (sample_median (List.map (wall_at_reference meter) setup_times));
      metric ~samples:(count fast + count slow) "wall_s" "s" (sum round_walls);
      metric ~samples:(count fast + count slow) "cpu_s" "s" (sum round_cpus);
      metric ~samples:n "decided_ratio" "ratio" (float nd /. float n);
      metric "peak_heap_mb" "MiB" !heap;
      metric ~samples:(List.length round_walls) "verdict_p50_s" "s" (percentile 0.5 round_walls);
      metric ~samples:(List.length round_walls) "verdict_p90_s" "s" (percentile 0.9 round_walls);
      metric ~samples:(List.length cold_all) "cold_p50_s" "s" (percentile 0.5 cold_all);
      metric ~samples:(List.length fast_all) "fast_p50_s" "s" (percentile 0.5 fast_all);
      metric ~samples:(List.length fast_all) "fast_p90_s" "s" (percentile 0.9 fast_all);
      metric ~samples:(List.length slow_all) "slow_p50_s" "s" (percentile 0.5 slow_all);
    ]

let engine_span_name r = "engine." ^ r.r_class

(* The serve trace: the epoch's sequence once over the socket
   (untraced), once through an in-process [Engine] untraced, and twice
   through fresh in-process engines with a span around every
   [Engine.handle_map].  Each certified (slow-path) request is also
   replayed stage by stage — it is a one-shot [map] without warm start
   — to attribute its time to layers. *)
let serve_traced args =
  let cells = Cells.serve in
  let rng = Rng.create ~seed:args.seed in
  let rounds = epoch_requests ~rng cells in
  let requests = List.concat rounds in
  let meter = Calib.meter () in
  let dfgs, d = serve_setup cells in
  let socket = socket_epoch meter dfgs d rounds in
  stop_daemon d;
  let engine_epoch ~traced =
    let engine = Engine.create ~max_limit:request_limit () in
    let tr = Replay.create_trace () in
    let t0 = now () in
    let out =
      List.mapi
        (fun req r ->
          let handle () = Engine.handle_map engine (map_request r) in
          if traced then Replay.with_span tr ~req ~parent:(-1) (engine_span_name r) (fun _ -> handle ())
          else handle ())
        requests
    in
    (engine, tr, out, now () -. t0)
  in
  let _, _, _, untraced_wall = engine_epoch ~traced:false in
  let epochs = List.map (fun _ -> engine_epoch ~traced:true) [ 1; 2 ] in
  let wrong = ref 0 and failed = ref 0 and mismatches = ref [] in
  let mismatch m =
    incr wrong;
    mismatches := m :: !mismatches
  in
  List.iter
    (fun s ->
      if not (decided s) then incr failed;
      if not s.right then mismatch (Cells.id s.q.r_cell ^ ": wrong verdict over the socket"))
    socket;
  List.iter
    (fun (_, _, out, _) ->
      List.iter2
        (fun r res ->
          match res with
          | Ok v when served_right dfgs r v -> ()
          | _ -> mismatch (Cells.id r.r_cell ^ ": wrong verdict in process"))
        requests out)
    epochs;
  (match epochs with
  | [ (_, _, a, _); (_, _, b, _) ] ->
      List.iteri
        (fun i (x, y) ->
          match (x, y) with
          | Ok (v : Protocol.verdict), Ok (w : Protocol.verdict)
            when v.Protocol.status = w.Protocol.status
                 && v.Protocol.provenance.Protocol.inprocess = w.Protocol.provenance.Protocol.inprocess ->
              ()
          | _ -> mismatch (Printf.sprintf "request %d: engine epochs disagree" i))
        (List.combine a b)
  | _ -> ());
  let socket_total = sum (List.map (fun s -> measured s.time) socket) in
  let layer_pass (engine, etr, out, wall) =
    let tr = Replay.create_trace () and counts = Hashtbl.create 64 in
    let setup_tr = Replay.create_trace () in
    let prepared = traced_prepare setup_tr counts cells in
    let slow = List.filter (fun (r, _) -> r.r_class = "slow") (List.combine requests out) in
    let replays =
      List.mapi
        (fun req (r, served) ->
          let p = List.find (fun p -> p.cell = r.r_cell) prepared in
          let o =
            Replay.run tr ~req ~deadline:(Deadline.after ~seconds:request_limit) ~warm_start:0.0
              ~certify:true (impl_of p.cell) p.dfg p.mrrg
          in
          add_counts counts o.Replay.counts;
          let id = Cells.id r.r_cell in
          if o.Replay.verdict <> Cells.verdict_name r.r_cell.Cells.expect || not o.Replay.legal then
            mismatch (id ^ ": replayed " ^ o.Replay.verdict);
          (* the slow path is a one-shot map: its inprocessing counters
             must be the replay's *)
          (match served with
          | Ok (v : Protocol.verdict)
            when List.for_all
                   (fun (k, n) -> List.assoc_opt ("inprocess." ^ k) o.Replay.counts = Some (float n))
                   v.Protocol.provenance.Protocol.inprocess ->
              ()
          | _ -> mismatch (id ^ ": replay diverges from the engine's slow path"));
          (r.r_cell, o))
        slow
    in
    let totals = span_totals tr in
    Hashtbl.iter (fun k v -> Hashtbl.replace totals k v) (span_totals setup_tr);
    let engine_total = ref 0.0 in
    Replay.iter_spans etr (fun _ s -> engine_total := !engine_total +. Replay.duration s);
    let cover = if socket_total > 0.0 then !engine_total /. socket_total else 0.0 in
    ( ({ totals; counts; cover; wall } : layer_pass),
      List.map (fun (_, o) -> deterministic_counts o) replays,
      engine,
      etr,
      (tr, replays) )
  in
  let passes = List.map layer_pass epochs in
  (match passes with
  | [ (_, a, _, _, _); (_, b, _, _, _) ] when a <> b -> mismatch "slow-path replays: counters differ"
  | _ -> ());
  List.iter (fun m -> prerr_endline ("bench: determinism/verdict check failed: " ^ m)) !mismatches;
  let _, _, engine, etr, (replay_tr, replays) = List.hd passes in
  trace_rows args.workload replay_tr replays;
  let engine_median cls =
    let ds = ref [] in
    Replay.iter_spans etr (fun _ s -> if s.Replay.name = "engine." ^ cls then ds := Replay.duration s :: !ds);
    sample_median !ds
  in
  let hit_ratio (st : Cache.stats) =
    let total = st.Cache.hits + st.Cache.misses in
    if total = 0 then 0.0 else float st.Cache.hits /. float total
  in
  let engine_metrics =
    [
      metric "engine.fast_s" "s" (engine_median "fast");
      metric "engine.slow_s" "s" (engine_median "slow");
      metric "engine.session_hit_ratio" "ratio" (hit_ratio (Engine.session_cache_stats engine));
      metric "engine.mrrg_hit_ratio" "ratio" (hit_ratio (Engine.mrrg_cache_stats engine));
    ]
  in
  write_trace args
    (List.concat
       (List.mapi (fun i (_, _, _, etr, (rtr, _)) -> [ ((2 * i) + 1, etr); ((2 * i) + 2, rtr) ]) passes));
  let n = List.length socket in
  finish ~attempted:n ~failed:!failed ~wrong:!wrong
    ~extra:[ ("replay_mismatches", num (float (List.length !mismatches))) ]
    (layer_metrics
       ~passes:(List.map (fun (lp, _, _, _, _) -> lp) passes)
       ~untraced_wall ~engine:engine_metrics)

(* ---------------- main ---------------- *)

let () =
  let args = parse_args () in
  check_environment ();
  print_env args;
  match (args.workload, args.trace) with
  | "serve", false -> serve_untraced args
  | "serve", true -> serve_traced args
  | _, false -> grid_untraced args
  | _, true -> grid_traced args
