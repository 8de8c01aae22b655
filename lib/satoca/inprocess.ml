(* The inprocessing scheduler: decides when and how much probing to
   run.  The solver fires the installed hook at the start of every
   solve and after every Luby restart; the scheduler rate-limits actual
   work by the conflict counter so probing amortises against search,
   and bounds each round by a propagation budget so a single invocation
   stays cheap on any instance size. *)

type config = Off | On | Eager

let probe_budget = 120_000 (* propagations per round *)

let of_spec = function
  | None | Some ("" | "on" | "1") -> On
  | Some ("off" | "0" | "none") -> Off
  | Some spec ->
      if List.exists (fun s -> String.trim s = "probe") (String.split_on_char ',' spec) then Eager
      else Off

let default () = of_spec (Sys.getenv_opt "CGRA_INPROCESS")

let install ?config solver =
  let cfg = match config with Some c -> c | None -> default () in
  match cfg with
  | Off -> Solver.set_inprocess solver None
  | On | Eager ->
      (* Min conflicts between two rounds.  The clock starts at zero,
         so under [On] the first round only fires once real search has
         accrued; [Eager] forces a round every time the hook fires. *)
      let interval = if cfg = Eager then 0 else 1000 in
      let last_conflicts = ref 0 in
      (* Probing backs off exponentially while it finds nothing: an
         instance whose binary-graph roots never fail would otherwise
         burn the full propagation budget every round for zero
         deductions.  One productive round resets the stride. *)
      let probe_stride = ref 1 in
      let probe_round = ref 0 in
      let hook s =
        let st = Solver.stats s in
        if st.conflicts - !last_conflicts >= interval && Solver.simp_prepare s then begin
          last_conflicts := st.conflicts;
          incr probe_round;
          if !probe_round mod !probe_stride = 0 then begin
            let before = st.probed_failed in
            Probe.run s ~budget:probe_budget;
            if (Solver.stats s).probed_failed = before then
              probe_stride := min 16 (2 * !probe_stride)
            else probe_stride := 1
          end
        end
      in
      Solver.set_inprocess solver (Some hook)
