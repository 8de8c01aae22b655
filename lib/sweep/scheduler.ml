type event =
  | Job_started of { index : int; total : int; worker : int; job : Job.t }
  | Job_finished of { index : int; total : int; worker : int; record : Record.t }

type stats = { ran : int; skipped : int; disagreements : int; wall_seconds : float }

module Deadline = Cgra_util.Deadline

(* Run the cross-check variant on a cell the primary answered
   definitively and fold the second opinion into the record.  The
   checker gets the same time budget; its timeout or error is
   inconclusive, recorded but never a disagreement. *)
let cross_check_record (checker : Runner.variant) (primary : Record.t) =
  let second = Runner.run_variant checker primary.Record.job in
  let agreed =
    Record.verdicts_agree ~status:primary.Record.status ~objective:primary.Record.objective
      ~status2:second.Record.status ~objective2:second.Record.objective
  in
  {
    primary with
    Record.cross =
      Some
        {
          Record.backend = checker.Runner.name;
          status = second.Record.status;
          objective = second.Record.objective;
          agreed;
        };
  }

let run ?(jobs = 1) ?(portfolio = false) ?(racers = []) ?cross_check ?executor ?certify
    ?explain ?(skip = fun _ -> false) ?(on_event = fun _ -> ()) job_list =
  let t0 = Deadline.now () in
  let all = Array.of_list job_list in
  let keep = Array.map (fun j -> not (skip j)) all in
  let pending = Array.to_list all |> List.filteri (fun i _ -> keep.(i)) |> Array.of_list in
  let total = Array.length pending in
  let results = Array.make total None in
  let next = Atomic.make 0 in
  let event_mutex = Mutex.create () in
  let emit e =
    Mutex.lock event_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock event_mutex) (fun () -> try on_event e with _ -> ())
  in
  let execute job =
    let primary =
      try
        match executor with
        | Some f -> f job
        | None ->
            if portfolio then
              let variants = match racers with [] -> None | vs -> Some vs in
              Portfolio.race ?variants ?certify ?explain job
            else Runner.run ?certify ?explain job
      with e -> Record.error job (Printexc.to_string e)
    in
    match cross_check with
    | Some checker when Record.definitive primary -> (
        try cross_check_record checker primary
        with e ->
          (* The check, not the answer, failed: keep the verdict and
             record an inconclusive second opinion. *)
          {
            primary with
            Record.cross =
              Some
                {
                  Record.backend = checker.Runner.name;
                  status = Record.Error (Printexc.to_string e);
                  objective = None;
                  agreed = true;
                };
          })
    | _ -> primary
  in
  let worker w =
    (* Claim jobs by fetch-and-add: each index is taken exactly once,
       and the claiming worker is the only writer of results.(i). *)
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let job = pending.(i) in
        emit (Job_started { index = i; total; worker = w; job });
        let record = execute job in
        results.(i) <- Some record;
        emit (Job_finished { index = i; total; worker = w; record });
        loop ()
      end
    in
    (* A worker must never die with jobs still queued: any escape from
       the loop machinery itself (executor exceptions are already
       per-job records) re-enters on the next index. *)
    let rec guard () = try loop () with _ -> guard () in
    guard ()
  in
  let n_workers = max 1 (min jobs (max 1 total)) in
  let spawned = List.init (n_workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
  worker 0;
  List.iter Domain.join spawned;
  let records =
    Array.to_list results
    |> List.mapi (fun i r ->
           match r with Some r -> r | None -> Record.error pending.(i) "job lost (scheduler bug)")
  in
  let stats =
    {
      ran = total;
      skipped = Array.length all - total;
      disagreements = List.length (List.filter Record.disagreement records);
      wall_seconds = Deadline.elapsed_of ~start:t0;
    }
  in
  (records, stats)
