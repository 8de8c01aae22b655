module Dfg = Cgra_dfg.Dfg
module Mrrg = Cgra_mrrg.Mrrg
module Model = Cgra_ilp.Model
module Bitset = Cgra_util.Bitset
module Deadline = Cgra_util.Deadline
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module Mapping = Cgra_core.Mapping

type t = {
  model : Model.t;
  dfg : Dfg.t;
  mrrg : Mrrg.t;
  values : Dfg.value array;
  f_vars : (int * int, Model.var) Hashtbl.t;
  n_vars : (int * int, Model.var) Hashtbl.t;
  a_vars : (int * int * int, Model.var) Hashtbl.t;
  g_vars : (int * int * int * int, Model.var) Hashtbl.t;
}

(* Local copies of the base builder's small graph helpers (they are
   private to Formulation; the semantics must match exactly because the
   two formulations are required to agree on verdicts). *)
let operand_node mrrg p o =
  List.find_opt (fun i -> (Mrrg.node mrrg i).Mrrg.operand = Some o) (Mrrg.fanins mrrg p)

let route_fanins mrrg i = List.filter (fun m -> Mrrg.is_route mrrg m) (Mrrg.fanins mrrg i)
let route_fanouts mrrg i = List.filter (fun m -> Mrrg.is_route mrrg m) (Mrrg.fanouts mrrg i)

let dataflow_ranks dfg =
  let n = Dfg.node_count dfg in
  let rank = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun (node : Dfg.node) ->
      if Dfg.in_edges dfg node.Dfg.id = [] then begin
        rank.(node.Dfg.id) <- 0;
        Queue.push node.Dfg.id queue
      end)
    (Dfg.nodes dfg);
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    incr next;
    List.iter
      (fun (e : Dfg.edge) ->
        if rank.(e.Dfg.dst) < 0 then begin
          rank.(e.Dfg.dst) <- !next;
          Queue.push e.Dfg.dst queue
        end)
      (Dfg.out_edges dfg q)
  done;
  Array.iteri (fun q r -> if r < 0 then rank.(q) <- n) rank;
  rank

(* The connectivity builder.  Placement ((1)-(3)) and the cross-value
   exclusivity ((2)/(4)) are shared vocabulary with the base
   formulation — same rows, same group labels — so unsat cores and
   diagnoses read identically.  Routing is where the structure
   diverges: instead of per-sink occupancy chains, each value grows one
   single-driver route tree (N/A variables) shared by all of its
   sinks, witnessed connected by per-sink unit flows (g variables). *)
let build_profiled ?(objective = Formulation.Min_routing) ?(prune = true) dfg mrrg =
  let t_start = Deadline.now () in
  let model = Model.create ~name:(Dfg.name dfg ^ "@conn") () in
  let values = Array.of_list (Dfg.values dfg) in
  let n_ops = Dfg.node_count dfg in
  let cand = Array.init n_ops (fun q -> Formulation.candidates dfg mrrg q) in
  let f_vars = Hashtbl.create 256 in
  let n_vars = Hashtbl.create 4096 in
  let a_vars = Hashtbl.create 8192 in
  let g_vars = Hashtbl.create 8192 in
  let fvar p q = Hashtbl.find_opt f_vars (p, q) in
  let ranks = dataflow_ranks dfg in

  (* ----- placement variables and constraints (1)-(3), as in the base
     formulation ----- *)
  for q = 0 to n_ops - 1 do
    let qname = (Dfg.node dfg q).Dfg.name in
    List.iter
      (fun p ->
        let v =
          Model.add_binary_deferred model (fun () ->
              Printf.sprintf "F|%s|%s" (Mrrg.node mrrg p).Mrrg.name qname)
        in
        Model.set_branch_priority model v (100.0 +. (10.0 *. float_of_int (n_ops - ranks.(q))));
        Model.set_branch_phase model v true;
        Hashtbl.replace f_vars (p, q) v)
      cand.(q);
    Model.add_row model
      ~dname:(fun () -> Printf.sprintf "place[%s]" qname)
      ~group:("place:" ^ qname)
      (List.map (fun p -> (1, Hashtbl.find f_vars (p, q))) cand.(q))
      Model.Eq 1
  done;
  List.iter
    (fun p ->
      let users = ref [] in
      for q = 0 to n_ops - 1 do
        match fvar p q with Some v -> users := v :: !users | None -> ()
      done;
      if List.length !users > 1 then
        Model.add_row model
          ~dname:(fun () -> Printf.sprintf "excl[%s]" (Mrrg.node mrrg p).Mrrg.name)
          ~group:("excl:" ^ (Mrrg.node mrrg p).Mrrg.name)
          (List.map (fun v -> (1, v)) !users)
          Model.Le 1)
    (Mrrg.func_units mrrg);
  let t_placed = Deadline.now () in

  (* ----- per-value route trees and per-sink flows ----- *)
  let n_nodes = Mrrg.n_nodes mrrg in
  let corridor_spent = ref 0.0 in
  let timed f =
    let t0 = Deadline.now () in
    let r = f () in
    corridor_spent := !corridor_spent +. (Deadline.now () -. t0);
    r
  in
  let route_mask =
    lazy
      (let m = Bitset.create n_nodes in
       List.iter (Bitset.add m) (Mrrg.route_nodes mrrg);
       m)
  in
  let cone_memo : (int list, Bitset.t) Hashtbl.t = Hashtbl.create 16 in
  let cone_of cands =
    match Hashtbl.find_opt cone_memo cands with
    | Some c -> c
    | None ->
        let c =
          timed (fun () ->
              let producer_outs = List.concat_map (fun p' -> route_fanouts mrrg p') cands in
              if prune then Mrrg.reachable_set mrrg ~starts:producer_outs
              else Lazy.force route_mask)
        in
        Hashtbl.replace cone_memo cands c;
        c
  in
  let forced_zero = Hashtbl.create 64 in
  let force_zero ?group f =
    if not (Hashtbl.mem forced_zero f) then begin
      Hashtbl.replace forced_zero f ();
      Model.add_row model ?group [ (1, f) ] Model.Eq 0
    end
  in
  let nvar i j =
    match Hashtbl.find_opt n_vars (i, j) with
    | Some v -> v
    | None ->
        let v =
          Model.add_binary_deferred model (fun () ->
              Printf.sprintf "N|%s|v%d" (Mrrg.node mrrg i).Mrrg.name j)
        in
        Hashtbl.replace n_vars (i, j) v;
        v
  in
  let avar m i j =
    match Hashtbl.find_opt a_vars (m, i, j) with
    | Some v -> v
    | None ->
        let v =
          Model.add_binary_deferred model (fun () ->
              Printf.sprintf "A|%s|%s|v%d" (Mrrg.node mrrg m).Mrrg.name
                (Mrrg.node mrrg i).Mrrg.name j)
        in
        Hashtbl.replace a_vars (m, i, j) v;
        v
  in
  Array.iteri
    (fun j (value : Dfg.value) ->
      let vg = Some (Printf.sprintf "route:val%d" j) in
      let q' = value.Dfg.producer in
      let cone = cone_of cand.(q') in
      (* Per-sink corridors first: their union (the value's region) is
         the support of the route tree. *)
      let region = Bitset.create n_nodes in
      let sinks =
        List.mapi
          (fun k (sink : Dfg.edge) ->
            let q = sink.Dfg.dst and o = sink.Dfg.operand in
            let terms =
              List.filter_map
                (fun p ->
                  match operand_node mrrg p o with
                  | Some i -> Some (i, p)
                  | None ->
                      (* host lacks the port: placement there is impossible *)
                      (match fvar p q with
                      | Some v -> force_zero ?group:vg v
                      | None -> ());
                      None)
                cand.(q)
            in
            let corr =
              if prune then
                timed (fun () -> Mrrg.corridor mrrg ~cone ~targets:(List.map fst terms))
              else Lazy.force route_mask
            in
            Bitset.union_into ~into:region corr;
            (k, sink, q, terms, corr))
          value.Dfg.sinks
      in
      (* Producer injection sites: route fanouts of each candidate host
         of the producer, with the F variable that activates them. *)
      let injectors = Hashtbl.create 16 in
      List.iter
        (fun p' ->
          let f = Option.get (fvar p' q') in
          List.iter
            (fun out ->
              Hashtbl.replace injectors out
                (f :: Option.value ~default:[] (Hashtbl.find_opt injectors out)))
            (route_fanouts mrrg p'))
        cand.(q');
      let in_region i = Bitset.mem region i in
      (* Tree structure over the region.  Per node i:

         - the driver equality
             N(i) = sum A(m->i) + sum F(p') [i a fanout of candidate p']
           every used node has exactly one driver — an incoming active
           edge, or direct injection by the placed producer (which, as
           in base constraint (7), claims {e every} fanout of the
           placed host);
         - tail support A(m->i) <= N(m): an edge cannot be active out
           of an unused node;
         - at multi-input nodes, the base formulation's mux row (9),
           N(i) = sum over in-region fanins N(m): a used node's
           in-neighbourhood holds exactly one used node.  This is what
           makes the two formulations verdict-equivalent — without it
           the tree could brush past itself at a mux that the per-edge
           model rejects. *)
      Bitset.iter
        (fun i ->
          let n_i = nvar i j in
          let rfins = List.filter in_region (route_fanins mrrg i) in
          Model.begin_row model ?group:vg Model.Eq 0;
          Model.term model 1 n_i;
          List.iter (fun m -> Model.term model (-1) (avar m i j)) rfins;
          List.iter
            (fun f -> Model.term model (-1) f)
            (Option.value ~default:[] (Hashtbl.find_opt injectors i));
          Model.end_row model;
          List.iter
            (fun m -> Model.add_row2 model ?group:vg 1 (avar m i j) (-1) (nvar m j) Model.Le 0)
            rfins;
          match Mrrg.fanins mrrg i with
          | [] | [ _ ] -> ()
          | fins ->
              Model.begin_row model ?group:vg Model.Eq 0;
              Model.term model 1 n_i;
              List.iter
                (fun m -> if Mrrg.is_route mrrg m && in_region m then Model.term model (-1) (nvar m j))
                fins;
              Model.end_row model)
        region;
      (* Per-sink unit flows: one unit leaves the placed producer and
         is absorbed at the sink's operand port, travelling only along
         active tree edges inside the sink's corridor.  The flow is the
         reachability witness: it forces the tree to actually connect
         producer to every sink (no floating fragments carry flow). *)
      List.iter
        (fun (k, _sink, q, terms, corr) ->
          let in_corr i = Bitset.mem corr i in
          let gvar src dst =
            match Hashtbl.find_opt g_vars (src, dst, j, k) with
            | Some v -> v
            | None ->
                let v =
                  Model.add_binary_deferred model (fun () ->
                      Printf.sprintf "g|%s|%s|v%d|s%d" (Mrrg.node mrrg src).Mrrg.name
                        (Mrrg.node mrrg dst).Mrrg.name j k)
                in
                Hashtbl.replace g_vars (src, dst, j, k) v;
                v
          in
          (* absorption sites: operand ports of the sink's candidates *)
          let term_fs = Hashtbl.create 8 in
          List.iter
            (fun (i, p) ->
              let f = Option.get (fvar p q) in
              if in_corr i then
                Hashtbl.replace term_fs i
                  (f :: Option.value ~default:[] (Hashtbl.find_opt term_fs i))
              else
                (* operand port outside every producer->sink corridor:
                   the placement cannot be routed to *)
                force_zero ?group:vg f)
            terms;
          (* source edges with unit supply per candidate producer *)
          let sources = Hashtbl.create 8 in
          List.iter
            (fun p' ->
              let f = Option.get (fvar p' q') in
              let gs =
                List.filter_map
                  (fun out ->
                    if in_corr out then begin
                      let g = gvar p' out in
                      Hashtbl.replace sources out
                        (g :: Option.value ~default:[] (Hashtbl.find_opt sources out));
                      Some g
                    end
                    else begin
                      (* mirror of base (7)'s pruning: a fanout of this
                         host cannot reach the sink, so the host is out *)
                      force_zero ?group:vg f;
                      None
                    end)
                  (route_fanouts mrrg p')
              in
              Model.add_row model ?group:vg
                ((-1, f) :: List.map (fun g -> (1, g)) gs)
                Model.Eq 0)
            cand.(q');
          (* edge flows, capped by the tree edge they ride on *)
          Bitset.iter
            (fun i ->
              List.iter
                (fun m ->
                  if in_corr m then
                    Model.add_row2 model ?group:vg 1 (gvar m i) (-1)
                      (Hashtbl.find a_vars (m, i, j))
                      Model.Le 0)
                (route_fanins mrrg i))
            corr;
          (* conservation: inflow - outflow = demand at every corridor
             node (demand 1 where the placed sink host's port absorbs
             the unit, 0 elsewhere) *)
          Bitset.iter
            (fun i ->
              Model.begin_row model ?group:vg Model.Eq 0;
              List.iter
                (fun m -> if in_corr m then Model.term model 1 (Hashtbl.find g_vars (m, i, j, k)))
                (route_fanins mrrg i);
              List.iter
                (fun g -> Model.term model 1 g)
                (Option.value ~default:[] (Hashtbl.find_opt sources i));
              List.iter
                (fun m -> if in_corr m then Model.term model (-1) (Hashtbl.find g_vars (i, m, j, k)))
                (route_fanouts mrrg i);
              List.iter
                (fun f -> Model.term model (-1) f)
                (Option.value ~default:[] (Hashtbl.find_opt term_fs i));
              Model.end_row model)
            corr)
        sinks)
    values;
  let t_routed = Deadline.now () in

  (* route exclusivity across values, as in base constraint (4) *)
  let users_of_route = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun (i, _) v ->
      let l = Option.value ~default:[] (Hashtbl.find_opt users_of_route i) in
      Hashtbl.replace users_of_route i (v :: l))
    n_vars;
  Hashtbl.iter
    (fun i vars ->
      if List.length vars > 1 then
        Model.add_row model
          ~dname:(fun () -> Printf.sprintf "route_excl[%s]" (Mrrg.node mrrg i).Mrrg.name)
          ~group:("excl:" ^ (Mrrg.node mrrg i).Mrrg.name)
          (List.map (fun v -> (1, v)) vars)
          Model.Le 1)
    users_of_route;

  (* objective (10) over tree-node occupancy *)
  (match objective with
  | Formulation.Feasibility -> Model.set_objective model Model.Feasibility
  | Formulation.Min_routing ->
      Model.set_objective model
        (Model.Minimize (Hashtbl.fold (fun _ v acc -> (1, v) :: acc) n_vars []))
  | Formulation.Weighted weight ->
      Model.set_objective model
        (Model.Minimize
           (Hashtbl.fold
              (fun (i, _) v acc -> (weight (Mrrg.node mrrg i), v) :: acc)
              n_vars [])));
  let t_done = Deadline.now () in
  let profile =
    {
      Formulation.placement_seconds = t_placed -. t_start;
      corridor_seconds = !corridor_spent;
      routing_seconds = t_routed -. t_placed -. !corridor_spent;
      exclusivity_seconds = t_done -. t_routed;
      total_seconds = t_done -. t_start;
    }
  in
  ({ model; dfg; mrrg; values; f_vars; n_vars; a_vars; g_vars }, profile)

let build ?objective ?prune dfg mrrg = fst (build_profiled ?objective ?prune dfg mrrg)

(* ----- solution extraction ----- *)

(* Per sink, walk the unit flow backward from the sink's operand port.
   Each step is forced unique (g <= A; the driver equality admits at
   most one active in-edge per node), and termination is guaranteed by
   flow conservation: a revisit would need two flow units out of a node
   whose inflow is capped at one.  The defensive failures below would
   each be a formulation bug, not an input error. *)
let mapping (t : t) assign =
  let mrrg = t.mrrg in
  let placement =
    Hashtbl.fold
      (fun (p, q) v acc -> if assign.(v) then (q, p) :: acc else acc)
      t.f_vars []
    |> List.sort compare
  in
  let placed = Hashtbl.create 32 in
  List.iter (fun (q, p) -> Hashtbl.replace placed q p) placement;
  let routes =
    Array.to_list t.values
    |> List.mapi (fun j (value : Dfg.value) ->
           let q' = value.Dfg.producer in
           let p' =
             match Hashtbl.find_opt placed q' with
             | Some p -> p
             | None -> failwith "Conn: feasible assignment leaves a producer unplaced (bug)"
           in
           List.mapi
             (fun k (sink : Dfg.edge) ->
               let q = sink.Dfg.dst and o = sink.Dfg.operand in
               let p =
                 match Hashtbl.find_opt placed q with
                 | Some p -> p
                 | None -> failwith "Conn: feasible assignment leaves a sink unplaced (bug)"
               in
               let term =
                 match operand_node mrrg p o with
                 | Some i -> i
                 | None -> failwith "Conn: placed sink host lacks the operand port (bug)"
               in
               let flows src dst =
                 match Hashtbl.find_opt t.g_vars (src, dst, j, k) with
                 | Some g -> assign.(g)
                 | None -> false
               in
               let visited = Hashtbl.create 32 in
               let rec walk cur acc =
                 if Hashtbl.mem visited cur then
                   failwith "Conn: cyclic flow in extracted route (bug)";
                 Hashtbl.replace visited cur ();
                 let acc = cur :: acc in
                 if flows p' cur then acc
                 else
                   match
                     List.find_opt (fun m -> m <> cur && flows m cur) (Mrrg.fanins mrrg cur)
                   with
                   | Some m -> walk m acc
                   | None -> failwith "Conn: broken flow chain in extracted route (bug)"
               in
               let nodes = walk term [] |> List.sort compare in
               { Mapping.value_producer = q'; sink; nodes })
             value.Dfg.sinks)
    |> List.concat
  in
  { Mapping.dfg = t.dfg; mrrg = t.mrrg; placement; routes }

(* Warm-start phase seeding from a heuristic mapping: exact on the
   placement variables, and route nodes seed the tree occupancy.  Edge
   and flow variables stay phase-false — the solver derives them in one
   propagation pass once N and F are right. *)
let apply_warm_phases (t : t) (m : Mapping.t) =
  let set v b = Model.set_branch_phase t.model v b in
  Hashtbl.iter (fun _ v -> set v false) t.f_vars;
  List.iter
    (fun (q, p) ->
      match Hashtbl.find_opt t.f_vars (p, q) with Some v -> set v true | None -> ())
    m.Mapping.placement;
  let j_of_producer = Hashtbl.create 32 in
  Array.iteri
    (fun j (v : Dfg.value) -> Hashtbl.replace j_of_producer v.Dfg.producer j)
    t.values;
  List.iter
    (fun (r : Mapping.route) ->
      match Hashtbl.find_opt j_of_producer r.Mapping.value_producer with
      | None -> ()
      | Some j ->
          List.iter
            (fun i ->
              match Hashtbl.find_opt t.n_vars (i, j) with
              | Some v -> set v true
              | None -> ())
            r.Mapping.nodes)
    m.Mapping.routes

let describe_value (t : t) j =
  if j < 0 || j >= Array.length t.values then invalid_arg "Conn.describe_value";
  let v = t.values.(j) in
  let producer = (Dfg.node t.dfg v.Dfg.producer).Dfg.name in
  let sink (e : Dfg.edge) =
    Printf.sprintf "%s.op%d" (Dfg.node t.dfg e.Dfg.dst).Dfg.name e.Dfg.operand
  in
  Printf.sprintf "%s -> %s" producer (String.concat ", " (List.map sink v.Dfg.sinks))

let size (t : t) =
  {
    Formulation.n_f = Hashtbl.length t.f_vars;
    n_r = Hashtbl.length t.n_vars + Hashtbl.length t.a_vars;
    n_rk = Hashtbl.length t.g_vars;
    n_rows = Model.nrows t.model;
  }

(* ----- registration ----- *)

let formulation_name = "conn"

let impl =
  {
    Formulation_intf.name = formulation_name;
    build =
      (fun ?prune ~objective dfg mrrg ->
        let t, profile = build_profiled ~objective ?prune dfg mrrg in
        {
          Formulation_intf.model = t.model;
          size = size t;
          phases = Formulation.profile_fields profile;
          extract = (fun assign -> mapping t assign);
          warm = (fun m -> apply_warm_phases t m);
          describe_value = (fun j -> describe_value t j);
        });
  }

let () = Formulation_intf.register impl

(* OCaml links a library module only when something references it; any
   binary that wants the conn formulation available calls this (it
   forces the module initializer above). *)
let ensure_registered () = ()
