(* The benchmark's cells and their pinned verdicts.

   A cell is one (kernel, architecture, II) question plus how it is
   asked: which formulation compiles it and whether the verdict must
   be certified.  Every cell carries the verdict it must get; the
   benchmark counts any other answer as a wrong verdict.

   Sources of the pins:
   - the 4x4 cells and the 2x2 cells are the pinned Table-2 grid and
     small grid (homo-orth) of test/test_conn.ml, themselves
     cross-checked between the paper and the connectivity formulations;
   - each 3x3 cell was confirmed three ways before pinning: the paper
     and conn formulations both prove it infeasible, and both
     refutations carry a DRAT certificate that the independent checker
     validates (see README.md). *)

type verdict = Feasible | Infeasible

type t = {
  bench : string;
  arch : string;
  size : int;
  ii : int;
  formulation : string;  (** Formulation_intf registry name *)
  certify : bool;
  expect : verdict;
}

let id c =
  Printf.sprintf "%s@%s/%dx%d/ii%d%s%s" c.bench c.arch c.size c.size c.ii
    (if c.formulation = "paper" then "" else "/" ^ c.formulation)
    (if c.certify then "/certify" else "")

let verdict_name = function Feasible -> "feasible" | Infeasible -> "infeasible"

let cell ?(size = 4) ?(formulation = "paper") ?(certify = false) expect bench arch ii =
  { bench; arch; size; ii; formulation; certify; expect }

(* Every pinned-F cell of the II=1 column of the 4x4 Table-2 grid.  The
   eight II=2 cells are left out so that a pass is short enough for a
   run to measure every cell five or more times. *)
let feasible =
  List.map
    (fun (bench, arch, ii) -> cell Feasible bench arch ii)
    [
      ("accum", "hetero-orth", 1);
      ("mac", "hetero-orth", 1);
      ("2x2-f", "hetero-orth", 1);
      ("2x2-p", "hetero-orth", 1);
      ("accum", "hetero-diag", 1);
      ("mac", "hetero-diag", 1);
      ("exp_4", "hetero-diag", 1);
      ("mac", "homo-orth", 1);
      ("mult_10", "homo-orth", 1);
      ("2x2-f", "homo-orth", 1);
      ("mac", "homo-diag", 1);
      ("mult_10", "homo-diag", 1);
      ("tay_4", "homo-diag", 1);
    ]

(* Four search-bound refutations (the warm start gives up at once;
   CDCL search and probing are almost all of each verdict) and a
   certified one, which adds proof logging and the DRAT check and skips
   presolve. *)
let refute =
  [
    cell ~size:3 Infeasible "tay_4" "homo-orth" 1;
    cell ~size:3 Infeasible "exp_5" "homo-orth" 1;
    cell ~size:3 Infeasible "sinh_4" "homo-orth" 1;
    cell ~size:3 Infeasible "tay_4" "homo-diag" 1;
    cell ~size:2 ~certify:true Infeasible "mac" "homo-orth" 2;
  ]

let conn =
  let c4 (bench, arch, ii) = cell ~formulation:"conn" Feasible bench arch ii in
  let c2 (bench, ii) = cell ~size:2 ~formulation:"conn" Infeasible bench "homo-orth" ii in
  List.map c4
    [
      ("mac", "homo-orth", 1);
      ("mult_10", "homo-orth", 1);
      ("tay_4", "homo-diag", 1);
      ("tay_4", "hetero-diag", 2);
      ("exp_4", "homo-diag", 2);
      ("mac", "hetero-orth", 1);
    ]
  @ List.map c2 [ ("mac", 1); ("mac", 2); ("2x2-f", 1) ]

(* The serve workload's cells: eight pinned-F cells, fewer than the
   daemon's 16-entry session cache, so every warm request can hit.
   Their cold and certified requests take well under a second, so a run
   holds several daemon epochs and measures each request several
   times. *)
let serve =
  List.map
    (fun (bench, arch, ii) -> cell Feasible bench arch ii)
    [
      ("mac", "homo-orth", 1);
      ("mac", "hetero-orth", 1);
      ("mac", "hetero-diag", 1);
      ("2x2-f", "homo-orth", 1);
      ("2x2-f", "hetero-orth", 1);
      ("mult_10", "homo-diag", 1);
      ("mult_10", "homo-orth", 1);
      ("mac", "homo-diag", 2);
    ]
