(* Reference-speed timing: every time the benchmark reports is scaled
   to a host of fixed speed.

   On a shared host the same request can take up to three times longer
   from one minute to the next.  Other tenants contend for the caches
   and memory bandwidth; pure arithmetic barely slows down, but the
   mapper, which allocates heavily and chases pointers through large
   graphs and hash tables, does, and the slowdown shows equally in wall
   and CPU time.  So the benchmark times a fixed reference computation,
   [kernel], right after every interval it times, and reports each
   interval scaled by [nominal_s] over the mean kernel time around it
   (see [factor]): the seconds the interval would have taken on a host
   where the kernel takes [nominal_s].

   The kernel is the benchmark's own code and uses nothing from the
   program, so no change to the program changes the scale.  It does the
   kinds of work the mapper does: short- and long-lived allocation, a
   hash table, random reads and writes over an array larger than the L2
   cache, and data-dependent branches.  It runs in the benchmark's own
   thread, because the host's two cores slow down independently: a
   reading taken on the other core (in a helper process) tracked the
   mapper's slowdowns far worse.  A minor collection (not timed) before
   each reading leaves nothing of the program's young objects for the
   kernel's own collections to promote. *)

(* Kernel seconds on the reference host (a 2-core shared Xeon VM at
   2.0 GHz, on which the reported times are close to wall time). *)
let nominal_s = 0.0125

let array_words = 1 lsl 19 (* 4 MiB of ints *)

let table = lazy (Array.make array_words 0)

(* One deterministic run of the reference computation; the result is
   returned so the work cannot be optimised away. *)
let kernel () =
  let a = Lazy.force table in
  let h = Hashtbl.create 4096 in
  let x = ref 0x2545F491 and acc = ref 0 and live = ref [] in
  for i = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (array_words - 1) in
    a.(j) <- a.(j) + i;
    acc := !acc + a.((j * 7) land (array_words - 1));
    if !x land 3 = 0 then Hashtbl.replace h (!x land 8191) !acc;
    if !x land 15 = 0 then live := (i, !acc) :: (if i land 1023 = 0 then [] else !live);
    if !acc land 1 = 1 then acc := !acc lsr 1 else acc := !acc + 3
  done;
  !acc + Hashtbl.length h + List.length !live

let sink = ref 0

(* Every kernel reading of a run: its midpoint on the wall clock and its
   seconds. *)
type meter = { mutable readings : (float * float) list }

let read m =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  sink := !sink + kernel ();
  let k = Unix.gettimeofday () -. t0 in
  m.readings <- (t0 +. (k /. 2.0), k) :: m.readings

(* A meter with one reading taken; a first, unrecorded kernel run
   allocates the kernel's table. *)
let meter () =
  sink := !sink + kernel ();
  let m = { readings = [] } in
  read m;
  m

(* Readings within this many seconds of an interval count towards its
   scale.  The host's speed drifts over tens of seconds, while a single
   12 ms reading is noisy, so a few seconds of readings estimate the
   speed during an interval better than the two next to it. *)
let window_s = 2.0

(* The factor that scales an interval to the reference host: nominal
   over the mean kernel time of the readings from [window_s] before
   [start] to [window_s] after [stop].  The benchmark reads the meter
   right after each timed interval, so there is always a reading in
   range once the run is over. *)
let factor m ~start ~stop =
  let sum, n =
    List.fold_left
      (fun (sum, n) (t, k) ->
        if t >= start -. window_s && t <= stop +. window_s then (sum +. k, n + 1) else (sum, n))
      (0.0, 0) m.readings
  in
  if n = 0 then invalid_arg "Calib.factor: no reading near the interval";
  nominal_s /. (sum /. float n)
