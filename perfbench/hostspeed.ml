(* Host-speed probe: a fixed kernel timed between slices, so that wall
   times can be given at one reference speed of the host.

   The host is shared, and the speed of memory-heavy code on it moves by
   up to 2x, in bursts of seconds and in phases of minutes; user CPU time
   moves with wall time, so CPU time does not help, and neither does the
   fastest of a 30-second run once a whole run falls in a slow phase.  The
   kernel below slows down with the simulator: it writes and reads a 2 MB
   buffer (the size of the default minor heap and of the L2 cache of the
   Xeon it was tuned on), so it goes through the caches the simulator's
   allocation goes through.  Timed after every ~25 ms of many_conns
   slices over 34 repetitions, it correlated 0.77 with those slices' time
   (relative to the same slices in the other repetitions) and 0.89 per
   repetition; dependent reads over 8 MB and a register-only loop did not
   track (0.16 and 0.18).  Scaling each stretch of slices by the probe
   that follows it cut the quartile spread of the repetitions from 17 %
   to 6 %.

   The buffer lives outside the OCaml heap and the kernel allocates
   nothing, so probing changes neither the simulation nor the GC
   counters.  It is not library code, so a change to the library moves
   the simulator's time and not the probe's. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let words = 256 * 1024 (* 2 MB *)
let iterations = words

let buf : buf Lazy.t =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
     Bigarray.Array1.fill b 0;
     b)

let kernel () =
  let b = Lazy.force buf in
  let acc = ref 0 and k = ref 0 in
  for i = 1 to iterations do
    Bigarray.Array1.unsafe_set b !k (i + !acc);
    acc := !acc + Bigarray.Array1.unsafe_get b ((!k + 4096) land (words - 1));
    k := (!k + 1) land (words - 1)
  done;
  !acc

(* Wall time of one run of the kernel, in seconds. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* About the kernel's time when the host is quiet; a wall time [w]
   measured while the kernel took [p] is reported as
   [w *. reference_s /. p]. *)
let reference_s = 500e-6

let at_reference ~wall_s ~probe_s = wall_s *. reference_s /. probe_s

(* Probe after this many wall seconds of slices: the probe takes about
   2 % of the time. *)
let period_s = 0.025
