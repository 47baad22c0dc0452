(* The repository benchmark: one command, one named workload, one seed.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set the workload's world up several times, then
   simulate it repeatedly, each time in a fresh world, until S seconds of
   measurement have passed.  Every repetition must be correct (every
   stream byte-exact, no RST, every connection complete) and must repeat
   the first one's modeled outcome exactly (its fingerprint).  Prints the
   end-to-end metrics with units and sample counts: set-up and wall time
   are medians, at the reference speed of the host-speed probe
   (hostspeed.ml), allocation and memory come from the first run, and the
   modeled metrics are exact for the seed.

   Traced (--trace 1): alternate untraced and traced repetitions, check
   that tracing changes neither the fingerprint nor the event count, run
   the reconciliation checks, print the per-layer metrics with the
   end-to-end metric each should move, and write the spans as Chrome
   trace-event JSON under .perfbench_out/.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
   when the run was correct. *)

open Common

let workloads =
  [
    ("many_conns", fun ~seed -> Many_conns.setup ~seed (Many_conns.inputs ~seed));
    ("bulk_stream", fun ~seed -> Bulk_stream.setup ~seed (Bulk_stream.inputs ~seed));
    ("kill_repair", fun ~seed -> Kill_repair.setup ~seed (Kill_repair.inputs ~seed));
  ]

(* Set-ups timed before each repetition after the first; set-up takes
   tens of microseconds, so it is sampled many times, spread over the run
   so that every state of the host's load is sampled alike. *)
let setups_per_rep = 10

(* What one repetition leaves behind; its world is dropped so memory
   does not grow with the number of repetitions. *)
type rep = {
  setup_s : float;
  wall_s : float;  (** excluding the host-speed probes *)
  probe_s : float;  (** mean host-speed probe time during the run *)
  ref_wall_s : float;  (** [wall_s] at the probe's reference speed *)
  alloc_mwords : float;
  fingerprint : string;
  events : int;
  sim_s : float;
  problems : string list;  (** correctness failures (empty when correct) *)
  modeled : (string * float * string * int) list;
  attempted : int;
  failed : int;
  gc : (string * float) list;  (** the runtime's counters *)
  layers : (string * float) list;  (** traced repetitions only *)
  checks : (string * bool * string) list;  (** traced repetitions only *)
}

let problems (m : model) =
  List.filter_map
    (fun c ->
      match c.bad with
      | Some why -> Some why
      | None ->
        if c.done_ then None
        else Some (Printf.sprintf "conn %d: did not complete" c.id))
    (List.rev m.conns)
  @ List.rev m.violations

let run_rep ?(probing = false) ~name make ~traced =
  Gc.full_major ();
  Tracer.reset ();
  Tracer.on := traced;
  let inst = make () in
  let st = Drive.create ~probing in
  let gc0 = Layers.gc_now () in
  let t0 = wall () in
  inst.Drive.run st;
  let wall_s = wall () -. t0 -. st.probe_s in
  let gc1 = Layers.gc_now () in
  Tracer.on := false;
  let m = inst.model in
  let md = modeled m in
  let fingerprint =
    List.map (fun (n, v, _, k) -> Printf.sprintf "%s=%.17g/%d" n v k) md
    @ [
        Printf.sprintf "payload=%d sim=%d..%d" m.payload m.first_at m.last_at;
        inst.modeled ();
        registry_fingerprint inst.world;
      ]
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let layers = if traced then Layers.collect inst st else [] in
  {
    setup_s = inst.setup_s;
    wall_s;
    probe_s = Drive.probe_mean st;
    ref_wall_s = Drive.at_reference st ~wall_s;
    alloc_mwords = (gc1.minor_words -. gc0.minor_words) /. 1e6;
    fingerprint;
    events = st.events;
    sim_s = Time.to_sec (st.sim1 - st.sim0);
    problems = problems m;
    modeled = md;
    attempted = attempted m;
    failed = failed m;
    gc = Layers.gc_metrics ~gc0 ~gc1 ~events:st.events;
    layers;
    checks = (if traced then Layers.reconcile inst st layers ~workload:name else []);
  }

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct (r : rep) metrics =
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed (String.concat ", " fields)

let report_problems reps =
  let ps = List.concat_map (fun r -> r.problems) reps in
  List.iteri (fun i p -> if i < 10 then Printf.printf "  FAIL %s\n" p) ps;
  if List.length ps > 10 then
    Printf.printf "  FAIL ... %d more\n" (List.length ps - 10);
  ps = []

let print_modeled (r : rep) =
  List.iter
    (fun (n, v, u, k) ->
      if Float.is_nan v then
        Printf.printf "  %-24s %14s %-5s (n=%d: fewer than 10 samples beyond it)\n"
          n "n/a" u k
      else Printf.printf "  %-24s %14.6g %-5s (n=%d)\n" n v u k)
    r.modeled

let median_by f reps = Tcpfo_util.Stats.median (List.map f reps)

let same_fingerprint first reps =
  let ok =
    List.for_all
      (fun r -> r.fingerprint = first.fingerprint && r.events = first.events)
      reps
  in
  Printf.printf "  fingerprint %s (%s across %d runs)\n" first.fingerprint
    (if ok then "identical, events identical" else "DIFFERS")
    (List.length reps);
  ok

(* The host is shared and its speed moves by up to 2x in phases of
   minutes (see hostspeed.ml), so every wall time is given at the
   reference speed of the host-speed probe: a set-up by the probe timed
   just before its batch, a run's slices by the probe that follows them
   (Drive.lap).  Set-up and wall time are the medians of those.  The first
   run, which grows the heap and gives the allocation and memory figures,
   does not probe and is left out of the wall time. *)
let untraced ~name ~seconds make =
  let t_start = wall () in
  let first = run_rep ~name make ~traced:false in
  (* the first run alone sets the heap's and the process's high-water marks *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let peak_rss_mb = float_of_int (peak_rss_kb ()) /. 1024.0 in
  ignore (Hostspeed.probe ()) (* allocates the probe's buffer *);
  let reps = ref [ first ] in
  let setups = Samples.create () and raw_setups = Samples.create () in
  while wall () -. t_start < seconds || List.length !reps < 2 do
    Gc.full_major ();
    let probe_s = Hostspeed.probe () in
    let add s =
      Samples.add raw_setups s;
      Samples.add setups (Hostspeed.at_reference ~wall_s:s ~probe_s)
    in
    for _ = 1 to setups_per_rep do
      add (make ()).Drive.setup_s
    done;
    let r = run_rep ~probing:true ~name make ~traced:false in
    add r.setup_s;
    reps := r :: !reps
  done;
  let reps = List.rev !reps in
  let walls = Samples.create () and raw_walls = Samples.create () in
  let probes = Samples.create () in
  List.iter
    (fun r ->
      Samples.add raw_walls r.wall_s;
      Samples.add probes (r.probe_s *. 1e6);
      Samples.add walls r.ref_wall_s)
    (List.tl reps);
  Printf.printf "[perfbench] workload=%s runs=%d events=%d sim_s=%.6f\n" name
    (List.length reps) first.events first.sim_s;
  Printf.printf "  %-24s %14.6g %-5s (median of %d set-ups; as timed %.6g)\n"
    "setup_s" (Samples.median setups) "s" (Samples.count setups)
    (Samples.median raw_setups);
  Printf.printf "  %-24s %14.6g %-5s (median of %d runs; as timed %.6g, fastest %.6g)\n"
    "wall_s" (Samples.median walls) "s" (Samples.count walls)
    (Samples.median raw_walls) (Samples.percentile raw_walls 0.0);
  Printf.printf "  wall_s of each run as timed: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.wall_s) reps));
  Printf.printf "  host-speed probe: median %.1f us over %d runs (reference %.1f us)\n"
    (Samples.median probes) (Samples.count probes) (Hostspeed.reference_s *. 1e6);
  Printf.printf "  %-24s %14.6g %-5s (%s across runs)\n" "alloc_mwords"
    first.alloc_mwords "Mw"
    (if List.for_all (fun r -> r.alloc_mwords = first.alloc_mwords) reps
     then "identical"
     else Printf.sprintf "first run; later runs %.6g-%.6g"
         (List.fold_left (fun a r -> Float.min a r.alloc_mwords) infinity reps)
         (List.fold_left (fun a r -> Float.max a r.alloc_mwords) 0.0 reps));
  Printf.printf "  %-24s %14.6g %-5s\n" "peak_heap_mb" peak_heap_mb "MB";
  Printf.printf "  %-24s %14.6g %-5s\n" "peak_rss_mb" peak_rss_mb "MB";
  print_modeled first;
  let same = same_fingerprint first reps in
  let clean = report_problems reps in
  let get n =
    match List.find_opt (fun (k, _, _, _) -> k = n) first.modeled with
    | Some (_, v, _, _) -> v
    | None -> nan
  in
  let correct = same && clean in
  print_result ~correct first
    [
      ("setup_s", Samples.median setups, "s");
      ("wall_s", Samples.median walls, "s");
      ("alloc_mwords", first.alloc_mwords, "Mwords");
      ("peak_heap_mb", peak_heap_mb, "MB");
      ("peak_rss_mb", peak_rss_mb, "MB");
      ("req_latency_us_p50", get "req_latency_us_p50", "us");
      ("goodput_mbps", get "goodput_mbps", "Mb/s");
    ];
  correct

let traced ~name ~seed ~seconds make =
  let t_start = wall () in
  let plain = ref [] and traced = ref [] in
  while !traced = [] || wall () -. t_start < seconds do
    plain := run_rep ~name make ~traced:false :: !plain;
    traced := run_rep ~name make ~traced:true :: !traced
  done;
  let plain = List.rev !plain and tr = List.rev !traced in
  let base = List.hd plain in
  let fastest l = List.fold_left (fun a r -> Float.min a r.wall_s) infinity l in
  let overhead = fastest tr /. fastest plain in
  let values =
    List.map
      (fun (mt : Layers.metric) ->
        if mt.name = "obs.tracing_overhead" then (mt, overhead)
        else if List.mem_assoc mt.name base.gc then
          (mt, median_by (fun r -> List.assoc mt.name r.gc) plain)
        else (mt, median_by (fun r -> List.assoc mt.name r.layers) tr))
      Layers.table
  in
  Printf.printf "[perfbench] workload=%s traced runs=%d untraced runs=%d\n" name
    (List.length tr) (List.length plain);
  Printf.printf "  %-36s %16s %-6s %s\n" "per-layer metric" "value" "unit"
    "should move";
  List.iter
    (fun ((mt : Layers.metric), v) ->
      Printf.printf "  %-36s %16.6g %-6s %s\n" mt.name v mt.unit_ mt.target)
    values;
  print_modeled base;
  let recon_ok = ref true in
  List.iteri
    (fun i r ->
      List.iter
        (fun (what, ok, detail) ->
          if not ok then recon_ok := false;
          if i = 0 || not ok then
            Printf.printf "  check %-4s %s: %s\n"
              (if ok then "ok" else "FAIL") what detail)
        r.checks)
    tr;
  let same = same_fingerprint base (plain @ tr) in
  let clean = report_problems (plain @ tr) in
  (try Sys.mkdir ".perfbench_out" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf ".perfbench_out/trace-%s-seed%d.json" name seed in
  Tracer.write_json path;
  Printf.printf "  spans of the last traced run: %d kept, %d dropped -> %s\n"
    !Tracer.n_spans !Tracer.dropped path;
  let correct = same && clean && !recon_ok in
  print_result ~correct base
    (List.map (fun ((mt : Layers.metric), v) -> (mt.name, v, mt.unit_)) values);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload", Arg.Set_string workload,
        "NAME many_conns|bulk_stream|kill_repair" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run for the per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | Some mk ->
    let make = mk ~seed:!seed in
    let ok =
      if !trace = 0 then untraced ~name:!workload ~seconds:!seconds make
      else traced ~name:!workload ~seed:!seed ~seconds:!seconds make
    in
    exit (if ok then 0 else 1)
