(* Per-layer metrics of the traced run, and the reconciliation checks
   that catch bookkeeping bugs in them.

   Each metric names the end-to-end metric it should move, and on which
   workload.  Values a workload does not exercise read 0 (a pair has no
   dispatcher; only kill_repair kills).  The workload-specific modeled
   end-to-end metrics (tails, failover stall, reintegration) appear here
   too: they are exact for a seed, equal in traced and untraced runs, and
   not every workload has samples for them. *)

open Common

type metric = { name : string; unit_ : string; target : string }

let m name unit_ target = { name; unit_; target }

let table =
  [
    (* sim/engine *)
    m "engine.events" "count" "wall_s on many_conns; flat on bulk_stream";
    m "engine.events_per_s" "1/s" "wall_s on many_conns; flat on bulk_stream";
    m "engine.pending_peak" "count" "wall_s, peak_heap_mb on many_conns";
    m "engine.cancelled_skips" "count" "wall_s on many_conns";
    m "engine.run_self_s" "s" "wall_s on every workload";
    m "engine.callback_s" "s" "wall_s on every workload (benchmark's own)";
    (* sim/cpu *)
    m "cpu.primary.util" "ratio" "goodput_mbps on bulk_stream";
    m "cpu.secondary.util" "ratio" "req_latency_us_p99 on many_conns";
    m "cpu.client.util" "ratio" "req_latency_us_p99 on many_conns";
    m "cpu.secondary.backlog_us_max" "us" "req_latency_us_p99 on many_conns";
    (* net/medium *)
    m "medium.frames" "count" "req_latency_us_p99 on many_conns";
    m "medium.bytes" "bytes" "goodput_mbps on bulk_stream";
    m "medium.collision_ratio" "ratio" "goodput_mbps on bulk_stream";
    (* ip / nic *)
    m "nic.rx_frames" "count" "failover_stall_ms_p99 on kill_repair";
    m "ip.rx" "count" "failover_stall_ms_p99 on kill_repair";
    m "arp.misses" "count" "failover_stall_ms_p99 on kill_repair";
    (* tcp *)
    m "tcp.send_wall_us" "us" "wall_s on bulk_stream";
    m "tcp.connect_wall_us" "us" "wall_s on kill_repair";
    m "tcp.retransmits" "count" "req_latency_us_p99, failed_ratio";
    m "tcp.rto_backoffs" "count" "req_latency_us_p99, failed_ratio";
    m "tcp.rst_sent" "count" "failed_ratio";
    m "tcp.demux_misses" "count" "req_latency_us_p99, failed_ratio";
    m "tcp.demux_hit_ratio" "ratio" "req_latency_us_p99, failed_ratio";
    (* core bridges *)
    m "bridge.primary.merged_bytes" "bytes" "goodput_mbps on bulk_stream";
    m "bridge.primary.emitted" "count" "req_latency_us_p50 on many_conns";
    m "bridge.secondary.diverted" "count" "req_latency_us_p50 on many_conns";
    m "bridge.secondary.held_bytes_peak" "bytes" "goodput_mbps on bulk_stream";
    m "bridge.primary.merge_latency_us_p50" "us"
      "req_latency_us_p50 on many_conns";
    m "bridge.primary.merge_latency_us_p95" "us"
      "req_latency_us_p99 on many_conns";
    (* core heartbeat and Replicated *)
    m "heartbeat.sent" "count" "failover_stall_ms_p50 on kill_repair";
    m "heartbeat.received" "count" "failover_stall_ms_p50 on kill_repair";
    m "failover.detect_ms" "ms" "failover_stall_ms_p50 on kill_repair";
    m "failover.takeover_ms" "ms" "failover_stall_ms_p99 on kill_repair";
    m "failover.arp_ms" "ms" "failover_stall_ms_p99 on kill_repair";
    m "replicated.reintegrate_wall_ms" "ms" "wall_s on kill_repair";
    m "replicated.isolated_conns" "count" "reintegration_ms_p50 on kill_repair";
    (* statex *)
    m "statex.transfer_bytes" "bytes" "reintegration_ms_p50 on kill_repair";
    m "statex.bytes_per_conn" "bytes" "reintegration_ms_p50 on kill_repair";
    m "statex.chunks_sent" "count" "reintegration_ms_p50 on kill_repair";
    m "statex.chunk_retransmits" "count" "reintegration_ms_p50 on kill_repair";
    m "statex.accept_ratio" "ratio" "reintegration_ms_p50 on kill_repair";
    m "statex.timeouts" "count" "reintegration_ms_p50 on kill_repair";
    m "statex.encode_us" "us" "wall_s on kill_repair";
    (* dispatch *)
    m "dispatch.routed" "count" "failed_ratio on kill_repair";
    m "dispatch.drained" "count" "conn_setup_us_p99 on kill_repair";
    m "dispatch.refused" "count" "failed_ratio on kill_repair";
    m "dispatch.unmatched" "count" "failed_ratio on kill_repair";
    m "dispatch.probe_reply_ratio" "ratio" "conn_setup_us_p99 on kill_repair";
    m "dispatch.shift_transitions" "count" "conn_setup_us_p99 on kill_repair";
    (* obs *)
    m "obs.histogram_samples" "count" "peak_heap_mb on many_conns";
    m "obs.tracing_overhead" "ratio" "none (traced over untraced wall_s)";
    (* runtime *)
    m "gc.minor_words_per_event" "words" "alloc_mwords, wall_s everywhere";
    m "gc.promoted_mwords" "Mwords" "alloc_mwords, wall_s everywhere";
    m "gc.minor_collections" "count" "alloc_mwords, wall_s everywhere";
    m "gc.major_collections" "count" "wall_s, peak_heap_mb everywhere";
    (* setup *)
    m "setup.topo_build_s" "s" "setup_s";
    m "setup.pool_create_s" "s" "setup_s";
    m "setup.dispatch_s" "s" "setup_s";
    (* workload-specific modeled end-to-end metrics *)
    m "conn_setup_us_p50" "us" "many_conns, kill_repair (n >= 1000)";
    m "conn_setup_us_p99" "us" "many_conns, kill_repair (n >= 1000)";
    m "req_latency_us_p99" "us" "many_conns, kill_repair (n >= 1000)";
    m "failover_stall_ms_p50" "ms" "kill_repair";
    m "failover_stall_ms_p99" "ms" "kill_repair";
    m "reintegration_ms_p50" "ms" "kill_repair";
    m "failed_ratio" "ratio" "every workload; 0 when correct";
  ]

let or0 x = if Float.is_nan x then 0.0 else x
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

type gc = { minor_words : float; promoted : float; minor : int; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

(* The runtime's counters over one repetition.  The traced run takes
   them from its untraced repetitions, so tracing's own allocation does
   not count. *)
let gc_metrics ~gc0 ~gc1 ~events =
  [
    ( "gc.minor_words_per_event",
      (gc1.minor_words -. gc0.minor_words) /. float_of_int events );
    ("gc.promoted_mwords", (gc1.promoted -. gc0.promoted) /. 1e6);
    ("gc.minor_collections", float_of_int (gc1.minor - gc0.minor));
    ("gc.major_collections", float_of_int (gc1.major - gc0.major));
  ]

(* Values of every metric in [table] for one traced run, except the
   runtime's counters.  [extra] holds the workload's own values
   (failover, dispatch, statex timing). *)
let collect (inst : Drive.instance) (st : Drive.t) =
  let reg = World.metrics inst.world in
  let c = Registry.counter_value reg in
  let merge_latency p =
    match Registry.histogram_summary reg "bridge.primary.merge_latency_us" with
    | Some s -> if p = 50 then s.Tcpfo_util.Stats.median else s.p95
    | None -> 0.0
  in
  let sim = Time.to_sec (st.sim1 - st.sim0) in
  let util role =
    match List.assoc_opt role inst.roles with
    | Some (_ :: _ as hs) ->
      List.fold_left
        (fun a h -> a +. Time.to_sec (Cpu.total_busy (Host.cpu h)))
        0.0 hs
      /. float_of_int (List.length hs) /. sim
    | _ -> 0.0
  in
  let hits = sum_hosts reg "tcp.demux_hits" in
  let misses = sum_hosts reg "tcp.demux_misses" in
  let accepts = c "statex.accepts" in
  let hist_samples =
    List.fold_left
      (fun a n ->
        match Registry.histogram_summary reg n with
        | Some s -> a + s.Tcpfo_util.Stats.count
        | None -> a)
      0 (Registry.names reg)
  in
  let md = inst.model in
  let self_s = st.run_s -. st.run_cb_s in
  let v =
    [
      ("engine.events", float_of_int st.events);
      ("engine.events_per_s", float_of_int st.events /. st.run_s);
      ("engine.pending_peak", float_of_int st.pending_peak);
      ("engine.cancelled_skips", float_of_int (c "engine.cancelled_skips"));
      ("engine.run_self_s", self_s);
      ("engine.callback_s", st.run_cb_s);
      ("cpu.primary.util", util "primary");
      ("cpu.secondary.util", util "secondary");
      ("cpu.client.util", util "client");
      ("cpu.secondary.backlog_us_max", Time.to_us st.backlog_peak);
      ("medium.frames", float_of_int (c "medium.frames"));
      ("medium.bytes", float_of_int (c "medium.bytes"));
      ("medium.collision_ratio", ratio (c "medium.collisions") (c "medium.frames"));
      ("nic.rx_frames", float_of_int (sum_hosts reg "nic.rx"));
      ("ip.rx", float_of_int (sum_hosts reg "ip.rx"));
      ("arp.misses", float_of_int (sum_hosts reg "arp.misses"));
      ("tcp.send_wall_us", Tracer.mean_us "tcp.send");
      ("tcp.connect_wall_us", Tracer.mean_us "tcp.connect");
      ("tcp.retransmits", float_of_int (sum_hosts reg "tcp.retransmits"));
      ("tcp.rto_backoffs", float_of_int (sum_hosts reg "tcp.rto_backoffs"));
      ("tcp.rst_sent", float_of_int (sum_hosts reg "tcp.rst_sent"));
      ("tcp.demux_misses", float_of_int misses);
      ("tcp.demux_hit_ratio", ratio hits (hits + misses));
      ( "bridge.primary.merged_bytes",
        float_of_int (c "bridge.primary.merged_bytes") );
      ("bridge.primary.emitted", float_of_int (c "bridge.primary.emitted"));
      ("bridge.secondary.diverted", float_of_int (c "bridge.secondary.diverted"));
      ("bridge.secondary.held_bytes_peak", float_of_int st.held_peak);
      ("bridge.primary.merge_latency_us_p50", merge_latency 50);
      ("bridge.primary.merge_latency_us_p95", merge_latency 95);
      ("heartbeat.sent", float_of_int (sum_hosts reg "heartbeat.sent"));
      ("heartbeat.received", float_of_int (sum_hosts reg "heartbeat.received"));
      ("replicated.isolated_conns", float_of_int (c "statex.isolated_conns"));
      ("statex.transfer_bytes", float_of_int (c "statex.transfer_bytes"));
      ("statex.bytes_per_conn", ratio (c "statex.transfer_bytes") accepts);
      ("statex.chunks_sent", float_of_int (c "statex.chunks_sent"));
      ("statex.chunk_retransmits", float_of_int (c "statex.chunk_retransmits"));
      ("statex.accept_ratio", ratio accepts (c "statex.offers_sent"));
      ("statex.timeouts", float_of_int (c "statex.timeouts"));
      ("obs.histogram_samples", float_of_int hist_samples);
    ]
    @ List.map (fun (n, v, _, _) -> (n, or0 v)) (modeled md)
    @ inst.setup @ inst.extra ()
  in
  List.map
    (fun mt -> (mt.name, Option.value ~default:0.0 (List.assoc_opt mt.name v)))
    table

(* Reconciliation checks: (what, holds, detail) *)
let reconcile (inst : Drive.instance) (st : Drive.t) values ~workload =
  let reg = World.metrics inst.world in
  let c = Registry.counter_value reg in
  let get n = List.assoc n values in
  let offers = c "statex.offers_sent" in
  let settled = c "statex.accepts" + c "statex.rejects" + c "statex.timeouts" in
  let accounted = st.run_s +. st.between_s in
  let utils =
    List.filter (fun (n, _) -> String.length n > 4 && String.sub n 0 4 = "cpu."
                               && Filename.extension n = ".util") values
  in
  [
    ( "slice event counts sum to Engine.processed",
      st.slice_events = st.events
      && st.events = Engine.processed (World.engine inst.world) - st.events0,
      Printf.sprintf "%d slices, %d vs %d" st.slices st.slice_events st.events );
    ( "every cpu.*.util in [0, 1]",
      List.for_all (fun (_, u) -> u >= 0.0 && u <= 1.0) utils,
      String.concat " "
        (List.map (fun (n, u) -> Printf.sprintf "%s=%.4f" n u) utils) );
    ( "statex accepts + rejects + timeouts = offers",
      settled = offers,
      Printf.sprintf "%d vs %d" settled offers );
    ( "dispatch.routed = connections attempted",
      workload <> "kill_repair"
      || int_of_float (get "dispatch.routed") = attempted inst.model,
      if workload <> "kill_repair" then "no dispatcher"
      else
        Printf.sprintf "%.0f vs %d" (get "dispatch.routed")
          (attempted inst.model) );
    ( "callbacks + engine self time account for World.run",
      st.run_cb_s <= st.run_s
      && accounted <= st.loop_s *. 1.001
      && accounted >= st.loop_s *. 0.9,
      Printf.sprintf "callbacks %.4fs + self %.4fs = run %.4fs; + between %.4fs \
                      = %.4fs of loop %.4fs"
        st.run_cb_s (st.run_s -. st.run_cb_s) st.run_s st.between_s accounted
        st.loop_s );
  ]
