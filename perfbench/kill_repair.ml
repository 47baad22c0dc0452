(* kill_repair: a dispatcher fleet under rotating kill and reintegrate
   cycles (the fleet experiment's shape).

   One sharded service address fronts 8 two-replica pools of
   server-class hosts on 1 Gb/s segments.  [long_conns] long-lived
   request/reply connections send a 16-byte request on their own seeded
   ~100 ms period; their server application checkpoints at every reply
   boundary, so reintegration ships delta snapshots.  Beside them a
   steady seeded trickle of short connections opens, sends one request,
   reads a 2 KB reply and closes.  [cycles] kill/reintegrate cycles
   rotate over the pools, alternating primaries and secondaries: the only
   workload that runs heartbeat detection, the takeover with gratuitous
   ARP, degradation, statex capture/ship/install and dispatch weight
   shifting. *)

open Common
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Dispatch = Tcpfo_dispatch.Dispatch
module Snapshot = Tcpfo_statex.Snapshot
module Event = Tcpfo_obs.Event
module Ipaddr = Tcpfo_packet.Ipaddr

let pools = 8
let cycles = 16
let long_conns = 1000
let n_clients = 8
let long_port = 7000
let short_port = 7001
let reply_size = 2048
let open_gap = Time.us 300
let short_gap_mean_us = 1000.0
let first_kill = Time.ms 400
let gw = "10.0.0.254"

type inputs = {
  streams : streams;
  offsets : int array;  (** request stream of each long-lived connection *)
  starts : Time.t array;
  periods : Time.t array;  (** request period, 80-120 ms *)
  kill_gaps : Time.t array;  (** quiet time before each kill, 5-25 ms *)
  short_seed : int;  (** seeds each world's short-connection arrivals *)
}

let inputs ~seed =
  let rng = Rng.create ~seed:(1_000_003 * seed + 37) in
  let streams = make_streams rng in
  {
    streams;
    offsets = Array.init long_conns (fun _ -> Rng.int rng block_len);
    starts = Array.init long_conns (fun i -> (i * open_gap) + Rng.int rng open_gap);
    periods = Array.init long_conns (fun _ -> Time.ms 80 + Rng.int rng (Time.ms 40));
    kill_gaps = Array.init cycles (fun _ -> Time.ms 5 + Rng.int rng (Time.ms 20));
    short_seed = Rng.bits32 rng;
  }

let shard_name i = Printf.sprintf "shard%d" i

let spec () =
  [ Topo.segment ~config:gigabit_lan "front";
    Topo.segment ~config:gigabit_lan "back" ]
  @ List.init n_clients (fun i ->
        Topo.host ~profile:server_profile
          ~addr:(Printf.sprintf "10.1.0.%d" (10 + i))
          ~seg:"front"
          (Printf.sprintf "client%d" i))
  @ List.concat
      (List.init pools (fun i ->
           [
             Topo.host ~profile:server_profile ~gateway:gw
               ~addr:(Printf.sprintf "10.0.0.%d" (1 + (2 * i)))
               ~seg:"back" (Printf.sprintf "s%da" i);
             Topo.host ~profile:server_profile ~gateway:gw
               ~addr:(Printf.sprintf "10.0.0.%d" (2 + (2 * i)))
               ~seg:"back" (Printf.sprintf "s%db" i);
           ]))
  @ List.init pools (fun i ->
        Topo.group
          ~members:[ Printf.sprintf "s%da" i; Printf.sprintf "s%db" i ]
          (shard_name i))
  @ [
      Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
      Topo.dispatch ~service:"fleet" ~back:gw
        ~shards:(List.init pools shard_name)
        "disp";
    ]

(* Server applications, identical on every replica. *)
let serve_long ~role:_ =
  Tracer.cb (fun tcb ->
      let pending = Buffer.create request_len in
      Tcb.set_on_data tcb
        (Tracer.cb (fun d ->
             (* at a reply boundary the state no longer depends on the
                consumed input: checkpoint, so snapshots ship as deltas *)
             serve_requests tcb pending d ~on_reply:(fun () -> Tcb.checkpoint tcb)));
      Tcb.set_on_eof tcb (Tracer.cb (fun () -> Tcb.close tcb)))

let serve_short streams ~role:_ =
  Tracer.cb (fun tcb ->
      let header = Buffer.create request_len in
      let replied = ref false in
      Tcb.set_on_data tcb
        (Tracer.cb (fun d ->
             if not !replied then begin
               Buffer.add_string header d;
               if Buffer.length header >= request_len then begin
                 replied := true;
                 let off = offset_of_request (Buffer.contents header) in
                 let r = chunk streams ~off ~pos:0 ~len:reply_size in
                 ignore (Tracer.call "tcp.send" (fun () -> Tcb.send tcb r));
                 Tcb.close tcb
               end
             end));
      Tcb.set_on_eof tcb (Tracer.cb (fun () -> if not !replied then Tcb.close tcb)))

type victim = {
  mutable kill_at : Time.t;
  mutable reint_at : Time.t option;
}

let setup ~seed inp () =
  let t0 = wall () in
  let phases = ref [] in
  let world, topo =
    Drive.phase phases "setup.topo_build_s" (fun () ->
        let world = World.create ~seed () in
        (world, Topo.build world (spec ())))
  in
  let info = Topo.dispatch_of topo "disp" in
  let shard_pools =
    Drive.phase phases "setup.pool_create_s" (fun () ->
        let config =
          Failover_config.make ~service_ports:[ long_port; short_port ] ()
        in
        List.map
          (fun g ->
            let replicas = Topo.group_of topo g in
            let pool = Replicated.create_pool ~replicas ~config () in
            List.iter Dispatch.arm_probe_responder replicas;
            (g, pool))
          info.Topo.di_shards)
  in
  let disp =
    Drive.phase phases "setup.dispatch_s" (fun () ->
        Dispatch.create ~host:info.Topo.di_host ~service:info.Topo.di_service
          ~back:info.Topo.di_back ~shards:shard_pools ())
  in
  List.iter
    (fun (_, pool) ->
      Replicated.listen pool ~port:long_port ~on_accept:serve_long;
      Replicated.listen pool ~port:short_port ~on_accept:(serve_short inp.streams))
    shard_pools;
  let setup_s = wall () -. t0 in
  let engine = World.engine world in
  let m = new_model () in
  let back = Topo.segment_of topo "back" in
  let clients =
    Array.init n_clients (fun i -> Topo.host_of topo (Printf.sprintf "client%d" i))
  in
  let service = Dispatch.service disp in
  let max_w = Dispatch.default_config.Dispatch.max_weight in

  (* failover timing from the pools' own events *)
  let detect_ms = Samples.create () and takeover_ms = Samples.create () in
  let arp_ms = Samples.create () in
  let victims = Hashtbl.create pools in
  let current = ref None in
  let ms_since t = Time.to_ms (World.now world - t) in
  List.iter
    (fun (name, pool) ->
      Replicated.add_on_event pool (fun ev ->
          match (Hashtbl.find_opt victims name, ev) with
          | ( Some v,
              (Replicated.Primary_failure_detected | Secondary_failure_detected) )
            ->
            Samples.add detect_ms (ms_since v.kill_at);
            Tracer.span ~cat:"failover" ~clock:Tracer.Sim
              ~ts_us:(Time.to_us v.kill_at)
              ~dur_us:(Time.to_us (World.now world - v.kill_at))
              ("detect " ^ name)
          | Some v, Takeover_complete ->
            Samples.add takeover_ms (ms_since v.kill_at);
            Tracer.span ~cat:"failover" ~clock:Tracer.Sim
              ~ts_us:(Time.to_us v.kill_at)
              ~dur_us:(Time.to_us (World.now world - v.kill_at))
              ("takeover " ^ name)
          | Some ({ reint_at = Some t; _ } as v), Transfers_complete n ->
            Samples.add m.reint_ms (ms_since t);
            Tracer.span ~cat:"statex" ~clock:Tracer.Sim ~ts_us:(Time.to_us t)
              ~dur_us:(Time.to_us (World.now world - t))
              ~args:[ ("conns", float_of_int n) ]
              ("reintegrate " ^ name);
            v.reint_at <- None
          | _ -> ()))
    shard_pools;
  if !Tracer.on then
    ignore
      (Event.Bus.subscribe (Tcpfo_obs.Obs.bus (World.obs world)) (fun ~at ev ->
           match (ev, !current) with
           | Event.Arp_takeover { host; _ }, Some v ->
             Samples.add arp_ms (Time.to_ms (at - v.kill_at));
             Tracer.span ~cat:"failover" ~clock:Tracer.Sim
               ~ts_us:(Time.to_us v.kill_at)
               ~dur_us:(Time.to_us (at - v.kill_at))
               ("gratuitous ARP " ^ host)
           | _ -> ()));

  (* long-lived connections *)
  let stopping = ref false in
  let longs = ref [] in
  let open_long i () =
    let c = new_conn m i in
    let now = World.now world in
    note_start m now;
    let client = clients.(i mod n_clients) in
    let tcb =
      Tracer.call "tcp.connect" (fun () ->
          Stack.connect (Host.tcp client) ~remote:(service, long_port) ())
    in
    longs := (c, client, tcb) :: !longs;
    let x = new_exchange inp.offsets.(i) in
    let closed = ref false in
    let maybe_close () =
      if !stopping && x.replied = x.sent && not !closed then begin
        closed := true;
        Tcb.close tcb
      end
    in
    let rec fire () =
      if not c.settled then
        if !stopping then maybe_close ()
        else begin
          if not (send_request inp.streams x tcb ~due:(World.now world)) then
            fail m c "request not accepted";
          ignore (Engine.schedule engine ~delay:inp.periods.(i) (Tracer.cb fire))
        end
    in
    Tcb.set_on_established tcb
      (Tracer.cb (fun () ->
           c.established <- true;
           Samples.add m.conn_setup_us (Time.to_us (World.now world - now));
           fire ()));
    Tcb.set_on_data tcb
      (Tracer.cb (fun d ->
           let now = World.now world in
           (match c.stall_from with
           | Some t ->
             Samples.add m.stall_ms (Time.to_ms (now - t));
             c.stall_from <- None
           | None -> ());
           if not (receive_replies inp.streams m x d ~now) then
             fail m c "reply bytes differ"
           else maybe_close ()));
    Tcb.set_on_eof tcb
      (Tracer.cb (fun () ->
           if !closed then finish m c (World.now world)
           else fail m c "EOF before the client closed"));
    Tcb.set_on_reset tcb (Tracer.cb (fun () -> fail m c "RST"))
  in

  (* the short-connection trickle, drawn per world from its own seed *)
  let arrivals = Rng.create ~seed:inp.short_seed in
  let n_short = ref 0 in
  let rec open_short () =
    if not !stopping then begin
      let j = !n_short in
      incr n_short;
      let c = new_conn m (long_conns + j) in
      let now = World.now world in
      let client = clients.(j mod n_clients) in
      let request =
        chunk inp.streams ~off:(Rng.int arrivals block_len) ~pos:0 ~len:request_len
      in
      let off = offset_of_request request in
      let tcb =
        Tracer.call "tcp.connect" (fun () ->
            Stack.connect (Host.tcp client) ~remote:(service, short_port) ())
      in
      let due = ref now in
      let got = ref 0 in
      Tcb.set_on_established tcb
        (Tracer.cb (fun () ->
             due := World.now world;
             Samples.add m.conn_setup_us (Time.to_us (!due - now));
             let n = Tracer.call "tcp.send" (fun () -> Tcb.send tcb request) in
             if n <> request_len then fail m c "request not accepted"));
      Tcb.set_on_data tcb
        (Tracer.cb (fun d ->
             if
               !got + String.length d > reply_size
               || not (matches inp.streams ~off ~pos:!got d)
             then fail m c "reply bytes differ";
             got := !got + String.length d;
             if !got = reply_size then
               Samples.add m.req_latency_us (Time.to_us (World.now world - !due))));
      Tcb.set_on_eof tcb
        (Tracer.cb (fun () ->
             Tcb.close tcb;
             if !got = reply_size then begin
               m.payload <- m.payload + request_len + reply_size;
               finish m c (World.now world)
             end
             else fail m c "EOF before the whole reply"));
      Tcb.set_on_reset tcb (Tracer.cb (fun () -> fail m c "RST"));
      let gap = Rng.exponential arrivals ~mean:short_gap_mean_us in
      ignore
        (Engine.schedule engine
           ~delay:(Time.ns (int_of_float (gap *. 1e3)))
           (Tracer.cb open_short))
    end
  in

  (* Statex capture cost on the survivor, measured from outside: snapshot
     every live connection and round-trip it through the codec. *)
  let measure_encode survivor =
    List.iter
      (fun tcb ->
        let ok =
          Tracer.call ~cat:"statex" "statex.encode" (fun () ->
              let image =
                {
                  Snapshot.tcb = Tcb.snapshot tcb;
                  role = `Server;
                  delta = 0;
                  next_wire_seq = Tcb.snd_nxt tcb;
                  held_segments = 0;
                  solo = false;
                }
              in
              Result.is_ok (Snapshot.decode (Snapshot.encode image)))
        in
        if not ok then violation m "snapshot did not survive encode/decode")
      (Stack.connections (Host.tcp survivor))
  in

  (* rotating kill/reintegrate cycles, polled between 1 ms slices *)
  let cycle = ref 0 in
  let stage = ref `Idle in
  let next_kill_at = ref (first_kill + inp.kill_gaps.(0)) in
  let min_w = ref max_w in
  let ramped = ref 0 in
  let repair_host = ref None in
  let gw_addr = Ipaddr.of_string gw in
  let advance () =
    if !cycle < cycles then begin
      let sname = shard_name (!cycle mod pools) in
      let pool = List.assoc sname shard_pools in
      min_w := min !min_w (Dispatch.weight disp sname);
      let try_reintegrate h =
        match
          Tracer.call ~cat:"statex" "replicated.reintegrate" (fun () ->
              Replicated.reintegrate pool ~secondary:h)
        with
        | () ->
          (Hashtbl.find victims sname).reint_at <- Some (World.now world);
          stage := `Settle
        | exception Invalid_argument _ -> ()
      in
      match !stage with
      | `Idle ->
        if World.now world >= !next_kill_at then begin
          let now = World.now world in
          let v = { kill_at = now; reint_at = None } in
          Hashtbl.replace victims sname v;
          current := Some v;
          min_w := max_w;
          let kill_primary = (!cycle + (!cycle / pools)) mod 2 = 0 in
          (match Replicated.replicas pool with
          | p :: s :: _ ->
            if !Tracer.on then measure_encode (if kill_primary then s else p)
          | _ -> ());
          List.iter
            (fun (c, client, tcb) ->
              if
                c.established && (not c.settled) && c.stall_from = None
                && Dispatch.pinned_shard disp
                     ~client:(Host.addr client, snd (Tcb.local_endpoint tcb))
                   = Some sname
              then c.stall_from <- Some now)
            !longs;
          if kill_primary then Replicated.kill_primary pool
          else Replicated.kill_secondary pool;
          stage := `Detect
        end
      | `Detect ->
        if Replicated.status pool <> `Normal then
          stage := `Repair (World.now world + Time.ms 2)
      | `Repair at ->
        if World.now world >= at then begin
          match !repair_host with
          | Some h -> try_reintegrate h
          | None ->
            let h =
              World.add_host world back
                ~name:(Printf.sprintf "fix%d" !cycle)
                ~addr:(Printf.sprintf "10.0.0.%d" (100 + !cycle))
                ~profile:server_profile ()
            in
            Host.set_default_via_lan h ~gateway:gw_addr;
            World.warm_arp (h :: Replicated.replicas pool);
            Topo.warm_dispatch_arp topo "disp" [ h ];
            Dispatch.arm_probe_responder h;
            repair_host := Some h;
            try_reintegrate h
        end
      | `Settle ->
        if
          Replicated.status pool = `Normal
          && Replicated.pending_transfers pool = 0
          && Dispatch.weight disp sname = max_w
          && Dispatch.state disp sname = Dispatch.Healthy
        then begin
          if !min_w < max_w then incr ramped;
          incr cycle;
          stage := `Idle;
          repair_host := None;
          if !cycle < cycles then
            next_kill_at := World.now world + inp.kill_gaps.(!cycle)
          else stopping := true
        end
    end
  in
  let run st =
    for i = 0 to long_conns - 1 do
      ignore
        (Engine.schedule engine ~delay:inp.starts.(i)
           (Tracer.cb (open_long i)))
    done;
    ignore (Engine.schedule engine ~delay:Time.zero (Tracer.cb open_short));
    Drive.run st world ~slice:(Time.ms 1) ~limit:(Time.sec 60.0)
      ~secondaries:(fun () ->
        List.filter_map
          (fun (_, pool) ->
            match Replicated.replicas pool with _ :: s :: _ -> Some s | _ -> None)
          shard_pools)
      ~finished:(fun () -> !stopping && m.unsettled = 0)
      ~between:advance;
    if !cycle < cycles then
      violation m (Printf.sprintf "only %d of %d kill/repair cycles" !cycle cycles);
    let k = Dispatch.counters disp in
    if k.Dispatch.refused > 0 || k.isolation_drops > 0 then
      violation m
        (Printf.sprintf "dispatcher refused %d SYNs, dropped %d cross-shard replies"
           k.refused k.isolation_drops);
    List.iter
      (fun (name, pool) ->
        if Replicated.transfer_failures pool > 0 then
          violation m (Printf.sprintf "%s: %d failed transfers" name
                         (Replicated.transfer_failures pool)))
      shard_pools
  in
  let by_role pick =
    List.filter_map (fun g -> pick (Topo.group_of topo g)) info.Topo.di_shards
  in
  {
    Drive.world;
    model = m;
    setup = List.rev !phases;
    setup_s;
    roles =
      [
        ("primary", by_role (function p :: _ -> Some p | [] -> None));
        ("secondary", by_role (function _ :: s :: _ -> Some s | _ -> None));
        ("client", Array.to_list clients);
      ];
    run;
    extra =
      (fun () ->
        let k = Dispatch.counters disp in
        [
          ("failover.detect_ms", Samples.median detect_ms);
          ("failover.takeover_ms", Samples.median takeover_ms);
          ("failover.arp_ms", Samples.median arp_ms);
          ( "replicated.reintegrate_wall_ms",
            Tracer.mean_us "replicated.reintegrate" /. 1e3 );
          ("statex.encode_us", Tracer.mean_us "statex.encode");
          ("dispatch.routed", float_of_int k.Dispatch.routed);
          ("dispatch.drained", float_of_int k.drained);
          ("dispatch.refused", float_of_int k.refused);
          ("dispatch.unmatched", float_of_int k.unmatched);
          ("dispatch.probe_reply_ratio",
           if k.probes_sent = 0 then 0.0
           else float_of_int k.probe_replies /. float_of_int k.probes_sent);
          ("dispatch.shift_transitions", float_of_int k.shift_transitions);
        ]
        |> List.map (fun (n, v) -> (n, if Float.is_nan v then 0.0 else v)));
    modeled =
      (fun () ->
        let k = Dispatch.counters disp in
        Printf.sprintf
          "cycles=%d ramped=%d short=%d routed=%d drained=%d refused=%d \
           unmatched=%d probes=%d/%d shifts=%d detect=%.17g takeover=%.17g"
          !cycle !ramped !n_short k.Dispatch.routed k.drained k.refused k.unmatched
          k.probe_replies k.probes_sent k.shift_transitions
          (Samples.median detect_ms) (Samples.median takeover_ms));
  }
