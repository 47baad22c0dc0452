module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Seq32 = Tcpfo_util.Seq32
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Tcp_segment = Tcpfo_packet.Tcp_segment
module Eth_frame = Tcpfo_packet.Eth_frame
module Capture = Tcpfo_net.Capture
module Transfer = Tcpfo_statex.Transfer
module Ip_layer = Tcpfo_ip.Ip_layer
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Chain = Tcpfo_core.Chain
module Failover_config = Tcpfo_core.Failover_config
module Registry = Tcpfo_obs.Registry
module Dispatch = Tcpfo_dispatch.Dispatch

type victim = Primary | Secondary | Nobody
type phase = Handshake | Transfer | Fin | Idle

type chaos =
  | Calm
  | Burst
  | Drops
  | Corruption
  | Cross_traffic
  | Pause_client
  | Partition_client

type repair = No_repair | Repair | Repair_then_rekill
type pool = Pair | Pool3 of { rejoin_first : bool }
type role = Server | Backend_client | Chain3

type scenario = {
  seed : int;
  victim : victim;
  phase : phase;
  chaos : chaos;
  size : int;
  repair : repair;
  xfer_loss : float;
  pool : pool;
  role : role;
  fleet : bool;
  checkpointed : bool;
}

type outcome = {
  scenario : scenario;
  violations : string list;
  metrics : string;
}

let victim_to_string = function
  | Primary -> "primary"
  | Secondary -> "secondary"
  | Nobody -> "nobody"

let phase_to_string = function
  | Handshake -> "handshake"
  | Transfer -> "transfer"
  | Fin -> "fin"
  | Idle -> "idle"

let chaos_to_string = function
  | Calm -> "calm"
  | Burst -> "burst"
  | Drops -> "drops"
  | Corruption -> "corruption"
  | Cross_traffic -> "cross"
  | Pause_client -> "pause"
  | Partition_client -> "partition"

let repair_to_string = function
  | No_repair -> "none"
  | Repair -> "repair"
  | Repair_then_rekill -> "repair+rekill"

let pool_to_string = function
  | Pair -> "pair"
  | Pool3 { rejoin_first = false } -> "pool3"
  | Pool3 { rejoin_first = true } -> "pool3+rejoin"

let role_to_string = function
  | Server -> "server"
  | Backend_client -> "backend"
  | Chain3 -> "chain"

let describe s =
  Printf.sprintf
    "seed=%d kill=%s/%s chaos=%s size=%d repair=%s xloss=%.2f pool=%s role=%s \
     fleet=%b ckpt=%b"
    s.seed
    (victim_to_string s.victim) (phase_to_string s.phase)
    (chaos_to_string s.chaos) s.size (repair_to_string s.repair) s.xfer_loss
    (pool_to_string s.pool) (role_to_string s.role) s.fleet s.checkpointed

(* The scenario space is drawn from the seed alone, so a seed printed in
   a failure report reconstructs the exact run. *)
let scenario_of_seed seed =
  let r = Rng.create ~seed:(seed * 0x9E3779B9 + 1) in
  let victim =
    match Rng.int r 10 with
    | 0 | 1 | 2 -> Nobody
    | 3 | 4 | 5 | 6 | 7 -> Primary
    | _ -> Secondary
  in
  let phase =
    if victim = Nobody then Idle
    else
      match Rng.int r 6 with
      | 0 -> Handshake
      | 1 | 2 | 3 -> Transfer
      | 4 -> Fin
      | _ -> Idle
  in
  let chaos =
    match Rng.int r 9 with
    | 0 | 1 | 2 -> Calm
    | 3 -> Burst
    | 4 -> Drops
    | 5 -> Corruption
    | 6 -> Cross_traffic
    | 7 -> Pause_client
    | _ -> Partition_client
  in
  let size =
    match Rng.int r 6 with
    | 0 | 1 -> 2_000
    | 2 | 3 -> 20_000
    | 4 -> 120_000
    | _ -> 400_000
  in
  (* drawn after every pre-existing dimension, so adding the repair axis
     left all earlier seed → scenario mappings intact *)
  let repair =
    if victim = Nobody then No_repair
    else
      match Rng.int r 4 with
      | 0 | 1 -> No_repair
      | 2 -> Repair
      | _ -> Repair_then_rekill
  in
  (* lossy-control-channel axis, again drawn after everything older: a
     loss burst covering the hot state transfers, under which every
     transfer must still complete (the streaming protocol retransmits
     through it) rather than strand connections solo *)
  let xfer_loss =
    if repair = No_repair then 0.0
    else match Rng.int r 4 with 0 | 1 -> 0.0 | 2 -> 0.2 | _ -> 0.35
  in
  (* pool-shape axis, drawn after the above for the same reason.  A pool
     scenario's repair IS the automatic promotion of its standby, so the
     explicit repair axis is forced off — but only after its draws
     happened, keeping older seeds' mappings intact.  The xfer_loss draw
     is kept: in a pool run the burst covers the promotion's hot state
     transfers instead. *)
  let pool =
    if victim = Nobody then Pair
    else
      match Rng.int r 4 with
      | 0 | 1 -> Pair
      | 2 -> Pool3 { rejoin_first = false }
      | _ -> Pool3 { rejoin_first = true }
  in
  let repair = if pool = Pair then repair else No_repair in
  (* service-role axis, newest of all: which shape of replicated
     application carries the connection — the listening server, a §7.2
     backend client, or a three-tier chain.  Drawn last, then forced to
     [Server] for the no-kill control, pool scenarios and cross traffic
     (those compose with the server app only), so every older seed's
     world replays untouched. *)
  let role =
    match Rng.int r 5 with
    | 0 | 1 | 2 -> Server
    | 3 -> Backend_client
    | _ -> Chain3
  in
  let role =
    if victim = Nobody || pool <> Pair || chaos = Cross_traffic then Server
    else role
  in
  (* fleet axis, drawn after everything older: run the scenario's pair
     behind a dispatcher tier — two two-replica shards on a back
     segment, the client on a front segment, the kill aimed at whichever
     shard the connection is pinned to.  Forced off for pool cascades,
     non-server roles and cross traffic (those compose with the plain
     pair world only) — after the draw, so older seeds replay
     untouched. *)
  let fleet = Rng.int r 6 = 0 in
  let fleet =
    if pool <> Pair || role <> Server || chaos = Cross_traffic then false
    else fleet
  in
  (* checkpointed-connection axis, drawn after everything older: a
     long-lived request/reply connection that checkpoints at every
     request boundary rides alongside the main stream, under a
     retention budget far smaller than its lifetime traffic — only
     checkpoint truncation keeps it transferable, and it must survive
     the reintegration (delta snapshot) with its reply stream intact.
     Only meaningful when a hot state transfer happens, and composed
     with the plain pair/pool server worlds; forced off elsewhere AFTER
     the draw so older seeds replay untouched. *)
  let checkpointed = Rng.int r 3 = 0 in
  let checkpointed =
    if
      fleet || role <> Server || chaos = Cross_traffic
      || (repair = No_repair && pool = Pair)
    then false
    else checkpointed
  in
  {
    seed; victim; phase; chaos; size; repair; xfer_loss; pool; role; fleet;
    checkpointed;
  }

let pattern ~tag n =
  String.init n (fun i -> Char.chr ((i * 131 + tag * 7 + i / 251) land 0xFF))

let service_port = 5000
let cross_port = 5001
let ckpt_port = 5002
let backend_port = 7000
let cross_size = 30_000
let ck_req_bytes = 1_200

(* retention budget for the checkpointed-connection axis: far smaller
   than the connection's lifetime traffic, so only the application's
   per-request checkpoints keep it transferable *)
let ck_tcp_config =
  { Tcpfo_tcp.Tcp_config.default with retention_budget = 8_000 }

(* stream [payload] into [tcb] respecting the send buffer, then close *)
let stream_and_close tcb payload =
  let off = ref 0 in
  let n = String.length payload in
  let rec pump () =
    if !off < n then begin
      let want = min 32768 (n - !off) in
      let sent = Tcb.send tcb (String.sub payload !off want) in
      off := !off + sent;
      if sent < want then Tcb.set_on_drain tcb pump else pump ()
    end
    else Tcb.close tcb
  in
  pump ()

(* deterministic request/reply service body, shared by every role *)
let service_app ~reply tcb =
  let got = Buffer.create 8 in
  Tcb.set_on_data tcb (fun data ->
      Buffer.add_string got data;
      if Buffer.length got >= 4 then stream_and_close tcb reply)

(* deterministic request/reply service installed on both replicas *)
let install_service repl ~port ~reply =
  Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
      service_app ~reply tcb)

(* Wire-level observer on the unreplicated peer: every TCP segment
   arriving from the service address and matching [seg_match] is checked
   against the service's sequence numbering.  After a failover the
   survivor must keep speaking in the numbering the peer already knows
   (the paper's central claim): a SYN carrying a fresh ISN or a data
   segment whose payload disagrees with [expected] at its sequence
   offset is a violation, as is any RST.  For a server-role service the
   ISN arrives on the SYN-ACK; for a §7.2 client-role connection it
   arrives on the service's own SYN. *)
let install_wire_check client ~svc ~seg_match ~expected violations =
  let isn = ref None in
  let inner = Ip_layer.rx_hook (Host.ip client) in
  Ip_layer.set_rx_hook (Host.ip client)
    (Some
       (fun pkt ~link_addressed ->
         (match pkt.Ipv4_packet.payload with
         | Ipv4_packet.Tcp seg
           when Ipaddr.equal pkt.Ipv4_packet.src svc && seg_match seg -> (
           let flags = seg.Tcp_segment.flags in
           if flags.Tcp_segment.rst then
             violations := "RST reached the peer" :: !violations;
           if flags.Tcp_segment.syn then (
             match !isn with
             | None -> isn := Some seg.Tcp_segment.seq
             | Some i when Seq32.diff seg.Tcp_segment.seq i = 0 -> ()
             | Some _ ->
               violations :=
                 "second SYN left the service's original numbering"
                 :: !violations);
           let len = String.length seg.Tcp_segment.payload in
           if len > 0 then
             match !isn with
             | None ->
               violations := "data before the service's SYN" :: !violations
             | Some i ->
               let off = Seq32.diff seg.Tcp_segment.seq (Seq32.succ i) in
               if off < 0 || off + len > String.length expected then
                 violations :=
                   Printf.sprintf
                     "wire sequence offset %d outside the stream (len %d)"
                     off len
                   :: !violations
               else if String.sub expected off len <> seg.Tcp_segment.payload
               then
                 violations :=
                   Printf.sprintf "wire payload mismatch at offset %d" off
                   :: !violations)
         | _ -> ());
         match inner with
         | None -> Ip_layer.Rx_pass pkt
         | Some hook -> hook pkt ~link_addressed))

(* chaos plans, expressed in the DSL so every soak run also exercises the
   parser and injector end to end; bursts are kept well under the
   heartbeat detector's silence budget so chaos never masquerades as a
   crash, and only the client is paused/partitioned (freezing a replica
   IS a failure as far as the detector can know) *)
let chaos_plan chaos =
  match chaos with
  | Calm | Cross_traffic -> []
  | Burst -> Fault.parse_exn "at 2ms loss lan 0.35 for 6ms"
  | Drops -> Fault.parse_exn "at 2ms drop 3 lan"
  | Corruption -> Fault.parse_exn "at 2ms corrupt 2 lan"
  | Pause_client -> Fault.parse_exn "at 2ms pause client; at 8ms resume client"
  | Partition_client -> Fault.parse_exn "at 2ms partition client for 6ms"

(* rough wire time of the reply, for placing mid-transfer kills *)
let transfer_estimate size = Time.ms 1 + (size * 100)

(* every statex control datagram on the LAN, for the MSS-bound check *)
let capture_transfers world lan =
  Capture.start (World.engine world) lan
    ~filter:(fun f ->
      match f.Eth_frame.payload with
      | Eth_frame.Ip { Ipv4_packet.payload = Ipv4_packet.Raw { proto; _ }; _ }
        ->
        proto = Transfer.proto
      | _ -> false)
    ()

let check_transfer_mss xfer_capture ~check =
  List.iter
    (fun { Capture.frame; _ } ->
      match frame.Eth_frame.payload with
      | Eth_frame.Ip
          { Ipv4_packet.payload = Ipv4_packet.Raw { data; _ }; _ } ->
        check
          (String.length data <= Transfer.max_datagram_bytes)
          (Printf.sprintf
             "transfer datagram of %d B exceeds the %d B MSS bound"
             (String.length data) Transfer.max_datagram_bytes)
      | _ -> ())
    (Capture.records xfer_capture);
  Capture.stop xfer_capture

(* ------------------------------------------------------------------ *)
(* Replicated-pair / pool worlds: the server app and the §7.2 backend
   app share everything but the application plumbing. *)

let run_replicated ?on_world scenario =
  let sc = scenario in
  let world = World.create ~seed:sc.seed () in
  (match on_world with Some f -> f world | None -> ());
  let timing_rng = Rng.create ~seed:((sc.seed * 1_000_003) lxor 0x50AC) in
  let pool3 = sc.pool <> Pair in
  (* the scenario's world as data; declaration order matches the old
     hand-wired construction exactly, so pre-pool seeds replay
     byte-identically *)
  (* pool hosts run under the tight retention budget when the
     checkpointed-connection axis is on; [?tcp_config:None] is identical
     to omitting the argument, so older seeds' worlds are untouched *)
  let pool_cfg = if sc.checkpointed then Some ck_tcp_config else None in
  let spec =
    Topo.segment "lan"
    :: Topo.host ~addr:"10.0.0.10" ~seg:"lan" "client"
    :: Topo.host ?tcp_config:pool_cfg ~addr:"10.0.0.1" ~seg:"lan" "primary"
    :: Topo.host ?tcp_config:pool_cfg ~addr:"10.0.0.2" ~seg:"lan" "secondary"
    :: ((if sc.chaos = Cross_traffic then
           [ Topo.host ~addr:"10.0.0.11" ~seg:"lan" "cross" ]
         else [])
       @ (if pool3 then
            [ Topo.host ?tcp_config:pool_cfg ~addr:"10.0.0.4" ~seg:"lan"
                "standby" ]
          else [])
       @ [
           Topo.group "pool"
             ~members:
               ([ "primary"; "secondary" ]
               @ if pool3 then [ "standby" ] else []);
         ])
  in
  let topo = Topo.build world spec in
  let lan = Topo.segment_of topo "lan" in
  let client = Topo.host_of topo "client" in
  let primary = Topo.host_of topo "primary" in
  let secondary = Topo.host_of topo "secondary" in
  let cross_client =
    if sc.chaos = Cross_traffic then Some (Topo.host_of topo "cross")
    else None
  in
  let config =
    Failover_config.make
      ~service_ports:
        ([ service_port; cross_port ]
        @ if sc.checkpointed then [ ckpt_port ] else [])
      ()
  in
  let repl =
    Replicated.create_pool ~replicas:(Topo.group_of topo "pool") ~config ()
  in
  let svc = Replicated.service_addr repl in
  let reply = pattern ~tag:sc.seed sc.size in
  if sc.role = Server then install_service repl ~port:service_port ~reply;
  let cross_reply = pattern ~tag:(sc.seed + 1) cross_size in
  if cross_client <> None then
    install_service repl ~port:cross_port ~reply:cross_reply;
  (* checkpointed-connection service: answers each fixed-size request
     with "done" and checkpoints at the request boundary — the
     application's safe point, where a restored replica's fresh request
     counter is consistent with replay starting at the checkpoint *)
  if sc.checkpointed then
    Replicated.listen repl ~port:ckpt_port ~on_accept:(fun ~role:_ tcb ->
        let got = ref 0 in
        Tcb.set_on_data tcb (fun d ->
            got := !got + String.length d;
            while !got >= ck_req_bytes do
              got := !got - ck_req_bytes;
              ignore (Tcb.send tcb "done")
            done;
            if !got = 0 then Tcb.checkpoint tcb));
  let violations = ref [] in
  (* what the unreplicated peer must see from the service address: the
     reply stream (server role) or the request the replicated client
     sends its backend (§7.2 role) *)
  let expected_wire = match sc.role with Server -> reply | _ -> "get\n" in
  let seg_match =
    match sc.role with
    | Server | Chain3 ->
      fun (seg : Tcp_segment.t) -> seg.Tcp_segment.src_port = service_port
    | Backend_client ->
      fun (seg : Tcp_segment.t) -> seg.Tcp_segment.dst_port = backend_port
  in
  install_wire_check client ~svc ~seg_match ~expected:expected_wire violations;

  (* unreplicated-peer state, filled in by the role-specific plumbing:
     [buf] is the byte stream the peer read from the service, [peer] the
     peer-side TCB once it exists *)
  let buf = Buffer.create sc.size in
  let eof = ref false in
  let resets = ref 0 in
  let peer : Tcb.t option ref = ref None in
  let armed = ref false in
  let kill () =
    match sc.victim with
    | Primary -> Replicated.kill_primary repl
    | Secondary -> Replicated.kill_secondary repl
    | Nobody -> ()
  in
  (* §7.2 replica-side assembly buffers, one per setup invocation
     (including re-invocations on a repaired host) *)
  let app_bufs : (Tcb.t * Buffer.t) list ref = ref [] in
  (match sc.role with
  | Chain3 -> assert false
  | Server ->
    let c = Stack.connect (Host.tcp client) ~remote:(svc, service_port) () in
    peer := Some c;
    Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get\n"));
    Tcb.set_on_eof c (fun () ->
        eof := true;
        Tcb.close c);
    Tcb.set_on_reset c (fun () -> incr resets)
  | Backend_client ->
    (* the "client" host plays the unreplicated backend server: it
       receives the pool's request and streams the reply back *)
    Stack.listen (Host.tcp client) ~port:backend_port ~on_accept:(fun tcb ->
        peer := Some tcb;
        Tcb.set_on_data tcb (fun d ->
            Buffer.add_string buf d;
            if Buffer.length buf >= 4 then stream_and_close tcb reply);
        Tcb.set_on_eof tcb (fun () -> eof := true);
        Tcb.set_on_reset tcb (fun () -> incr resets));
    Replicated.connect_backend repl ~remote:(Host.addr client, backend_port)
      ~setup:(fun ~role:_ tcb ->
        let b = Buffer.create sc.size in
        app_bufs := (tcb, b) :: !app_bufs;
        Tcb.set_on_established tcb (fun () -> ignore (Tcb.send tcb "get\n"));
        Tcb.set_on_data tcb (fun d ->
            Buffer.add_string b d;
            if
              sc.victim <> Nobody && sc.phase = Fin && (not !armed)
              && Buffer.length b >= sc.size
            then begin
              armed := true;
              ignore
                (Engine.schedule (World.engine world)
                   ~delay:(Rng.int timing_rng (Time.us 200))
                   kill)
            end);
        Tcb.set_on_eof tcb (fun () -> Tcb.close tcb))
      ());

  (* optional cross traffic, started shortly after the main connection *)
  let cross_buf = Buffer.create cross_size in
  (match cross_client with
  | None -> ()
  | Some h ->
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.us 500) (fun () ->
           let cc = Stack.connect (Host.tcp h) ~remote:(svc, cross_port) () in
           Tcb.set_on_established cc (fun () -> ignore (Tcb.send cc "get\n"));
           Tcb.set_on_data cc (fun d -> Buffer.add_string cross_buf d);
           Tcb.set_on_eof cc (fun () -> Tcb.close cc))));

  (* the checkpointed long-lived connection: a reply-driven request
     stream that stays open for the whole run.  Each request is answered
     with "done"; progress after the hot state transfers settle proves
     the delta-restored connection still serves *)
  let ck_buf = Buffer.create 64 in
  let ck_resets = ref 0 in
  let ck_sent = ref 0 in
  let ck_replies = ref 0 in
  let ck_reply_floor = ref None in
  let ck_isolated = ref 0 in
  let ck_established = ref false in
  if sc.checkpointed then begin
    Replicated.add_on_event repl (function
      | Replicated.Transfers_complete _ when !ck_reply_floor = None ->
        ck_reply_floor := Some !ck_replies
      | Replicated.Isolated { local_port; _ }
        when local_port = ckpt_port && !ck_established ->
        (* a SYN_RCVD embryo caught by the reintegration scan is pinned
           solo by design — the client's SYN retry then opens a fresh,
           replicated connection with no client-visible state lost.
           Only an ESTABLISHED connection stranding solo is a failure. *)
        incr ck_isolated
      | _ -> ());
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.us 700) (fun () ->
           let ck =
             Stack.connect (Host.tcp client) ~remote:(svc, ckpt_port) ()
           in
           let send_req () =
             incr ck_sent;
             (* one request in flight at a time, far under the send
                buffer, so the whole request is always accepted *)
             ignore
               (Tcb.send ck (pattern ~tag:(9_000 + !ck_sent) ck_req_bytes))
           in
           Tcb.set_on_established ck (fun () ->
               ck_established := true;
               send_req ());
           Tcb.set_on_data ck (fun d ->
               Buffer.add_string ck_buf d;
               ck_replies := Buffer.length ck_buf / 4;
               if !ck_replies = !ck_sent then
                 ignore
                   (Engine.schedule (World.engine world) ~delay:(Time.ms 2)
                      send_req));
           Tcb.set_on_reset ck (fun () -> incr ck_resets)))
  end;

  (* the scripted chaos *)
  let env =
    {
      Injector.engine = World.engine world;
      rng = World.fresh_rng world;
      hosts =
        [ ("client", client); ("primary", primary); ("secondary", secondary) ];
      nets = [ ("lan", Injector.Medium_net lan) ];
    }
  in
  let inj = Injector.install env (chaos_plan sc.chaos) in
  let xfer_capture = capture_transfers world lan in

  (* repair: once the failure is detected (and, for a primary kill, the
     §5 takeover finished), bring up a fresh host and reintegrate it —
     hot state transfer re-replicates the live connections.  For
     [Repair_then_rekill], the instant the transfers settle the CURRENT
     primary (the original survivor) is killed too: a connection opened
     before failure #1 must survive failure #2 byte-exactly on the
     repaired host. *)
  let repaired = ref false in
  let rekilled = ref false in
  if sc.repair <> No_repair then
    Replicated.set_on_event repl (fun e ->
        let ready =
          match (sc.victim, e) with
          | Secondary, Replicated.Secondary_failure_detected -> true
          | Primary, Replicated.Takeover_complete -> true
          | _ -> false
        in
        if ready && not !repaired then begin
          repaired := true;
          ignore
            (Engine.schedule (World.engine world)
               ~delay:(Time.ms 1 + Rng.int timing_rng (Time.ms 4))
               (fun () ->
                 let h =
                   World.add_host world lan ?tcp_config:pool_cfg
                     ~name:"repaired" ~addr:"10.0.0.3" ()
                 in
                 (* warm_arp skips dead hosts itself, so the killed
                    host's stale (service-address!) binding cannot
                    override the takeover's gratuitous ARP *)
                 World.warm_arp
                   (client :: primary :: secondary :: h
                   :: Option.to_list cross_client);
                 (* the lossy-control-channel axis: a loss burst opening
                    exactly when reintegration (and with it the hot
                    state transfers) begins *)
                 if sc.xfer_loss > 0.0 then
                   Injector.add inj
                     (Fault.parse_exn
                        (Printf.sprintf "after 0us loss lan %.2f for 8ms"
                           sc.xfer_loss));
                 Replicated.reintegrate repl ~secondary:h))
        end;
        match e with
        | Replicated.Transfers_complete _
          when sc.repair = Repair_then_rekill && not !rekilled ->
          rekilled := true;
          ignore
            (Engine.schedule (World.engine world)
               ~delay:(Time.us 200 + Rng.int timing_rng (Time.ms 2))
               (fun () -> Replicated.kill_primary repl))
        | _ -> ());
  (* pool scenarios: the kill cascades on its own — the standby is
     promoted and hot state transfer re-replicates the live
     connections.  The moment those transfers settle, kill the CURRENT
     primary too: the §2 requirements must hold across two cascading
     failovers.  With [rejoin_first], a repaired host rejoins the back
     of the pool just before the second kill, so the second failover
     also cascades and the pool ends fully recovered. *)
  let promoted = ref false in
  (match sc.pool with
  | Pair -> ()
  | Pool3 { rejoin_first } ->
    Replicated.set_on_event repl (fun e ->
        match e with
        | Replicated.Promoted _ when not !promoted ->
          promoted := true;
          (* the lossy-control-channel axis covers the promotion's
             transfers, which start right after this event *)
          if sc.xfer_loss > 0.0 then
            Injector.add inj
              (Fault.parse_exn
                 (Printf.sprintf "after 0us loss lan %.2f for 8ms"
                    sc.xfer_loss))
        | Replicated.Transfers_complete _ when !promoted && not !rekilled ->
          rekilled := true;
          ignore
            (Engine.schedule (World.engine world)
               ~delay:(Time.us 200 + Rng.int timing_rng (Time.ms 2))
               (fun () ->
                 if rejoin_first then begin
                   let h =
                     World.add_host world lan ?tcp_config:pool_cfg
                       ~name:"repaired" ~addr:"10.0.0.3" ()
                   in
                   World.warm_arp (h :: Topo.hosts topo);
                   repaired := true;
                   Replicated.rejoin repl h
                 end;
                 Replicated.kill_primary repl))
        | _ -> ()));
  (match (sc.victim, sc.phase) with
  | Nobody, _ -> ()
  | _, Handshake ->
    (* during the three-way handshake (~300 us in) *)
    ignore
      (Engine.schedule (World.engine world)
         ~delay:(Time.us 50 + Rng.int timing_rng (Time.us 350))
         kill)
  | _, Transfer ->
    let est = transfer_estimate sc.size in
    let frac = 10 + Rng.int timing_rng 80 in
    ignore
      (Engine.schedule (World.engine world) ~delay:(est * frac / 100) kill)
  | _, Fin ->
    (* dynamically: the instant the peer has the whole stream, the FIN
       is in flight / acked but the connection has not fully closed —
       the paper's narrowest takeover window.  For the server role the
       arm lives here on the client TCB; the backend role arms inside
       its setup callback instead (the big stream flows to the pool). *)
    (match !peer with
    | Some c when sc.role = Server ->
      let armed_c = ref false in
      Tcb.set_on_data c (fun d ->
          Buffer.add_string buf d;
          if (not !armed_c) && Buffer.length buf >= sc.size then begin
            armed_c := true;
            ignore
              (Engine.schedule (World.engine world)
                 ~delay:(Rng.int timing_rng (Time.us 200))
                 kill)
          end)
    | _ -> ())
  | _, Idle ->
    (* well after the connection is over *)
    ignore
      (Engine.schedule (World.engine world)
         ~delay:(transfer_estimate sc.size + Time.sec 2.0)
         kill));
  (* default data sink unless the Fin arm installed its own *)
  (match !peer with
  | Some c when sc.role = Server && not (sc.victim <> Nobody && sc.phase = Fin)
    ->
    Tcb.set_on_data c (fun d -> Buffer.add_string buf d)
  | _ -> ());

  (* run in slices; stop early once everything observable has settled *)
  let deadline = Time.sec 60.0 in
  let peer_closed () =
    match !peer with
    | Some p -> (
      match Tcb.state p with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)
    | None -> false
  in
  let done_ () =
    let client_done = !eof && peer_closed () in
    let cross_done =
      cross_client = None || Buffer.length cross_buf >= cross_size
    in
    let kill_done =
      match sc.pool with
      | Pool3 { rejoin_first } ->
        !rekilled
        &&
        if rejoin_first then
          Replicated.status repl = `Normal
          && Replicated.pending_transfers repl = 0
        else Replicated.status repl = `Primary_failed
      | Pair -> (
        match (sc.victim, sc.repair) with
        | Nobody, _ -> true
        | Primary, No_repair -> Replicated.status repl = `Primary_failed
        | Secondary, No_repair -> Replicated.status repl = `Secondary_failed
        | _, Repair ->
          !repaired
          && Replicated.status repl = `Normal
          && Replicated.pending_transfers repl = 0
        | _, Repair_then_rekill ->
          !rekilled && Replicated.status repl = `Primary_failed)
    in
    let app_done =
      sc.role = Server
      || List.exists
           (fun (_, b) -> Buffer.contents b = reply)
           !app_bufs
    in
    (* the checkpointed connection must demonstrably serve AFTER the
       hot state transfers settle — two more replies past the floor
       recorded at Transfers_complete *)
    let ck_done =
      (not sc.checkpointed)
      ||
      match !ck_reply_floor with
      | Some floor -> !ck_replies >= floor + 2
      | None -> false
    in
    client_done && cross_done && kill_done && app_done && ck_done
  in
  let rec drive () =
    if (not (done_ ())) && World.now world < deadline then begin
      World.run world ~for_:(Time.sec 1.0);
      drive ()
    end
  in
  drive ();

  (* ---------------- invariants ---------------- *)
  let check cond msg = if not cond then violations := msg :: !violations in
  check
    (Buffer.contents buf = expected_wire)
    (Printf.sprintf "peer stream diverged from the application's (%d/%d B)"
       (Buffer.length buf)
       (String.length expected_wire));
  check !eof "connection never delivered EOF to the peer";
  check
    (peer_closed ())
    (Printf.sprintf "connection never terminated (peer state %s)"
       (match !peer with
       | Some p -> Tcb.state_to_string (Tcb.state p)
       | None -> "absent"));
  check (!resets = 0) "peer saw a connection reset";
  (* §7.2: the surviving replicas' application must hold the backend's
     complete reply — after a repair, on the restored connection too *)
  (if sc.role = Backend_client then begin
     let full =
       List.length
         (List.filter (fun (_, b) -> Buffer.contents b = reply) !app_bufs)
     in
     check (full >= 1) "no replica application assembled the backend reply";
     if sc.repair = Repair then
       check (full >= 2)
         "restored replica never assembled the backend reply"
   end);
  (match sc.pool with
  | Pool3 { rejoin_first } ->
    check !promoted "standby was never promoted after the first kill";
    check !rekilled "cascading second kill never triggered";
    if rejoin_first then begin
      check
        (Replicated.status repl = `Normal)
        "pool never returned to Normal after the second failover";
      check
        (Replicated.pending_transfers repl = 0)
        "hot state transfers never settled";
      check
        (Replicated.standbys repl = [])
        "rejoined host was never promoted by the second failover"
    end
    else
      check
        (Replicated.status repl = `Primary_failed)
        "second kill was never detected by the promoted pair"
  | Pair -> (
    match (sc.victim, sc.repair) with
    | Nobody, _ ->
      check
        (Replicated.status repl = `Normal)
        "spurious failover: no host was killed but status left Normal"
    | Primary, No_repair ->
      check
        (Replicated.status repl = `Primary_failed)
        "primary killed but its failure was never detected"
    | Secondary, No_repair ->
      check
        (Replicated.status repl = `Secondary_failed)
        "secondary killed but its failure was never detected"
    | _, Repair ->
      check !repaired "repair never triggered";
      check
        (Replicated.status repl = `Normal)
        "repaired host joined but the pair never returned to Normal";
      check
        (Replicated.pending_transfers repl = 0)
        "hot state transfers never settled"
    | _, Repair_then_rekill ->
      check !rekilled "re-kill never triggered";
      check
        (Replicated.status repl = `Primary_failed)
        "survivor re-killed but the repaired host never detected it"));
  if cross_client <> None then
    check
      (Buffer.contents cross_buf = cross_reply)
      "cross-traffic stream diverged";
  (* streaming-transfer invariants: even under the lossy-control-channel
     axis every transfer must settle without stranding a connection
     solo, and no control datagram may outgrow the data path's MSS *)
  if sc.repair <> No_repair || sc.pool <> Pair then
    check
      (Replicated.transfer_failures repl = 0)
      (Printf.sprintf
         "%d hot state transfer(s) failed under a lossy control channel"
         (Replicated.transfer_failures repl));
  (* checkpointed-connection invariants: the long-lived connection's
     per-request checkpoints kept it under the tight retention budget
     (no overflow, so nothing was isolated as non-transferable), its
     reply stream stayed intact through the transfers, and it kept
     serving afterwards *)
  if sc.checkpointed then begin
    let counter = Registry.counter_value (World.metrics world) in
    check (!ck_resets = 0) "checkpointing connection saw a reset";
    let s = Buffer.contents ck_buf in
    check
      (String.length s = 4 * !ck_replies
      &&
      let ok = ref true in
      String.iteri (fun i c -> if c <> "done".[i mod 4] then ok := false) s;
      !ok)
      (Printf.sprintf
         "checkpointing connection's reply stream diverged (%d B)"
         (String.length s));
    check
      (match !ck_reply_floor with
      | Some floor -> !ck_replies >= floor + 2
      | None -> false)
      "checkpointing connection made no progress after reintegration";
    check
      (counter "statex.checkpoints" > 0)
      "no application checkpoint was ever taken";
    check
      (counter "statex.retention_overflows" = 0)
      "checkpointing connection overflowed its retention budget";
    (* the global isolation counter can be bumped by OTHER connections
       caught in a closing state at reintegration (pinned solo by
       design), so the check is pinned to the checkpoint port *)
    check (!ck_isolated = 0)
      "checkpointing connection was stranded solo at reintegration"
  end;
  check_transfer_mss xfer_capture ~check;
  {
    scenario = sc;
    violations = List.rev !violations;
    metrics = Registry.to_json (World.metrics world);
  }

(* ------------------------------------------------------------------ *)
(* Three-tier chain worlds: head / middle / tail serve the client; the
   kill hits the head or the tail, and repair re-enters the chain
   through {!Chain.rejoin} (hot state transfer onto the new tail). *)

let run_chain ?on_world scenario =
  let sc = scenario in
  let world = World.create ~seed:sc.seed () in
  (match on_world with Some f -> f world | None -> ());
  let timing_rng = Rng.create ~seed:((sc.seed * 1_000_003) lxor 0x50AC) in
  let spec =
    [
      Topo.segment "lan";
      Topo.host ~addr:"10.0.0.10" ~seg:"lan" "client";
      Topo.host ~addr:"10.0.0.1" ~seg:"lan" "head";
      Topo.host ~addr:"10.0.0.2" ~seg:"lan" "middle";
      Topo.host ~addr:"10.0.0.5" ~seg:"lan" "tail";
    ]
  in
  let topo = Topo.build world spec in
  let lan = Topo.segment_of topo "lan" in
  let client = Topo.host_of topo "client" in
  let head_h = Topo.host_of topo "head" in
  let middle_h = Topo.host_of topo "middle" in
  let tail_h = Topo.host_of topo "tail" in
  let config = Failover_config.make ~service_ports:[ service_port ] () in
  let chain =
    Chain.create ~replicas:[ head_h; middle_h; tail_h ] ~config ()
  in
  let svc = Chain.service_addr chain in
  let reply = pattern ~tag:sc.seed sc.size in
  Chain.listen chain ~port:service_port ~on_accept:(fun ~replica:_ tcb ->
      service_app ~reply tcb);
  let violations = ref [] in
  install_wire_check client ~svc
    ~seg_match:(fun seg -> seg.Tcp_segment.src_port = service_port)
    ~expected:reply violations;

  (* client application *)
  let buf = Buffer.create sc.size in
  let eof = ref false in
  let resets = ref 0 in
  let c = Stack.connect (Host.tcp client) ~remote:(svc, service_port) () in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get\n"));
  Tcb.set_on_eof c (fun () ->
      eof := true;
      Tcb.close c);
  Tcb.set_on_reset c (fun () -> incr resets);

  (* the scripted chaos *)
  let env =
    {
      Injector.engine = World.engine world;
      rng = World.fresh_rng world;
      hosts =
        [
          ("client", client); ("head", head_h); ("middle", middle_h);
          ("tail", tail_h);
        ];
      nets = [ ("lan", Injector.Medium_net lan) ];
    }
  in
  let inj = Injector.install env (chaos_plan sc.chaos) in
  let xfer_capture = capture_transfers world lan in

  (* the kill: the head or the tail of the three-tier chain *)
  let victim_idx =
    match sc.victim with Primary -> 0 | Secondary -> 2 | Nobody -> -1
  in
  let kill () = if victim_idx >= 0 then Chain.kill chain victim_idx in
  (* repair: once the victim's loss has been absorbed (takeover for a
     head kill, detection for a tail kill), a fresh host rejoins at the
     tail and hot state transfer re-replicates the live connection onto
     it.  For [Repair_then_rekill] the settled transfers trigger a kill
     of the CURRENT head: the stream must survive the second failover
     byte-exactly through the rejoined tier. *)
  let deaths = ref 0 in
  let repaired = ref false in
  let rekilled = ref false in
  let xfer_done = ref false in
  let isolated = ref 0 in
  let trigger_rejoin () =
    if sc.repair <> No_repair && not !repaired then begin
      repaired := true;
      ignore
        (Engine.schedule (World.engine world)
           ~delay:(Time.ms 1 + Rng.int timing_rng (Time.ms 4))
           (fun () ->
             let h =
               World.add_host world lan ~name:"repaired" ~addr:"10.0.0.3" ()
             in
             World.warm_arp (h :: Topo.hosts topo);
             if sc.xfer_loss > 0.0 then
               Injector.add inj
                 (Fault.parse_exn
                    (Printf.sprintf "after 0us loss lan %.2f for 8ms"
                       sc.xfer_loss));
             ignore (Chain.rejoin chain h)))
    end
  in
  Chain.set_on_event chain (fun e ->
      match e with
      | Chain.Death_detected _ ->
        incr deaths;
        if sc.victim = Secondary then trigger_rejoin ()
      | Chain.Promoted _ ->
        if sc.victim = Primary then trigger_rejoin ()
      | Chain.Isolated _ -> incr isolated
      | Chain.Transfers_complete _ ->
        if !repaired then begin
          xfer_done := true;
          if sc.repair = Repair_then_rekill && not !rekilled then begin
            rekilled := true;
            ignore
              (Engine.schedule (World.engine world)
                 ~delay:(Time.us 200 + Rng.int timing_rng (Time.ms 2))
                 (fun () -> Chain.kill chain (Chain.head chain)))
          end
        end
      | _ -> ());
  (match (sc.victim, sc.phase) with
  | Nobody, _ -> ()
  | _, Handshake ->
    ignore
      (Engine.schedule (World.engine world)
         ~delay:(Time.us 50 + Rng.int timing_rng (Time.us 350))
         kill)
  | _, Transfer ->
    let est = transfer_estimate sc.size in
    let frac = 10 + Rng.int timing_rng 80 in
    ignore
      (Engine.schedule (World.engine world) ~delay:(est * frac / 100) kill)
  | _, Fin ->
    let armed = ref false in
    Tcb.set_on_data c (fun d ->
        Buffer.add_string buf d;
        if (not !armed) && Buffer.length buf >= sc.size then begin
          armed := true;
          ignore
            (Engine.schedule (World.engine world)
               ~delay:(Rng.int timing_rng (Time.us 200))
               kill)
        end)
  | _, Idle ->
    ignore
      (Engine.schedule (World.engine world)
         ~delay:(transfer_estimate sc.size + Time.sec 2.0)
         kill));
  if not (sc.victim <> Nobody && sc.phase = Fin) then
    Tcb.set_on_data c (fun d -> Buffer.add_string buf d);

  (* run in slices; stop early once everything observable has settled *)
  let deadline = Time.sec 60.0 in
  let done_ () =
    let client_done =
      !eof
      && (match Tcb.state c with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)
    in
    let kill_done =
      match (sc.victim, sc.repair) with
      | Nobody, _ -> true
      | _, No_repair -> !deaths >= 1
      | _, Repair ->
        !repaired && !xfer_done && Chain.pending_transfers chain = 0
      | _, Repair_then_rekill -> !rekilled && !deaths >= 2
    in
    client_done && kill_done
  in
  let rec drive () =
    if (not (done_ ())) && World.now world < deadline then begin
      World.run world ~for_:(Time.sec 1.0);
      drive ()
    end
  in
  drive ();

  (* ---------------- invariants ---------------- *)
  let check cond msg = if not cond then violations := msg :: !violations in
  check
    (Buffer.contents buf = reply)
    (Printf.sprintf "client stream diverged from the application's (%d/%d B)"
       (Buffer.length buf) sc.size);
  check !eof "connection never delivered EOF to the client";
  check
    (match Tcb.state c with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)
    (Printf.sprintf "connection never terminated (client state %s)"
       (Tcb.state_to_string (Tcb.state c)));
  check (!resets = 0) "client saw a connection reset";
  (match (sc.victim, sc.repair) with
  | Nobody, _ ->
    check
      (List.length (Chain.alive chain) = 3)
      "spurious death: no replica was killed but one left the chain"
  | _, No_repair ->
    check (!deaths >= 1) "replica killed but its death was never detected";
    check
      (not (List.mem victim_idx (Chain.alive chain)))
      "killed replica is still listed live"
  | _, Repair ->
    check !repaired "rejoin never triggered";
    check !xfer_done "rejoin's hot state transfers never settled";
    check
      (Chain.pending_transfers chain = 0)
      "hot state transfers still pending";
    check
      (List.length (Chain.alive chain) = 3)
      "chain never returned to three live replicas";
    (* a connection still mid-handshake when the rejoin scans candidates
       is pinned solo by design (it cannot snapshot yet) — only an
       established connection stranding solo is a failure *)
    if sc.phase <> Handshake then
      check (!isolated = 0)
        (Printf.sprintf "%d connection(s) stranded solo by the rejoin"
           !isolated)
  | _, Repair_then_rekill ->
    check !rekilled "cascading second kill never triggered";
    check (!deaths >= 2) "second kill was never detected";
    if sc.phase <> Handshake then
      check (!isolated = 0)
        (Printf.sprintf "%d connection(s) stranded solo by the rejoin"
           !isolated));
  (* as for pairs and pools: even under the lossy-control-channel axis
     every rejoin transfer must settle without a reject or timeout *)
  if sc.repair <> No_repair then
    check
      (Chain.transfer_failures chain = 0)
      (Printf.sprintf
         "%d hot state transfer(s) failed under a lossy control channel"
         (Chain.transfer_failures chain));
  check_transfer_mss xfer_capture ~check;
  {
    scenario = sc;
    violations = List.rev !violations;
    metrics = Registry.to_json (World.metrics world);
  }

(* ------------------------------------------------------------------ *)
(* Fleet worlds: two two-replica shard pools on a back segment behind a
   dispatcher whose front interface owns the client-visible service
   address.  The kill hits whichever shard the connection is pinned to;
   a second ("drain") connection opened right after the failure is
   detected must complete through the sibling shards while the victim's
   weight decays, and repair must ramp the weight back to full. *)

let run_fleet ?on_world scenario =
  let sc = scenario in
  let world = World.create ~seed:sc.seed () in
  (match on_world with Some f -> f world | None -> ());
  let timing_rng = Rng.create ~seed:((sc.seed * 1_000_003) lxor 0x50AC) in
  let gw = "10.0.0.254" in
  let spec =
    [
      Topo.segment "front";
      Topo.segment "back";
      Topo.host ~addr:"10.1.0.10" ~seg:"front" "client";
      Topo.host ~gateway:gw ~addr:"10.0.0.1" ~seg:"back" "s0a";
      Topo.host ~gateway:gw ~addr:"10.0.0.2" ~seg:"back" "s0b";
      Topo.host ~gateway:gw ~addr:"10.0.0.11" ~seg:"back" "s1a";
      Topo.host ~gateway:gw ~addr:"10.0.0.12" ~seg:"back" "s1b";
      Topo.group ~members:[ "s0a"; "s0b" ] "shard0";
      Topo.group ~members:[ "s1a"; "s1b" ] "shard1";
      Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
      Topo.dispatch ~service:"fleet" ~back:gw ~shards:[ "shard0"; "shard1" ]
        "disp";
    ]
  in
  let topo = Topo.build world spec in
  let front = Topo.segment_of topo "front" in
  let back = Topo.segment_of topo "back" in
  let client = Topo.host_of topo "client" in
  let config = Failover_config.make ~service_ports:[ service_port ] () in
  let disp, pools = Dispatch.of_topo topo ~name:"disp" ~config () in
  let svc = Dispatch.service disp in
  let max_w = Dispatch.default_config.max_weight in
  let reply = pattern ~tag:sc.seed sc.size in
  List.iter
    (fun (_, pool) -> install_service pool ~port:service_port ~reply)
    pools;
  let violations = ref [] in

  (* the client connection, through the dispatcher's NAT *)
  let buf = Buffer.create sc.size in
  let eof = ref false in
  let resets = ref 0 in
  let c = Stack.connect (Host.tcp client) ~remote:(svc, service_port) () in
  let main_port = snd (Tcb.local_endpoint c) in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get\n"));
  Tcb.set_on_eof c (fun () ->
      eof := true;
      Tcb.close c);
  Tcb.set_on_reset c (fun () -> incr resets);
  (* byte-exactness is checked against the DISPATCHER's address: the
     translated stream must still speak the shard's original numbering.
     The drain connection shares the source port, so pin the match to
     this connection's client port. *)
  install_wire_check client ~svc
    ~seg_match:(fun seg ->
      seg.Tcp_segment.src_port = service_port
      && seg.Tcp_segment.dst_port = main_port)
    ~expected:reply violations;

  (* the scripted chaos plays on the client-facing wire *)
  let env =
    {
      Injector.engine = World.engine world;
      rng = World.fresh_rng world;
      hosts = [ ("client", client) ];
      nets =
        [ ("lan", Injector.Medium_net front); ("back", Injector.Medium_net back) ];
    }
  in
  let inj = Injector.install env (chaos_plan sc.chaos) in
  let xfer_capture = capture_transfers world back in

  (* the kill resolves its target at fire time: whichever shard the
     dispatcher pinned the connection to *)
  let victim_name = ref None in
  let kill () =
    let name =
      match Dispatch.pinned_shard disp ~client:(Host.addr client, main_port) with
      | Some n -> n
      | None -> "shard0"
    in
    victim_name := Some name;
    let pool = List.assoc name pools in
    match sc.victim with
    | Primary -> Replicated.kill_primary pool
    | Secondary -> Replicated.kill_secondary pool
    | Nobody -> ()
  in

  (* drain connection: opened right after the failure is detected, while
     the victim shard's weight is decaying — it must complete through
     the fleet with zero client-visible disruption.  Both shards run the
     same service, so it expects the same reply wherever it pins. *)
  let drain_buf = Buffer.create sc.size in
  let drain_started = ref false in
  let drain_eof = ref false in
  let drain_resets = ref 0 in
  let drain_tcb : Tcb.t option ref = ref None in
  let start_drain () =
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.ms 2) (fun () ->
           let d =
             Stack.connect (Host.tcp client) ~remote:(svc, service_port) ()
           in
           drain_tcb := Some d;
           Tcb.set_on_established d (fun () -> ignore (Tcb.send d "get\n"));
           Tcb.set_on_data d (fun x -> Buffer.add_string drain_buf x);
           Tcb.set_on_eof d (fun () ->
               drain_eof := true;
               Tcb.close d);
           Tcb.set_on_reset d (fun () -> incr drain_resets)))
  in

  (* repair / rekill choreography on whichever pool the kill hit *)
  let repaired = ref false in
  let rekilled = ref false in
  let min_victim_w = ref max_w in
  List.iter
    (fun (name, pool) ->
      Replicated.set_on_event pool (fun e ->
          if !victim_name = Some name then begin
            (match e with
            | Replicated.Primary_failure_detected
            | Replicated.Secondary_failure_detected
              when not !drain_started ->
              drain_started := true;
              start_drain ()
            | _ -> ());
            (if sc.repair <> No_repair then
               let ready =
                 match (sc.victim, e) with
                 | Secondary, Replicated.Secondary_failure_detected -> true
                 | Primary, Replicated.Takeover_complete -> true
                 | _ -> false
               in
               if ready && not !repaired then begin
                 repaired := true;
                 ignore
                   (Engine.schedule (World.engine world)
                      ~delay:(Time.ms 1 + Rng.int timing_rng (Time.ms 4))
                      (fun () ->
                        let h =
                          World.add_host world back ~name:"repaired"
                            ~addr:"10.0.0.100" ()
                        in
                        Host.set_default_via_lan h
                          ~gateway:(Ipaddr.of_string gw);
                        World.warm_arp (h :: Topo.group_of topo name);
                        Topo.warm_dispatch_arp topo "disp" [ h ];
                        Dispatch.arm_probe_responder h;
                        (* the lossy-control-channel axis: the hot state
                           transfers ride the BACK wire here *)
                        if sc.xfer_loss > 0.0 then
                          Injector.add inj
                            (Fault.parse_exn
                               (Printf.sprintf
                                  "after 0us loss back %.2f for 8ms"
                                  sc.xfer_loss));
                        Replicated.reintegrate pool ~secondary:h))
               end);
            match e with
            | Replicated.Transfers_complete _
              when sc.repair = Repair_then_rekill && not !rekilled ->
              rekilled := true;
              ignore
                (Engine.schedule (World.engine world)
                   ~delay:(Time.us 200 + Rng.int timing_rng (Time.ms 2))
                   (fun () -> Replicated.kill_primary pool))
            | _ -> ()
          end))
    pools;

  (match (sc.victim, sc.phase) with
  | Nobody, _ -> ()
  | _, Handshake ->
    ignore
      (Engine.schedule (World.engine world)
         ~delay:(Time.us 50 + Rng.int timing_rng (Time.us 350))
         kill)
  | _, Transfer ->
    let est = transfer_estimate sc.size in
    let frac = 10 + Rng.int timing_rng 80 in
    ignore
      (Engine.schedule (World.engine world) ~delay:(est * frac / 100) kill)
  | _, Fin ->
    let armed = ref false in
    Tcb.set_on_data c (fun d ->
        Buffer.add_string buf d;
        if (not !armed) && Buffer.length buf >= sc.size then begin
          armed := true;
          ignore
            (Engine.schedule (World.engine world)
               ~delay:(Rng.int timing_rng (Time.us 200))
               kill)
        end)
  | _, Idle ->
    ignore
      (Engine.schedule (World.engine world)
         ~delay:(transfer_estimate sc.size + Time.sec 2.0)
         kill));
  if not (sc.victim <> Nobody && sc.phase = Fin) then
    Tcb.set_on_data c (fun d -> Buffer.add_string buf d);

  (* run in short slices — also sampling the victim shard's weight so
     the gradual decay is provable, not just its endpoint *)
  let deadline = Time.sec 60.0 in
  let victim_pool () =
    match !victim_name with Some n -> Some (List.assoc n pools) | None -> None
  in
  let victim_weight () =
    match !victim_name with Some n -> Dispatch.weight disp n | None -> max_w
  in
  (* A drain connection born in the failure→reintegration window can be
     pinned to the victim shard while mid-handshake, in which case the
     hot state transfer pins it solo (untransferable by design).  A
     [Repair_then_rekill] then kills the host carrying that solo state,
     so — for that one combination only — the drain connection is
     exempt from the completion checks; the paper's guarantees never
     covered unreplicated state. *)
  let drain_exempt () =
    sc.repair = Repair_then_rekill
    &&
    match !drain_tcb with
    | Some d ->
      Dispatch.pinned_shard disp
        ~client:(Host.addr client, snd (Tcb.local_endpoint d))
      = !victim_name
    | None -> false
  in
  let drain_done () =
    (not !drain_started)
    || drain_exempt ()
    || !drain_eof
       &&
       match !drain_tcb with
       | Some d -> (
         match Tcb.state d with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)
       | None -> false
  in
  let done_ () =
    let client_done =
      !eof
      && match Tcb.state c with Tcb.Closed | Tcb.Time_wait -> true | _ -> false
    in
    let kill_done =
      match (sc.victim, sc.repair, victim_pool ()) with
      | Nobody, _, _ -> true
      | _, _, None -> false
      | _, No_repair, Some p -> (
        match sc.victim with
        | Primary -> Replicated.status p = `Primary_failed
        | Secondary -> Replicated.status p = `Secondary_failed
        | Nobody -> true)
      | _, Repair, Some p ->
        !repaired
        && Replicated.status p = `Normal
        && Replicated.pending_transfers p = 0
        && victim_weight () = max_w
      | _, Repair_then_rekill, Some p ->
        !rekilled && Replicated.status p = `Primary_failed
    in
    client_done && kill_done && drain_done ()
  in
  let rec drive () =
    min_victim_w := min !min_victim_w (victim_weight ());
    if (not (done_ ())) && World.now world < deadline then begin
      World.run world ~for_:(Time.ms 10);
      drive ()
    end
  in
  drive ();

  (* ---------------- invariants ---------------- *)
  let check cond msg = if not cond then violations := msg :: !violations in
  check
    (Buffer.contents buf = reply)
    (Printf.sprintf "client stream diverged from the application's (%d/%d B)"
       (Buffer.length buf) sc.size);
  check !eof "connection never delivered EOF to the client";
  check
    (match Tcb.state c with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)
    (Printf.sprintf "connection never terminated (client state %s)"
       (Tcb.state_to_string (Tcb.state c)));
  check (!resets = 0) "client saw a connection reset";
  (* the drain connection: zero client-visible disruption while the
     victim shard fails over *)
  if sc.victim <> Nobody then begin
    check !drain_started "failure was never detected (no drain connection)";
    if not (drain_exempt ()) then begin
      check !drain_eof "drain connection never delivered EOF";
      check
        (Buffer.contents drain_buf = reply)
        (Printf.sprintf "drain stream diverged (%d/%d B)"
           (Buffer.length drain_buf) sc.size);
      check (!drain_resets = 0) "drain connection saw a reset"
    end
  end;
  (* pool status on the shard the kill actually hit *)
  (match (sc.victim, victim_pool ()) with
  | Nobody, _ ->
    List.iter
      (fun (name, pool) ->
        check
          (Replicated.status pool = `Normal)
          (Printf.sprintf "spurious failover on %s: status left Normal" name))
      pools
  | _, None -> check false "kill never resolved a victim shard"
  | _, Some p -> (
    match sc.repair with
    | No_repair ->
      check
        (Replicated.status p
        = (match sc.victim with
          | Primary -> `Primary_failed
          | _ -> `Secondary_failed))
        "victim shard's failure was never detected"
    | Repair ->
      check !repaired "repair never triggered";
      check
        (Replicated.status p = `Normal)
        "repaired shard never returned to Normal";
      check
        (Replicated.pending_transfers p = 0)
        "hot state transfers never settled";
      check
        (Replicated.transfer_failures p = 0)
        (Printf.sprintf
           "%d hot state transfer(s) failed under a lossy control channel"
           (Replicated.transfer_failures p))
    | Repair_then_rekill ->
      check !rekilled "re-kill never triggered";
      check
        (Replicated.status p = `Primary_failed)
        "survivor re-killed but the repaired host never detected it"));
  (* weight state machine: the victim shard provably drained and (after
     repair) returned to full weight; the sibling never moved *)
  (match !victim_name with
  | None -> ()
  | Some n ->
    check (!min_victim_w < max_w)
      (Printf.sprintf "victim shard %s never shed weight (min %d)" n
         !min_victim_w);
    if sc.repair = Repair then
      check
        (Dispatch.weight disp n = max_w)
        (Printf.sprintf "victim shard %s never ramped back (weight %d)" n
           (Dispatch.weight disp n))
    else if sc.victim <> Nobody then
      check
        (Dispatch.weight disp n <= max 1 (max_w / 4))
        (Printf.sprintf "unrepaired shard %s above the degraded floor (%d)" n
           (Dispatch.weight disp n));
    List.iter
      (fun (name, _) ->
        if name <> n then
          check
            (Dispatch.weight disp name = max_w)
            (Printf.sprintf "sibling shard %s shed weight (%d)" name
               (Dispatch.weight disp name)))
      pools);
  (* dispatcher counters: nothing refused (a sibling was always live),
     no cross-shard reply ever translated *)
  let ctrs = Dispatch.counters disp in
  check (ctrs.Dispatch.refused = 0)
    (Printf.sprintf "%d connection(s) refused by a drained fleet"
       ctrs.Dispatch.refused);
  check
    (ctrs.Dispatch.isolation_drops = 0)
    (Printf.sprintf "%d cross-shard reply(ies) dropped by isolation"
       ctrs.Dispatch.isolation_drops);
  check_transfer_mss xfer_capture ~check;
  {
    scenario = sc;
    violations = List.rev !violations;
    metrics = Registry.to_json (World.metrics world);
  }

let run ?on_world scenario =
  if scenario.fleet then run_fleet ?on_world scenario
  else
    match scenario.role with
    | Server | Backend_client -> run_replicated ?on_world scenario
    | Chain3 -> run_chain ?on_world scenario
