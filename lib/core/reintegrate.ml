module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Ipaddr = Tcpfo_packet.Ipaddr
module Time = Tcpfo_sim.Time
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry
module Transfer = Tcpfo_statex.Transfer
module Snapshot = Tcpfo_statex.Snapshot

type 'tag t = {
  registry : Failover_config.registry;
  service_addr : Ipaddr.t;
  mutable services : (int * ('tag -> Tcb.t -> unit)) list;
  (* §7.2 client-role connections: the setup registered for each backend
     endpoint, re-invoked when a restored snapshot of that connection
     lands on a fresh replica *)
  mutable backends : ((Ipaddr.t * int) * ('tag -> Tcb.t -> unit)) list;
  (* bookkeeping of the latest [start] *)
  mutable pending : int;
  mutable started : Time.t option;
  mutable transferred : int;
  mutable failures : int;
  latency : Registry.histogram;
  isolated : Registry.counter;
  (* paced offer scheduler *)
  queue_depth : Registry.gauge;
  paced_offers : Registry.counter;
  pace_wait : Registry.counter;
}

let create ~registry ~service_addr ~obs =
  let statex = Obs.scope (Obs.root obs) "statex" in
  {
    registry;
    service_addr;
    services = [];
    backends = [];
    pending = 0;
    started = None;
    transferred = 0;
    failures = 0;
    latency = Obs.histogram statex "reintegration_us";
    isolated = Obs.counter statex "isolated_conns";
    queue_depth = Obs.gauge statex "transfer_queue_depth";
    paced_offers = Obs.counter statex "paced_offers";
    pace_wait = Obs.counter statex "pace_wait_us";
  }

let pending t = t.pending
let failures t = t.failures

(* --- application registry --------------------------------------------- *)

let listen_on host ~port on_accept tag =
  Stack.listen (Host.tcp host) ~port ~on_accept:(fun tcb ->
      Tcb.enable_input_retention tcb;
      on_accept tag tcb)

let listen t ~port ~on_accept hosts =
  Failover_config.register_endpoint t.registry ~local_port:port;
  t.services <- (port, on_accept) :: t.services;
  List.iter (fun (host, tag) -> listen_on host ~port on_accept tag) hosts

let connect_backend t ~remote ?local_port ~setup hosts =
  (match local_port with
  | Some p -> Failover_config.register_endpoint t.registry ~local_port:p
  | None ->
    Failover_config.register_remote t.registry ~remote_port:(snd remote));
  t.backends <- (remote, setup) :: t.backends;
  List.iter
    (fun (host, tag) ->
      let tcb =
        Stack.connect (Host.tcp host) ~local:t.service_addr ?local_port
          ~remote ()
      in
      Tcb.enable_input_retention tcb;
      setup tag tcb)
    hosts

let start_services t host tag =
  List.iter
    (fun (port, on_accept) -> listen_on host ~port on_accept tag)
    t.services

(* Time_wait transfers too: the replica must keep answering retransmitted
   FINs after a second failover, or a late client FIN meets an RST. *)
let transferable_state : Tcb.state -> bool = function
  | Tcb.Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Time_wait ->
    true
  | Syn_sent | Syn_received | Closed -> false

let find_backend t (ra, rp) =
  List.find_map
    (fun ((a, p), setup) ->
      if Ipaddr.equal a ra && p = rp then Some setup else None)
    t.backends

let installer t host tag ~src:_ (sc : Snapshot.conn) =
  let snap = sc.Snapshot.tcb in
  if not (transferable_state snap.Tcb.sn_state) then
    Error "connection state not transferable"
  else if not (Ipaddr.equal (fst snap.Tcb.sn_local) t.service_addr) then
    Error "snapshot is not for the service address"
  else
    let stack = Host.tcp host in
    match
      Stack.adopt stack ~local:snap.Tcb.sn_local ~remote:snap.Tcb.sn_remote
        ~make:(fun actions ->
          Tcb.restore (Host.clock host) ~obs:(Stack.obs stack)
            ~config:(Stack.config stack) actions snap)
    with
    | Error _ as e -> e
    | Ok tcb ->
      (match sc.Snapshot.role with
      | `Server ->
        (match List.assoc_opt (snd snap.Tcb.sn_local) t.services with
        | Some on_accept -> on_accept tag tcb
        | None -> ())
      | `Client ->
        (match find_backend t snap.Tcb.sn_remote with
        | Some setup -> setup tag tcb
        | None -> ()));
      Tcb.resume_restored tcb;
      Ok ()

let attach t host tag =
  let xfer = Transfer.attach host in
  Transfer.set_installer xfer (installer t host tag);
  xfer

(* --- re-replication ---------------------------------------------------- *)

let start t ~src ~bridge:pb ~xfer ~dst ~live ~on_isolated ~on_complete =
  let clock = Host.clock src in
  let t0 = clock.now () in
  t.started <- Some t0;
  let candidates =
    (* both directions qualify: listener-side connections match on the
       local service port, §7.2 client-role connections on the remote
       port *)
    List.filter
      (fun tcb ->
        let la, lp = Tcb.local_endpoint tcb in
        let _, rp = Tcb.remote_endpoint tcb in
        Ipaddr.equal la t.service_addr
        && Failover_config.is_failover_conn t.registry ~local_port:lp
             ~remote_port:rp)
      (Stack.connections (Host.tcp src))
  in
  let to_transfer, to_isolate =
    List.partition
      (fun tcb ->
        transferable_state (Tcb.state tcb)
        && Tcb.input_retention_enabled tcb)
      candidates
  in
  let isolate ~local_port ~remote =
    Registry.Counter.incr t.isolated;
    on_isolated ~local_port ~remote
  in
  let demote_solo tcb =
    let _, lp = Tcb.local_endpoint tcb in
    let remote = Tcb.remote_endpoint tcb in
    Primary_bridge.isolate_conn pb ~remote ~local_port:lp;
    isolate ~local_port:lp ~remote
  in
  List.iter demote_solo to_isolate;
  let finish () =
    (match t.started with
    | Some t0 ->
      t.started <- None;
      Registry.Histogram.observe t.latency (Time.to_us (clock.now () - t0))
    | None -> ());
    on_complete t.transferred
  in
  t.pending <- List.length to_transfer;
  t.transferred <- 0;
  if t.pending = 0 then finish ()
  else begin
    let config = Failover_config.config t.registry in
    let cap = config.Failover_config.transfer_inflight in
    let pace_floor = config.Failover_config.transfer_pace in
    let queue = Queue.create () in
    List.iter (fun tcb -> Queue.add tcb queue) to_transfer;
    Registry.Gauge.set t.queue_depth (Queue.length queue);
    let inflight = ref 0 in
    let pace_armed = ref false in
    let rec offer_one tcb =
      let _, lp = Tcb.local_endpoint tcb in
      let remote = Tcb.remote_endpoint tcb in
      (* Quiesce FIRST: [begin_transfer] holds the connection's merge
         state before Δ and the TCB image are read, so the capture is
         atomic at the offer instant — a client byte landing between
         the Δ read and the snapshot would otherwise be counted in
         both. *)
      Primary_bridge.begin_transfer pb ~remote ~local_port:lp;
      let delta_opt = Primary_bridge.conn_delta pb ~remote ~local_port:lp in
      let delta = Option.value delta_opt ~default:0 in
      let snap = Tcb.snapshot tcb in
      let snap =
        if delta <> 0 then Tcb.shift_snapshot snap (-delta) else snap
      in
      let role =
        if Option.is_some (find_backend t remote) then `Client else `Server
      in
      let sc =
        {
          Snapshot.tcb = snap;
          role;
          delta;
          next_wire_seq = snap.Tcb.sn_snd_max;
          held_segments = 0;
          solo = delta_opt <> None;
        }
      in
      let wait = clock.now () - t0 in
      if wait > 0 then begin
        Registry.Counter.incr t.paced_offers;
        Registry.Counter.add t.pace_wait (wait / 1000)
      end;
      incr inflight;
      Transfer.offer xfer ~dst sc ~on_result:(fun res ->
          decr inflight;
          (match res with
          | Ok () when live () ->
            t.transferred <- t.transferred + 1;
            Primary_bridge.complete_transfer pb ~remote ~local_port:lp
              ~tcb ~delta
          | Ok () | Error _ ->
            if Result.is_error res then t.failures <- t.failures + 1;
            Primary_bridge.abort_transfer pb ~remote ~local_port:lp;
            isolate ~local_port:lp ~remote);
          t.pending <- t.pending - 1;
          if t.pending = 0 then finish ()
          else if not !pace_armed then pump ())
    and pump () =
      if not (live ()) then begin
        (* a new failure arrived mid-pacing: nothing more can ship on
           this run — pin the queued remainder solo *)
        while not (Queue.is_empty queue) do
          demote_solo (Queue.pop queue);
          t.pending <- t.pending - 1
        done;
        Registry.Gauge.set t.queue_depth 0;
        if t.pending = 0 then finish ()
      end
      else begin
        let draining = ref true in
        while !draining && not (Queue.is_empty queue)
              && (cap = 0 || !inflight < cap) do
          offer_one (Queue.pop queue);
          Registry.Gauge.set t.queue_depth (Queue.length queue);
          if pace_floor > 0 && not (Queue.is_empty queue) then begin
            draining := false;
            pace_armed := true;
            let gap = max pace_floor (Transfer.suggested_pace xfer) in
            ignore
              (clock.schedule gap (fun () ->
                   pace_armed := false;
                   pump ()))
          end
        done
      end
    in
    pump ()
  end
