(* many_conns: thousands of long-lived, mostly idle connections through
   one replicated pair (the high-connection experiment's shape).

   [conns] connections from 8 client hosts each send a 16-byte request
   on their own seeded ~1 s period, open loop in simulated time, for
   [rounds] rounds, then close.  Latency is timed from each request's due
   time.  Both ends re-arm a 5 s idle watchdog on every receipt, so the
   engine carries tens of thousands of pending, mostly cancelled timers.
   No faults: the engine, TCP demux and timers, the bridges' per-packet
   path and the CPU model do nearly all the work. *)

open Common
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config

let conns = 4000
let rounds = 5
let n_clients = 8
let service_ports = List.init 8 (fun i -> 7000 + i)
let open_gap = Time.us 150
let watchdog = Time.sec 5.0

type inputs = {
  streams : streams;
  offsets : int array;  (** request stream of each connection *)
  starts : Time.t array;  (** connect instant *)
  periods : Time.t array;  (** request period, 0.9-1.1 s *)
}

let inputs ~seed =
  let rng = Rng.create ~seed:(1_000_003 * seed + 11) in
  let streams = make_streams rng in
  {
    streams;
    offsets = Array.init conns (fun _ -> Rng.int rng block_len);
    starts = Array.init conns (fun i -> (i * open_gap) + Rng.int rng open_gap);
    periods = Array.init conns (fun _ -> Time.ms 900 + Rng.int rng (Time.ms 200));
  }

let client_name i = Printf.sprintf "client%d" i

let setup ~seed inp () =
  let t0 = wall () in
  let phases = ref [] in
  let world, topo =
    Drive.phase phases "setup.topo_build_s" (fun () ->
        let world = World.create ~seed () in
        let spec =
          (Topo.segment ~config:gigabit_lan "lan"
          :: List.init n_clients (fun i ->
                 Topo.host ~profile:server_profile
                   ~addr:(Printf.sprintf "10.0.0.%d" (10 + i))
                   ~seg:"lan" (client_name i)))
          @ [
              Topo.host ~profile:server_profile ~addr:"10.0.0.1" ~seg:"lan"
                "primary";
              Topo.host ~profile:server_profile ~addr:"10.0.0.2" ~seg:"lan"
                "secondary";
              Topo.group ~members:[ "primary"; "secondary" ] "pool";
            ]
        in
        (world, Topo.build world spec))
  in
  let repl =
    Drive.phase phases "setup.pool_create_s" (fun () ->
        let config = Failover_config.make ~service_ports () in
        Replicated.create_pool ~replicas:(Topo.group_of topo "pool") ~config ())
  in
  let engine = World.engine world in
  let m = new_model () in
  let server_wdog_fires = ref 0 in
  List.iter
    (fun port ->
      Replicated.listen repl ~port
        ~on_accept:(fun ~role:_ ->
          Tracer.cb (fun tcb ->
               let wdog = ref None in
               let pending = Buffer.create request_len in
               Tcb.set_on_data tcb
                 (Tracer.cb (fun d ->
                      rearm engine wdog ~delay:watchdog
                        (Tracer.cb (fun () -> incr server_wdog_fires));
                      serve_requests tcb pending d ~on_reply:ignore));
               Tcb.set_on_eof tcb
                 (Tracer.cb (fun () ->
                      disarm engine wdog;
                      Tcb.close tcb)))))
    service_ports;
  let setup_s = wall () -. t0 in
  let clients =
    Array.init n_clients (fun i -> Topo.host_of topo (client_name i))
  in
  let service = Replicated.service_addr repl in
  let n_ports = List.length service_ports in
  let open_conn i () =
    let c = new_conn m i in
    let now = World.now world in
    note_start m now;
    let tcb =
      Tracer.call "tcp.connect" (fun () ->
          Stack.connect
            (Host.tcp clients.(i mod n_clients))
            ~remote:(service, List.nth service_ports (i mod n_ports))
            ())
    in
    let x = new_exchange inp.offsets.(i) in
    let wdog = ref None in
    let rec fire () =
      if not c.settled then begin
        if not (send_request inp.streams x tcb ~due:(World.now world)) then
          fail m c "request not accepted";
        if x.sent < rounds then
          ignore
            (Engine.schedule engine ~delay:inp.periods.(i) (Tracer.cb fire))
      end
    in
    Tcb.set_on_established tcb
      (Tracer.cb (fun () ->
           Samples.add m.conn_setup_us (Time.to_us (World.now world - now));
           fire ()));
    Tcb.set_on_data tcb
      (Tracer.cb (fun d ->
           rearm engine wdog ~delay:watchdog
             (Tracer.cb (fun () -> fail m c "idle watchdog fired"));
           if not (receive_replies inp.streams m x d ~now:(World.now world))
           then fail m c "reply bytes differ"
           else if x.replied = rounds then begin
             disarm engine wdog;
             Tcb.close tcb
           end));
    Tcb.set_on_eof tcb
      (Tracer.cb (fun () ->
           if x.replied = rounds then finish m c (World.now world)
           else fail m c "EOF before the last reply"));
    Tcb.set_on_reset tcb (Tracer.cb (fun () -> fail m c "RST"))
  in
  let run st =
    for i = 0 to conns - 1 do
      ignore (Engine.schedule engine ~delay:inp.starts.(i) (Tracer.cb (open_conn i)))
    done;
    Drive.run st world ~slice:(Time.ms 10) ~limit:(Time.sec 120.0)
      ~secondaries:(fun () -> [ Topo.host_of topo "secondary" ])
      ~finished:(fun () -> m.opened = conns && m.unsettled = 0)
      ~between:ignore;
    if !server_wdog_fires > 0 then
      violation m
        (Printf.sprintf "%d server idle watchdogs fired" !server_wdog_fires)
  in
  {
    Drive.world;
    model = m;
    setup = List.rev !phases;
    setup_s;
    roles =
      [
        ("primary", [ Topo.host_of topo "primary" ]);
        ("secondary", [ Topo.host_of topo "secondary" ]);
        ("client", Array.to_list clients);
      ];
    run;
    extra = (fun () -> []);
    modeled = (fun () -> Printf.sprintf "server_wdog_fires=%d" !server_wdog_fires);
  }
