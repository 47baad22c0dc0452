(* bulk_stream: four long streams through one replicated pair on the
   paper's testbed profile (100 Mb/s, 72 us per received datagram).

   Two clients each run one download and one upload of [size] bytes at
   once.  A download sends a 16-byte request naming its stream and reads
   the stream to EOF; an upload sends the same kind of header, then the
   stream, and waits for the server's 16-byte verdict.  MSS-sized
   segments and a tiny event queue: the per-byte path (TCB buffers, the
   primary bridge's byte matching, checksums, medium bytes) dominates.
   Downloads exercise the bridge's output matching; uploads its snooping,
   diverting and ACK merging with input retention.  No faults. *)

open Common
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config

let size = 20 * 1024 * 1024
let write_chunk = 32768
let upload_port = 5001
let download_port = 5002

(* connection i: client (i mod 2), downloads first *)
let plan = [| `Download; `Download; `Upload; `Upload |]

type inputs = {
  streams : streams;
  offsets : int array;  (** header stream of each connection *)
  starts : Time.t array;
}

let inputs ~seed =
  let rng = Rng.create ~seed:(1_000_003 * seed + 23) in
  let streams = make_streams rng in
  let n = Array.length plan in
  {
    streams;
    offsets = Array.init n (fun _ -> Rng.int rng block_len);
    starts = Array.init n (fun _ -> Rng.int rng (Time.ms 1));
  }

(* Write [len] bytes of stream [off] from [pos], pumped by the send
   buffer's drain callback; [k] runs once everything is buffered. *)
let pump streams tcb ~off ~len k =
  let pos = ref 0 in
  let rec go () =
    let stop = ref false in
    while (not !stop) && !pos < len do
      let want = min write_chunk (len - !pos) in
      let d = chunk streams ~off ~pos:!pos ~len:want in
      let n = Tracer.call "tcp.send" (fun () -> Tcb.send tcb d) in
      pos := !pos + n;
      if n < want then begin
        stop := true;
        Tcb.set_on_drain tcb (Tracer.cb go)
      end
    done;
    if !pos >= len && not !stop then k ()
  in
  go ()

(* Server side.  Download: read the header, stream [size] bytes, close.
   Upload: read the header, check [size] bytes against the stream it
   names, reply with the header's complement (or an all-zero verdict on
   a mismatch), close. *)
let serve streams ~port tcb =
  let header = Buffer.create request_len in
  let got = ref 0 in
  let ok = ref true in
  let off = ref 0 in
  Tcb.set_on_data tcb
    (Tracer.cb (fun d ->
         let d =
           if Buffer.length header >= request_len then d
           else begin
             let need = request_len - Buffer.length header in
             let take = min need (String.length d) in
             Buffer.add_string header (String.sub d 0 take);
             if Buffer.length header = request_len then begin
               off := offset_of_request (Buffer.contents header);
               if port = download_port then
                 pump streams tcb ~off:!off ~len:size (fun () -> Tcb.close tcb)
             end;
             String.sub d take (String.length d - take)
           end
         in
         if port = upload_port && d <> "" then begin
           if not (matches streams ~off:!off ~pos:!got d) then ok := false;
           got := !got + String.length d;
           if !got = size then begin
             let verdict =
               if !ok then complement (Buffer.contents header)
               else String.make request_len '\000'
             in
             ignore (Tracer.call "tcp.send" (fun () -> Tcb.send tcb verdict));
             Tcb.close tcb
           end
         end));
  Tcb.set_on_eof tcb (Tracer.cb (fun () -> Tcb.close tcb))

let setup ~seed inp () =
  let t0 = wall () in
  let phases = ref [] in
  let world, topo =
    Drive.phase phases "setup.topo_build_s" (fun () ->
        let world = World.create ~seed () in
        let spec =
          [
            Topo.segment "lan";
            Topo.host ~profile:paper_profile ~addr:"10.0.0.10" ~seg:"lan"
              "client0";
            Topo.host ~profile:paper_profile ~addr:"10.0.0.11" ~seg:"lan"
              "client1";
            Topo.host ~profile:paper_profile ~addr:"10.0.0.1" ~seg:"lan"
              "primary";
            Topo.host ~profile:paper_profile ~addr:"10.0.0.2" ~seg:"lan"
              "secondary";
            Topo.group ~members:[ "primary"; "secondary" ] "pool";
          ]
        in
        (world, Topo.build world spec))
  in
  let repl =
    Drive.phase phases "setup.pool_create_s" (fun () ->
        let config =
          Failover_config.make
            ~service_ports:[ upload_port; download_port ]
            ~bridge_cost:bench_bridge_cost ()
        in
        Replicated.create_pool ~replicas:(Topo.group_of topo "pool") ~config ())
  in
  List.iter
    (fun port ->
      Replicated.listen repl ~port ~on_accept:(fun ~role:_ ->
          Tracer.cb (serve inp.streams ~port)))
    [ upload_port; download_port ];
  let setup_s = wall () -. t0 in
  let engine = World.engine world in
  let m = new_model () in
  let clients = [| Topo.host_of topo "client0"; Topo.host_of topo "client1" |] in
  let service = Replicated.service_addr repl in
  let open_conn i () =
    let c = new_conn m i in
    let now = World.now world in
    note_start m now;
    let kind = plan.(i) in
    let port = if kind = `Download then download_port else upload_port in
    let tcb =
      Tracer.call "tcp.connect" (fun () ->
          Stack.connect (Host.tcp clients.(i mod 2)) ~remote:(service, port) ())
    in
    let header = chunk inp.streams ~off:inp.offsets.(i) ~pos:0 ~len:request_len in
    let off = offset_of_request header in
    let due = ref now in
    let got = ref 0 in
    let verdict = Buffer.create request_len in
    Tcb.set_on_established tcb
      (Tracer.cb (fun () ->
           let t = World.now world in
           Samples.add m.conn_setup_us (Time.to_us (t - now));
           due := t;
           if Tracer.call "tcp.send" (fun () -> Tcb.send tcb header) <> request_len
           then fail m c "header not accepted"
           else if kind = `Upload then pump inp.streams tcb ~off ~len:size ignore));
    Tcb.set_on_data tcb
      (Tracer.cb (fun d ->
           match kind with
           | `Download ->
             if not (matches inp.streams ~off ~pos:!got d) then
               fail m c "stream bytes differ";
             got := !got + String.length d;
             if !got = size then
               Samples.add m.req_latency_us (Time.to_us (World.now world - !due))
           | `Upload ->
             Buffer.add_string verdict d;
             if Buffer.length verdict = request_len then
               Samples.add m.req_latency_us (Time.to_us (World.now world - !due))));
    Tcb.set_on_eof tcb
      (Tracer.cb (fun () ->
           (match kind with
           | `Download ->
             if !got <> size then fail m c "stream length differs"
             else m.payload <- m.payload + request_len + size
           | `Upload ->
             if Buffer.contents verdict <> complement header then
               fail m c "upload verdict differs"
             else m.payload <- m.payload + (2 * request_len) + size);
           Tcb.close tcb;
           finish m c (World.now world)));
    Tcb.set_on_reset tcb (Tracer.cb (fun () -> fail m c "RST"))
  in
  let run st =
    Array.iteri
      (fun i at ->
        ignore (Engine.schedule engine ~delay:at (Tracer.cb (open_conn i))))
      inp.starts;
    Drive.run st world ~slice:(Time.ms 10) ~limit:(Time.sec 300.0)
      ~secondaries:(fun () -> [ Topo.host_of topo "secondary" ])
      ~finished:(fun () -> m.opened = Array.length plan && m.unsettled = 0)
      ~between:ignore
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
    modeled = (fun () -> "");
  }
