(* E14 — three-tier relay under repeated kill/repair (not in the paper):
   client → replicated mid-tier → unreplicated back end.

   The mid-tier is a three-replica chain running a RELAY application:
   the client-facing connection (server role) accepts request lines and
   forwards them to the back end over a §7.2 client-role connection; the
   back end answers each request with a deterministic record, which the
   relay forwards back to the client.  Both connections are hot-state
   transferable, so the experiment repeatedly kills one chain tier at a
   time — rotating head / tail / middle — and lets a fresh host (new
   address each cycle) {!Chain.rejoin} at the tail, re-replicating BOTH
   connections onto it before the next request is issued.

   The relay is exactly the application shape that makes restore
   subtle: replayed input on one connection must NOT be re-forwarded to
   the other (the original replica already forwarded it, and the
   partner's restored stream position accounts for it) — the app guards
   with {!Tcb.replaying}.

   Per cycle the trial reports the rejoin latency (kill →
   Transfers_complete, sim time).  A trial only counts as ok when the
   client's assembled stream and the back end's received request lines
   are both byte-exact through every cycle, nobody sees an RST, no
   connection is stranded solo, no transfer fails, and the chain ends
   with three live replicas and all transfers settled.

   Everything is seeded and simulated, so the table is byte-identical
   across --jobs 1/2/4. *)

open Harness
module Chain = Tcpfo_core.Chain
module Lineproto = Tcpfo_apps.Lineproto

let front_port = 8080
let backend_port = 5432
let record_size = 900

let record n =
  String.init record_size (fun i -> Char.chr ((i * 13 + n * 31) land 0xFF))

type outcome = {
  cycles : int;
  latencies_us : float list;  (** per cycle: kill -> transfers settled *)
  ok : bool;
}

let one_trial ~cycles ~seed =
  let world = World.create ~seed () in
  note_world world;
  let spec =
    [
      Topo.segment "lan";
      Topo.host ~profile:paper_profile ~addr:"10.0.0.10" ~seg:"lan" "client";
      Topo.host ~profile:paper_profile ~addr:"10.0.0.1" ~seg:"lan" "m0";
      Topo.host ~profile:paper_profile ~addr:"10.0.0.2" ~seg:"lan" "m1";
      Topo.host ~profile:paper_profile ~addr:"10.0.0.3" ~seg:"lan" "m2";
      Topo.host ~profile:paper_profile ~addr:"10.0.0.20" ~seg:"lan" "backend";
    ]
  in
  let topo = Topo.build world spec in
  let lan = Topo.segment_of topo "lan" in
  let client = Topo.host_of topo "client" in
  let backend_h = Topo.host_of topo "backend" in
  let mids = [ Topo.host_of topo "m0"; Topo.host_of topo "m1";
               Topo.host_of topo "m2" ] in
  let hosts = ref (Topo.hosts topo) in
  let config =
    Failover_config.make ~service_ports:[ front_port ] ()
  in
  let chain = Chain.create ~replicas:mids ~config () in
  let svc = Chain.service_addr chain in
  ignore mids;

  (* ---- tier 3: the unreplicated back end ---- *)
  let backend_lines = Buffer.create 64 in
  let backend_resets = ref 0 in
  Stack.listen (Host.tcp backend_h) ~port:backend_port ~on_accept:(fun tcb ->
      let lines =
        Lineproto.create ~on_line:(fun l ->
            Buffer.add_string backend_lines (l ^ "\n");
            match int_of_string_opt
                    (Option.value ~default:""
                       (List.nth_opt (String.split_on_char ' ' l) 1))
            with
            | Some n -> ignore (Tcb.send tcb (record n))
            | None -> ())
      in
      Tcb.set_on_data tcb (fun d -> Lineproto.feed lines d);
      Tcb.set_on_reset tcb (fun () -> incr backend_resets))
  ;

  (* ---- tier 2: the relay on the chain.  front/back TCBs pair up per
     replica index — stable across rejoins because the installer re-runs
     both callbacks with the (fresh) index of the restored replica. *)
  let front : (int, Tcb.t) Hashtbl.t = Hashtbl.create 8 in
  let back : (int, Tcb.t) Hashtbl.t = Hashtbl.create 8 in
  Chain.connect_backend chain ~remote:(Host.addr backend_h, backend_port)
    ~setup:(fun ~replica tcb ->
      Hashtbl.replace back replica tcb;
      Tcb.set_on_data tcb (fun d ->
          (* replayed history was forwarded by the original replica
             before the snapshot — never forward it again *)
          if not (Tcb.replaying tcb) then
            match Hashtbl.find_opt front replica with
            | Some f -> ignore (Tcb.send f d)
            | None -> ()))
    ();
  Chain.listen chain ~port:front_port ~on_accept:(fun ~replica tcb ->
      Hashtbl.replace front replica tcb;
      let lines =
        Lineproto.create ~on_line:(fun l ->
            if not (Tcb.replaying tcb) then
              match Hashtbl.find_opt back replica with
              | Some b -> ignore (Tcb.send b (Lineproto.line l))
              | None -> ())
      in
      Tcb.set_on_data tcb (fun d -> Lineproto.feed lines d));

  (* ---- tier 1: the client ---- *)
  let buf = Buffer.create (record_size * (cycles + 2)) in
  let resets = ref 0 in
  let conn =
    Stack.connect (Host.tcp client) ~remote:(svc, front_port) ()
  in
  Tcb.set_on_data conn (fun d -> Buffer.add_string buf d);
  Tcb.set_on_reset conn (fun () -> incr resets);

  (* ---- kill/repair choreography, driven by chain events ---- *)
  let deaths = ref 0 in
  let rejoins = ref 0 in
  let settled = ref 0 in
  let isolated = ref 0 in
  let t_kill = ref 0 in
  let latencies = ref [] in
  Chain.set_on_event chain (fun e ->
      match e with
      | Chain.Death_detected _ ->
        incr deaths;
        let n = !deaths in
        (* a repaired host — fresh address every cycle — rejoins at the
           tail the instant the loss is detected *)
        ignore
          (Engine.schedule (World.engine world) ~delay:(Time.us 1) (fun () ->
               let h =
                 World.add_host world lan
                   ~name:(Printf.sprintf "repaired%d" n)
                   ~addr:(Printf.sprintf "10.0.0.%d" (30 + n))
                   ()
               in
               hosts := h :: !hosts;
               World.warm_arp !hosts;
               ignore (Chain.rejoin chain h);
               incr rejoins))
      | Chain.Transfers_complete _ ->
        incr settled;
        latencies :=
          (float_of_int (World.now world - !t_kill) /. 1e3) :: !latencies
      | Chain.Isolated _ -> incr isolated
      | _ -> ());

  let run_until cond =
    let budget = ref 100 in
    while (not (cond ())) && !budget > 0 do
      World.run world ~for_:(Time.ms 50);
      decr budget
    done;
    cond ()
  in
  let expected = Buffer.create (record_size * (cycles + 2)) in
  let all_ok = ref true in
  let request k =
    ignore (Tcb.send conn (Lineproto.line (Printf.sprintf "get %d" k)));
    Buffer.add_string expected (record k);
    if not (run_until (fun () -> Buffer.length buf >= Buffer.length expected))
    then all_ok := false
  in
  if not (run_until (fun () -> Tcb.state conn = Tcb.Established)) then
    all_ok := false;
  request 1;
  for cycle = 1 to cycles do
    (* rotate the victim tier: head, tail, middle, head, ... *)
    let order = Chain.alive chain in
    let victim =
      match (cycle - 1) mod 3 with
      | 0 -> List.hd order
      | 1 -> List.nth order (List.length order - 1)
      | _ -> List.nth order 1
    in
    t_kill := World.now world;
    Chain.kill chain victim;
    if
      not
        (run_until (fun () ->
             !settled >= cycle && Chain.pending_transfers chain = 0))
    then all_ok := false;
    (* the SAME two connections keep relaying through the rebuilt chain *)
    request (cycle + 1)
  done;
  Tcb.close conn;
  World.run world ~for_:(Time.sec 1.0);
  let expected_lines =
    String.concat ""
      (List.init (cycles + 1) (fun i -> Printf.sprintf "get %d\n" (i + 1)))
  in
  let ok =
    !all_ok && !resets = 0 && !backend_resets = 0 && !isolated = 0
    && !deaths = cycles && !rejoins = cycles && !settled = cycles
    && Chain.pending_transfers chain = 0
    && Chain.transfer_failures chain = 0
    && List.length (Chain.alive chain) = 3
    && Buffer.contents buf = Buffer.contents expected
    && Buffer.contents backend_lines = expected_lines
  in
  { cycles; latencies_us = List.rev !latencies; ok }

let run_exp ~cycle_counts ~trials =
  print_header
    (Printf.sprintf
       "E14: three-tier relay — client / replicated chain / back end under \
        rotating kill+rejoin cycles (%d trial%s per row, %d job%s)"
       trials
       (if trials = 1 then "" else "s")
       !jobs
       (if !jobs = 1 then "" else "s"));
  Printf.printf "%-7s %18s %18s %6s\n" "cycles" "median rejoin[us]"
    "max rejoin[us]" "ok";
  let all_ok = ref true in
  let rows =
    List.map
      (fun cycles ->
        let outcomes =
          map_trials trials (fun i ->
              one_trial ~cycles ~seed:(14_000 + (100 * cycles) + i))
        in
        let lats = List.concat_map (fun o -> o.latencies_us) outcomes in
        let med = Stats.median lats in
        let mx = List.fold_left max 0.0 lats in
        let ok = List.for_all (fun o -> o.ok) outcomes in
        if not ok then all_ok := false;
        Printf.printf "%-7d %18.1f %18.1f %6s\n" cycles med mx
          (if ok then "yes" else "NO");
        (cycles, med, mx, ok))
      cycle_counts
  in
  Printf.printf "%s\n"
    (if !all_ok then
       "both relay connections survived every kill/rejoin cycle byte-exactly"
     else "WARNING: a three-tier trial failed");
  let row_json =
    String.concat ","
      (List.map
         (fun (c, med, mx, ok) ->
           Printf.sprintf
             "{\"cycles\":%d,\"median_rejoin_us\":%.1f,\
              \"max_rejoin_us\":%.1f,\"ok\":%b}"
             c med mx ok)
         rows)
  in
  Printf.printf
    "[threetier-summary] \
     {\"trials\":%d,\"jobs\":%d,\"all_ok\":%b,\"rows\":[%s]}\n%!"
    trials !jobs !all_ok row_json;
  dump_metrics ~exp:"threetier"
