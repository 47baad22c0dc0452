(* Shared plumbing for the benchmark workloads: the testbed
   calibrations, sample sets, the seeded byte streams every connection
   carries, the request/reply exchange, and per-connection correctness
   bookkeeping.

   Everything here sits on the library's public API.  The workloads set
   only deployment values (service ports) and the testbed calibrations
   the experiments already use; worlds run the default engine backend
   and the default [Failover_config] otherwise. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module Cpu = Tcpfo_sim.Cpu
module Rng = Tcpfo_util.Rng
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Registry = Tcpfo_obs.Registry
module Medium = Tcpfo_net.Medium

let wall () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Testbed calibrations, as used by the experiments                    *)

(* Copied rather than imported from the experiments' harness, so that a
   change to an experiment cannot move the benchmark. *)

(* the paper's testbed host (bench harness [paper_profile]) *)
let paper_profile =
  { Host.tx_cost = Time.us 52; rx_cost = Time.us 72; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

(* the server-class host of the high-connection and fleet experiments *)
let server_profile =
  { Host.tx_cost = Time.us 5; rx_cost = Time.us 7; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

let gigabit_lan = { Medium.default_config with bandwidth_bps = 1_000_000_000 }

(* per-segment bridge cost the paper-testbed experiments calibrate *)
let bench_bridge_cost = Time.us 55

(* ------------------------------------------------------------------ *)
(* Sample sets                                                         *)

(* Percentiles are the library's nearest-rank ones. *)
module Samples = struct
  type t = { mutable xs : float list; mutable n : int }

  let create () = { xs = []; n = 0 }

  let add t x =
    t.xs <- x :: t.xs;
    t.n <- t.n + 1

  let count t = t.n
  let percentile t p = if t.n = 0 then nan else Tcpfo_util.Stats.percentile p t.xs
  let median t = percentile t 50.0
  let max t = percentile t 100.0

  (* A tail percentile is reported only when at least ten samples lie
     beyond it. *)
  let tail_ok t p = float_of_int t.n *. (1.0 -. (p /. 100.0)) >= 10.0
end

(* ------------------------------------------------------------------ *)
(* Seeded byte streams                                                  *)

(* Every payload byte in the benchmark comes from one seeded block: the
   stream with offset [o] reads [block.[(o + pos) mod block_len]].  The
   block is stored twice over so any window of up to [block_len] bytes is
   one contiguous substring, which keeps both sending and checking
   allocation-light.  The receiver checks every byte against the same
   function, so a lost, duplicated or reordered byte is caught. *)
let block_len = 65521

type streams = { block : string }

let make_streams rng =
  let half = Bytes.create block_len in
  for i = 0 to block_len - 1 do
    Bytes.set half i (Char.chr (Rng.int rng 256))
  done;
  let half = Bytes.to_string half in
  { block = half ^ half }

(* [len] bytes of stream [off] from position [pos]; [len <= block_len] *)
let chunk s ~off ~pos ~len = String.sub s.block ((off + pos) mod block_len) len

(* does [d] equal stream [off] from position [pos]? *)
let matches s ~off ~pos d =
  let b = s.block in
  let base = (off + pos) mod block_len in
  let n = String.length d in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let j = (base + !i) mod block_len in
    if String.unsafe_get d !i <> String.unsafe_get b j then ok := false;
    incr i
  done;
  !ok

(* Requests are 16 bytes; a reply is the byte-wise complement of its
   request, so a reply checks the request bytes the server saw too. *)
let request_len = 16

let complement d = String.map (fun c -> Char.chr (255 - Char.code c)) d

(* The stream offset a request names: the server derives the reply
   stream from the request bytes it received. *)
let offset_of_request r =
  let v = ref 0 in
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code r.[i]
  done;
  !v mod block_len

(* ------------------------------------------------------------------ *)
(* Per-connection correctness                                            *)

type conn = {
  id : int;
  mutable established : bool;
  mutable settled : bool;  (** completed or failed *)
  mutable done_ : bool;  (** completed: every exchange checked, EOF seen *)
  mutable bad : string option;  (** first correctness violation *)
  mutable stall_from : Time.t option;  (** kill instant awaiting a byte *)
}

(* ------------------------------------------------------------------ *)
(* The modeled end-to-end measurements a workload fills in               *)

type model = {
  conn_setup_us : Samples.t;  (** Stack.connect to established *)
  req_latency_us : Samples.t;  (** request due time to full reply *)
  stall_ms : Samples.t;  (** kill to the victim connection's next byte *)
  reint_ms : Samples.t;  (** reintegrate call to Transfers_complete *)
  mutable payload : int;  (** client-side payload bytes *)
  mutable first_at : Time.t;  (** first connect *)
  mutable last_at : Time.t;  (** last completion *)
  mutable conns : conn list;
  mutable opened : int;
  mutable unsettled : int;
  mutable violations : string list;  (** failures outside any connection *)
}

let new_model () =
  {
    conn_setup_us = Samples.create ();
    req_latency_us = Samples.create ();
    stall_ms = Samples.create ();
    reint_ms = Samples.create ();
    payload = 0;
    first_at = max_int;
    last_at = 0;
    conns = [];
    opened = 0;
    unsettled = 0;
    violations = [];
  }

let new_conn m id =
  let c =
    { id; established = false; settled = false; done_ = false; bad = None;
      stall_from = None }
  in
  m.conns <- c :: m.conns;
  m.opened <- m.opened + 1;
  m.unsettled <- m.unsettled + 1;
  c

let settle m c =
  if not c.settled then begin
    c.settled <- true;
    m.unsettled <- m.unsettled - 1
  end

let fail m c why =
  if c.bad = None then c.bad <- Some (Printf.sprintf "conn %d: %s" c.id why);
  settle m c

let violation m why = m.violations <- why :: m.violations

let note_start m now = if now < m.first_at then m.first_at <- now

let finish m c now =
  if c.bad = None then begin
    c.done_ <- true;
    if now > m.last_at then m.last_at <- now
  end;
  settle m c

let attempted m = m.opened

let failed m = List.length (List.filter (fun c -> not c.done_) m.conns)

let goodput_mbps m =
  let span = m.last_at - m.first_at in
  if span <= 0 then 0.0
  else float_of_int (8 * m.payload) /. Time.to_sec span /. 1e6

(* The modeled end-to-end metrics: (name, value, unit, samples); a tail
   percentile is nan unless at least ten samples lie beyond it. *)
let modeled (m : model) =
  let tl s p = if Samples.tail_ok s p then Samples.percentile s p else nan in
  let n = Samples.count in
  [
    ("conn_setup_us_p50", Samples.median m.conn_setup_us, "us", n m.conn_setup_us);
    ("conn_setup_us_p99", tl m.conn_setup_us 99.0, "us", n m.conn_setup_us);
    ( "req_latency_us_p50", Samples.median m.req_latency_us, "us",
      n m.req_latency_us );
    ("req_latency_us_p99", tl m.req_latency_us 99.0, "us", n m.req_latency_us);
    ("goodput_mbps", goodput_mbps m, "Mb/s", m.payload);
    ("failover_stall_ms_p50", Samples.median m.stall_ms, "ms", n m.stall_ms);
    ("failover_stall_ms_p99", tl m.stall_ms 99.0, "ms", n m.stall_ms);
    ("reintegration_ms_p50", Samples.median m.reint_ms, "ms", n m.reint_ms);
    ( "failed_ratio",
      (if attempted m = 0 then nan
       else float_of_int (failed m) /. float_of_int (attempted m)),
      "ratio", attempted m );
  ]

(* Sum of a per-host counter ([host.<name>.<suffix>]) over every host. *)
let sum_hosts reg suffix =
  let suffix = "." ^ suffix in
  let ls = String.length suffix in
  List.fold_left
    (fun acc name ->
      let ln = String.length name in
      if
        ln > ls && String.sub name 0 5 = "host."
        && String.sub name (ln - ls) ls = suffix
      then acc + Registry.counter_value reg name
      else acc)
    0 (Registry.names reg)

(* The registry dump minus the backend-structural [engine.*] lines: part
   of the fingerprint, so equal across engine backends and across traced
   and untraced runs. *)
let registry_fingerprint world =
  let dump = Registry.dump (World.metrics world) in
  String.split_on_char '\n' dump
  |> List.filter (fun l ->
         not (String.length l >= 7 && String.sub l 0 7 = "engine."))
  |> String.concat "\n"

(* VmHWM of this process, in kB (0 where /proc is unavailable) *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* An idle watchdog, re-armed on every receipt and almost always
   cancelled before it fires. *)
let rearm engine slot ~delay fire =
  (match !slot with Some id -> Engine.cancel engine id | None -> ());
  slot := Some (Engine.schedule engine ~delay fire)

let disarm engine slot =
  match !slot with
  | Some id ->
    Engine.cancel engine id;
    slot := None
  | None -> ()

(* The pieces of a client connection's request/reply exchange: requests
   [k] are the 16 bytes at [16k] of stream [off]; replies must be their
   complements, in order. *)
type exchange = {
  off : int;
  dues : Time.t Queue.t;  (** due times of requests awaiting replies *)
  mutable sent : int;  (** requests sent *)
  mutable replied : int;  (** replies completed *)
  mutable got : int;  (** reply bytes received *)
}

let new_exchange off =
  { off; dues = Queue.create (); sent = 0; replied = 0; got = 0 }

let send_request streams x tcb ~due =
  let r = chunk streams ~off:x.off ~pos:(x.sent * request_len) ~len:request_len in
  Queue.push due x.dues;
  x.sent <- x.sent + 1;
  Tracer.call "tcp.send" (fun () -> Tcb.send tcb r) = request_len

(* Check reply bytes [d] and time every reply they complete; [false] on
   a byte mismatch or a reply nobody asked for. *)
let receive_replies streams m x d ~now =
  let n = String.length d in
  let ok =
    x.got + n <= x.sent * request_len
    && matches streams ~off:x.off ~pos:x.got (complement d)
  in
  x.got <- x.got + n;
  while ok && x.got >= (x.replied + 1) * request_len do
    let due = Queue.pop x.dues in
    Samples.add m.req_latency_us (Time.to_us (now - due));
    m.payload <- m.payload + (2 * request_len);
    x.replied <- x.replied + 1
  done;
  ok

(* The server side of the exchange: reply to each complete request. *)
let serve_requests tcb pending d ~on_reply =
  Buffer.add_string pending d;
  let len = Buffer.length pending in
  let whole = len / request_len * request_len in
  if whole > 0 then begin
    let s = Buffer.contents pending in
    let k = ref 0 in
    while !k < whole do
      ignore
        (Tracer.call "tcp.send" (fun () ->
             Tcb.send tcb (complement (String.sub s !k request_len))));
      k := !k + request_len
    done;
    Buffer.clear pending;
    Buffer.add_substring pending s whole (len - whole);
    if whole = len then on_reply ()
  end
