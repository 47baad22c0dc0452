(* Tracing for the benchmark's traced run, from the benchmark's own side
   of the library boundary.

   Three kinds of record, all kept in memory and written out once at the
   end of the run as Chrome trace-event JSON:
   - per-call wall-time spans around the public calls the workloads make
     ([Tcb.send], [Stack.connect], [Replicated.reintegrate], setup
     phases, snapshot encoding), plus a count/sum accumulator per name;
   - simulated-time spans for engine slices and failover incidents;
   - callback accounting: wall time spent inside the benchmark's own
     callbacks (outermost only), which the engine's self time excludes.

   When tracing is off every entry point is one branch on [!on]. *)

let on = ref false

type clock = Sim | Wall

type span = {
  name : string;
  cat : string;
  clock : clock;
  ts_us : float;
  dur_us : float;
  args : (string * float) list;
}

let max_spans = 100_000
let spans : span list ref = ref []
let n_spans = ref 0
let dropped = ref 0

let span ?(args = []) ~cat ~clock ~ts_us ~dur_us name =
  if not !on then ()
  else if !n_spans < max_spans then begin
    spans := { name; cat; clock; ts_us; dur_us; args } :: !spans;
    incr n_spans
  end
  else incr dropped

(* wall time is reported relative to the start of the traced run *)
let epoch = ref 0.0

(* ---- per-call accumulators ---------------------------------------- *)

type acc = { mutable calls : int; mutable total_s : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; total_s = 0.0 } in
    Hashtbl.replace accs name a;
    a

let record ~cat name t0 t1 =
  let a = acc name in
  a.calls <- a.calls + 1;
  a.total_s <- a.total_s +. (t1 -. t0);
  span ~cat ~clock:Wall
    ~ts_us:((t0 -. !epoch) *. 1e6)
    ~dur_us:((t1 -. t0) *. 1e6)
    name

(* [call name f] times one public call in wall time. *)
let call ?(cat = "call") name f =
  if not !on then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    record ~cat name t0 (Unix.gettimeofday ());
    r
  end

let mean_us name =
  match Hashtbl.find_opt accs name with
  | Some a when a.calls > 0 -> a.total_s /. float_of_int a.calls *. 1e6
  | _ -> 0.0

(* ---- benchmark callbacks ------------------------------------------ *)

let depth = ref 0
let cb_s = ref 0.0

(* Wrap a callback the benchmark hands to the library.  Only the
   outermost callback is timed, so nesting cannot double-count. *)
let cb f =
  if not !on then f
  else fun x ->
    if !depth > 0 then f x
    else begin
      incr depth;
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          cb_s := !cb_s +. (Unix.gettimeofday () -. t0);
          decr depth)
        (fun () -> f x)
    end

let reset () =
  spans := [];
  n_spans := 0;
  dropped := 0;
  Hashtbl.reset accs;
  depth := 0;
  cb_s := 0.0;
  epoch := Unix.gettimeofday ()

(* ---- output ------------------------------------------------------- *)

let write_json path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"simulated \
     time\"}},\n\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"wall \
     time\"}}";
  List.iter
    (fun s ->
      let args =
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) s.args)
      in
      Printf.fprintf oc
        ",\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        s.name s.cat
        (match s.clock with Sim -> 1 | Wall -> 2)
        s.ts_us s.dur_us args)
    (List.rev !spans);
  Printf.fprintf oc "\n],\"droppedSpans\":%d}\n" !dropped;
  close_out oc
