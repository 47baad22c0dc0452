module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time

let test_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(Time.us 30) (fun () -> log := 30 :: !log));
  ignore (Engine.schedule e ~delay:(Time.us 10) (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~delay:(Time.us 20) (fun () -> log := 20 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(Time.us 7) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule e ~delay:(Time.ms 5) (fun () -> seen := Engine.now e));
  Engine.run e;
  Testutil.check_int "now at fire" (Time.ms 5) !seen

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:(Time.us 1) (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Testutil.check_bool "cancelled" false !fired;
  Testutil.check_int "pending" 0 (Engine.pending e)

let test_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:(Time.us 10) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~delay:(Time.us 5) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Testutil.check_int "time" (Time.us 15) (Engine.now e)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:(Time.us 10) (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:(Time.us 100) (fun () -> incr fired));
  Engine.run e ~until:(Time.us 50);
  Testutil.check_int "only first" 1 !fired;
  Testutil.check_int "one pending" 1 (Engine.pending e);
  Engine.run e;
  Testutil.check_int "both" 2 !fired

let test_run_until_idle_advances_clock () =
  let e = Engine.create () in
  Engine.run e ~until:(Time.ms 3);
  Testutil.check_int "clock at until" (Time.ms 3) (Engine.now e)

let test_guarded_clock () =
  let e = Engine.create () in
  let alive = ref true in
  let clock = Tcpfo_sim.Clock.guarded e ~alive:(fun () -> !alive) in
  let fired = ref [] in
  ignore (clock.schedule (Time.us 1) (fun () -> fired := 1 :: !fired));
  ignore (clock.schedule (Time.us 10) (fun () -> fired := 2 :: !fired));
  ignore (Engine.schedule e ~delay:(Time.us 5) (fun () -> alive := false));
  Engine.run e;
  Alcotest.(check (list int)) "only pre-death" [ 1 ] (List.rev !fired)

(* ------------------ wheel vs a sorted-list model ------------------- *)

(* The reference semantics in a dozen lines: a list kept in firing order
   — by time, then scheduling order — and fired from the front.  It mirrors the engine's contract —
   past times clip to now, cancel-after-fire leaves [pending] alone,
   [run ~until] stops before later events and advances an idle clock. *)
module Model = struct
  type ev = { at : int; fn : unit -> unit; mutable dead : bool;
              mutable fired : bool }

  type t = { mutable clock : int; mutable queue : ev list;
             mutable processed : int; mutable pending : int }

  let create () = { clock = 0; queue = []; processed = 0; pending = 0 }

  let schedule_at m ~at fn =
    let ev = { at = max at m.clock; fn; dead = false; fired = false } in
    (* the newest event goes after every event due at the same time *)
    let rec ins = function
      | x :: rest when x.at <= ev.at -> x :: ins rest
      | l -> ev :: l
    in
    m.queue <- ins m.queue;
    m.pending <- m.pending + 1;
    ev

  let cancel m ev =
    if not ev.dead then begin
      ev.dead <- true;
      if not ev.fired then m.pending <- m.pending - 1
    end

  let rec run ?until m =
    m.queue <- List.filter (fun ev -> not ev.dead) m.queue;
    match m.queue, until with
    | [], Some u -> m.clock <- max m.clock u
    | [], None -> ()
    | ev :: _, Some u when ev.at > u -> m.clock <- max m.clock u
    | ev :: rest, _ ->
      m.queue <- rest;
      m.clock <- ev.at;
      ev.fired <- true;
      m.processed <- m.processed + 1;
      m.pending <- m.pending - 1;
      ev.fn ();
      run ?until m
end

(* The scheduling surface a scenario drives, implemented by the engine
   and by the model; handles are indices in scheduling order. *)
type driver = {
  now : unit -> int;
  at : int -> (unit -> unit) -> int;
  cancel : int -> unit;
  run_for : int -> unit;
  finish : unit -> int * int * int; (* run to empty: clock, processed, pending *)
}

let handles () =
  let ids = Hashtbl.create 16 in
  let add id =
    let h = Hashtbl.length ids in
    Hashtbl.add ids h id;
    h
  in
  (add, Hashtbl.find ids)

let engine_driver () =
  let e = Engine.create () in
  let add, get = handles () in
  { now = (fun () -> Engine.now e);
    at = (fun at fn -> add (Engine.schedule_at e ~at fn));
    cancel = (fun h -> Engine.cancel e (get h));
    run_for = Engine.run_for e;
    finish = (fun () -> Engine.run e;
               (Engine.now e, Engine.processed e, Engine.pending e)) }

let model_driver () =
  let m = Model.create () in
  let add, get = handles () in
  { now = (fun () -> m.Model.clock);
    at = (fun at fn -> add (Model.schedule_at m ~at fn));
    cancel = (fun h -> Model.cancel m (get h));
    run_for = (fun d -> Model.run m ~until:(m.Model.clock + d));
    finish = (fun () -> Model.run m;
               (m.Model.clock, m.Model.processed, m.Model.pending)) }

(* Run [scenario] against the engine and the model and return both
   (firing log, clock, processed, pending). *)
let against_model scenario =
  let run mk =
    let d = mk () in
    let log = ref [] in
    scenario d (fun tag -> log := (d.now (), tag) :: !log);
    let clock, processed, pending = d.finish () in
    (List.rev !log, clock, processed, pending)
  in
  (run engine_driver, run model_driver)

let matches_model name scenario =
  let (le, ce, pe, qe), (lm, cm, pm, qm) = against_model scenario in
  Alcotest.(check (list (pair int int))) (name ^ ": log") lm le;
  Testutil.check_int (name ^ ": clock") cm ce;
  Testutil.check_int (name ^ ": processed") pm pe;
  Testutil.check_int (name ^ ": pending") qm qe

let after d delay fn = d.at (d.now () + delay) fn

(* The classification bug class this guards: an event scheduled while
   far in the future reaches the open slot via cascades, while a second
   event for the same instant is scheduled directly once the wheel is
   close — equal times must still fire in scheduling order. *)
let test_wheel_equal_time_across_paths () =
  matches_model "cross-path tie" (fun d record ->
      let at = Time.ms 5 in
      ignore (d.at at (fun () -> record 1));
      ignore (d.at (Time.ms 4) (fun () -> ignore (d.at at (fun () -> record 2))));
      ignore (d.at (Time.us 1) (fun () -> record 0)))

let test_wheel_spans () =
  matches_model "all levels + overflow" (fun d record ->
      (* one event per wheel level plus one beyond the ~73 min horizon *)
      List.iteri
        (fun i delay -> ignore (after d delay (fun () -> record i)))
        [
          Time.ns 100; (* open slot *)
          Time.us 50; (* level 0 *)
          Time.ms 3; (* level 1 *)
          Time.ms 900; (* level 2 *)
          Time.sec 120.; (* level 3 *)
          Time.sec 7200.; (* overflow heap *)
        ])

let test_wheel_idle_gap () =
  matches_model "idle gap then burst" (fun d record ->
      ignore (after d (Time.us 2) (fun () -> record 0));
      ignore
        (after d (Time.sec 60.) (fun () ->
             record 1;
             for i = 2 to 6 do
               ignore (after d (Time.us i) (fun () -> record i))
             done)))

(* Empty level-0 slots are skipped by scanning to the next occupied one
   or the next level-1 boundary.  Sparse timers sit just before, on and
   just after level-1 (262.144 us) and level-2 (67.108864 ms)
   boundaries; each handler schedules into the slots between itself and
   the next timer — slots the scan passed over as empty — and across
   the coming boundary, where the cascade fills slots nearer than
   entries already on level 0. *)
let test_wheel_slot_skip () =
  let slot = 1024 in
  let l1 = 256 * slot and l2 = 256 * 256 * slot in
  matches_model "slot skip across boundaries" (fun d record ->
      let tag = ref 100 in
      let handler base () =
        record base;
        List.iter
          (fun delay ->
            incr tag;
            let n = !tag in
            ignore (after d delay (fun () -> record n)))
          [ 0; 1; slot - 1; slot; 3 * slot; 200 * slot; 255 * slot;
            l1 - 1; l1 + slot; 2 * l1 ]
      in
      List.iteri
        (fun i at -> ignore (d.at at (handler i)))
        [ l1 - (2 * slot); l1; l1 + 7; (5 * l1) - 1; l2 - (3 * slot);
          l2 - 1; l2; l2 + (250 * slot); (3 * l2) + (255 * slot);
          (3 * l2) + l1 ])

(* Random schedule/cancel/run-until programs interpreted on the engine
   and on the model; handlers re-schedule children and cancel earlier
   ids, so insertions happen at many wheel positions.  Delays mix every
   level of the hierarchy including the overflow horizon. *)
let prop_wheel_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map2
              (fun scale x -> `Schedule (max 1 (x * scale)))
              (oneofl [ 1; 700; 40_000; 9_000_000; 2_000_000_000;
                        300_000_000_000 ])
              (int_range 1 900) );
          (2, map (fun i -> `Cancel i) (int_range 0 200));
          (1, map (fun d -> `Run_for (max 1 d)) (int_range 1 50_000_000));
        ])
  in
  QCheck.Test.make ~name:"wheel matches a sorted-list model" ~count:60
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (int_range 5 60) op_gen))
    (fun ops ->
      let scenario d record =
        let count = ref 0 in
        let tag = ref 0 in
        let rec handler n () =
          record n;
          (* deterministic in-handler activity driven by the tag *)
          if n mod 3 = 0 then remember (n * 37 mod 2_000_000) (n + 1000);
          if n mod 5 = 0 && !count > 0 then d.cancel (n mod !count)
        and remember delay n =
          ignore (after d delay (handler n));
          incr count
        in
        List.iter
          (fun op ->
            incr tag;
            match op with
            | `Schedule delay -> remember delay !tag
            | `Cancel i -> if !count > 0 then d.cancel (i mod !count)
            | `Run_for delay -> d.run_for delay)
          ops
      in
      let engine, model = against_model scenario in
      engine = model)

(* A cancelled event still sits in its wheel bucket until the bucket
   cascades; what its body captured must not stay reachable that long. *)
let test_cancel_releases_closure () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  let[@inline never] arm () =
    let payload = Bytes.make 64 'x' in
    Weak.set w 0 (Some payload);
    Engine.schedule e ~delay:(Time.sec 5.) (fun () ->
        ignore (Sys.opaque_identity payload))
  in
  (* live neighbours keep the cancelled entry queued *)
  for i = 1 to 4 do
    ignore (Engine.schedule e ~delay:(Time.sec (float_of_int i)) ignore)
  done;
  let id = arm () in
  Engine.cancel e id;
  Gc.full_major ();
  Testutil.check_bool "captured value collected" true (Weak.get w 0 = None);
  Testutil.check_bool "still cancelled" true (Engine.is_cancelled id);
  Testutil.check_int "live neighbours" 4 (Engine.pending e)

let test_wheel_counters () =
  let e = Engine.create () in
  let skips = ref 0 and cascades = ref 0 in
  Engine.set_stat_hooks e
    ~cancelled_skip:(fun () -> incr skips)
    ~wheel_cascade:(fun () -> incr cascades);
  let id = Engine.schedule e ~delay:(Time.ms 3) ignore in
  Engine.cancel e id;
  ignore (Engine.schedule e ~delay:(Time.ms 4) ignore);
  Engine.run e;
  Testutil.check_int "skips counted" (Engine.cancelled_skips e) !skips;
  Testutil.check_int "cascades counted" (Engine.wheel_cascades e) !cascades;
  Testutil.check_bool "cascaded at least once" true (!cascades >= 1);
  Testutil.check_bool "skipped the corpse" true (!skips >= 1)

let suite =
  [
    Alcotest.test_case "time ordering" `Quick test_fires_in_time_order;
    Alcotest.test_case "FIFO at equal time" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances to event" `Quick test_clock_advances;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "nested scheduling" `Quick test_nested_schedule;
    Alcotest.test_case "run ~until leaves future events" `Quick
      test_run_until;
    Alcotest.test_case "run ~until advances idle clock" `Quick
      test_run_until_idle_advances_clock;
    Alcotest.test_case "guarded clock dies with host" `Quick
      test_guarded_clock;
    Alcotest.test_case "wheel: equal time across insert paths" `Quick
      test_wheel_equal_time_across_paths;
    Alcotest.test_case "wheel: all levels + overflow" `Quick test_wheel_spans;
    Alcotest.test_case "wheel: idle gap then burst" `Quick
      test_wheel_idle_gap;
    Alcotest.test_case "wheel: slot skip across boundaries" `Quick
      test_wheel_slot_skip;
    Alcotest.test_case "cancel releases the closure" `Quick
      test_cancel_releases_closure;
    Alcotest.test_case "wheel: counters and stat hooks" `Quick
      test_wheel_counters;
    QCheck_alcotest.to_alcotest prop_wheel_matches_model;
  ]
