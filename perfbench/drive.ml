(* The slice loop around [World.run].

   Every workload advances its world in fixed simulated slices and runs
   its own control step between slices (the kill/repair state machine,
   the end-of-workload check).  Slicing is identical in traced and
   untraced runs, so it cannot change what the simulation does; only the
   bookkeeping below depends on tracing.  Untraced runs may time the
   host-speed probe between slices instead, outside the timed slices. *)

open Common

type t = {
  mutable events0 : int;  (** [Engine.processed] when the loop started *)
  mutable events : int;  (** events processed by the loop *)
  mutable slices : int;
  mutable slice_events : int;  (** sum of per-slice event counts *)
  mutable pending_peak : int;
  mutable backlog_peak : Time.t;  (** max secondary [busy_until - now] *)
  mutable held_peak : int;  (** max [bridge.secondary.held_bytes] *)
  mutable loop_s : float;  (** wall time of the whole loop *)
  mutable run_s : float;  (** wall time inside [World.run] *)
  mutable run_cb_s : float;  (** benchmark callbacks inside [World.run] *)
  mutable between_s : float;  (** control steps between slices *)
  mutable sim0 : Time.t;
  mutable sim1 : Time.t;
  probing : bool;  (** time the host-speed probe between slices *)
  mutable probe_s : float;  (** time in the probes *)
  mutable probes : int;
  mutable sliced_s : float;  (** time in slices of a probing run *)
  mutable unprobed_s : float;  (** slice time since the last probe *)
  mutable at_ref_s : float;  (** slice time at the probe's reference speed *)
}

let create ~probing =
  {
    events0 = 0; events = 0; slices = 0; slice_events = 0; pending_peak = 0;
    backlog_peak = 0; held_peak = 0; loop_s = 0.0; run_s = 0.0;
    run_cb_s = 0.0; between_s = 0.0; sim0 = 0; sim1 = 0;
    probing; probe_s = 0.0; probes = 0; sliced_s = 0.0;
    unprobed_s = 0.0; at_ref_s = 0.0;
  }

(* Account [dt] seconds of slices; once [Hostspeed.period_s] of them
   have passed since the last probe, or at the end of the loop, time the
   probe and scale the slices since the last one by it. *)
let lap st dt ~last =
  st.sliced_s <- st.sliced_s +. dt;
  st.unprobed_s <- st.unprobed_s +. dt;
  if st.unprobed_s >= Hostspeed.period_s || (last && st.unprobed_s > 0.0)
  then begin
    let p = Hostspeed.probe () in
    st.probe_s <- st.probe_s +. p;
    st.probes <- st.probes + 1;
    st.at_ref_s <-
      st.at_ref_s +. Hostspeed.at_reference ~wall_s:st.unprobed_s ~probe_s:p;
    st.unprobed_s <- 0.0
  end

(* Mean probe time of the run, in seconds (nan if it did not probe). *)
let probe_mean st = st.probe_s /. float_of_int st.probes

(* [wall_s], the run's whole wall time without the probes, at the
   probe's reference speed: the slices as scaled above, the rest (work
   before and after the loop) by the mean probe. *)
let at_reference st ~wall_s =
  st.at_ref_s
  +. Hostspeed.at_reference ~wall_s:(wall_s -. st.sliced_s)
       ~probe_s:(probe_mean st)

(* Run [world] in [slice]-long steps until [finished ()] or the
   simulated clock passes [limit], calling [between] after each slice. *)
let run st world ~slice ~limit ~secondaries ~finished ~between =
  let engine = World.engine world in
  let reg = World.metrics world in
  let traced = !Tracer.on in
  st.events0 <- Engine.processed engine;
  st.sim0 <- World.now world;
  let t_loop = wall () in
  while (not (finished ())) && World.now world < limit do
    if traced then begin
      let ev0 = Engine.processed engine in
      let sim0 = World.now world in
      let cb0 = !Tracer.cb_s in
      let t0 = wall () in
      World.run world ~for_:slice;
      let t1 = wall () in
      let n = Engine.processed engine - ev0 in
      st.slices <- st.slices + 1;
      st.slice_events <- st.slice_events + n;
      st.run_s <- st.run_s +. (t1 -. t0);
      st.run_cb_s <- st.run_cb_s +. (!Tracer.cb_s -. cb0);
      let now = World.now world in
      Tracer.span ~cat:"engine" ~clock:Tracer.Sim
        ~ts_us:(Time.to_us sim0)
        ~dur_us:(Time.to_us (now - sim0))
        ~args:[ ("events", float_of_int n); ("wall_us", (t1 -. t0) *. 1e6) ]
        "engine.slice";
      st.pending_peak <- max st.pending_peak (Engine.pending engine);
      List.iter
        (fun h ->
          if Host.alive h then
            st.backlog_peak <-
              max st.backlog_peak (Cpu.busy_until (Host.cpu h) - now))
        (secondaries ());
      st.held_peak <-
        max st.held_peak
          (Registry.gauge_value reg "bridge.secondary.held_bytes");
      let t2 = wall () in
      between ();
      st.between_s <- st.between_s +. (wall () -. t2)
    end
    else if st.probing then begin
      let t0 = wall () in
      World.run world ~for_:slice;
      between ();
      lap st (wall () -. t0) ~last:false
    end
    else begin
      World.run world ~for_:slice;
      between ()
    end
  done;
  if st.probing then lap st 0.0 ~last:true;
  st.loop_s <- wall () -. t_loop;
  st.events <- Engine.processed engine - st.events0;
  st.sim1 <- World.now world

(* One built world of a workload, ready to run. *)
type instance = {
  world : World.t;
  model : model;
  setup : (string * float) list;  (** setup phases, wall seconds *)
  setup_s : float;  (** whole set-up: world, topology, pools, listeners *)
  roles : (string * Host.t list) list;  (** primary, secondary, client *)
  run : t -> unit;  (** simulate to the workload's end condition *)
  extra : unit -> (string * float) list;  (** workload-specific layer values *)
  modeled : unit -> string;  (** workload-specific modeled outcome *)
}

(* Time the set-up phases of a workload. *)
let phase acc name f =
  let t0 = wall () in
  let r = Tracer.call ~cat:"setup" name f in
  acc := (name, wall () -. t0) :: !acc;
  r
