(** Hot state transfer onto a fresh replica — the one re-replication
    engine behind {!Replicated} (pairs and pools) and {!Chain}.

    Reintegrating a repaired host means giving it every live connection
    the survivors kept alive through the §5/§6 failover.  An engine owns
    the two things every topology needs for that:

    - the application registry: the listeners and §7.2 backend setups
      the replicated application registered, so a fresh host can start
      the same services and a restored connection can be handed back to
      the same code;
    - the transfer sequence itself ({!start}): select the service
      connections, pin the untransferable ones solo, offer the rest
      through a paced, windowed queue, and complete or abort each one by
      its verdict.

    The engine is polymorphic in the tag handed to the application with
    every connection — [`Primary|`Secondary] for pools, a replica index
    for chains. *)

type 'tag t

val create :
  registry:Failover_config.registry ->
  service_addr:Tcpfo_packet.Ipaddr.t ->
  obs:Tcpfo_obs.Obs.t ->
  'tag t
(** Metrics go to the [statex] scope under [obs]'s root:
    [isolated_conns], the [reintegration_us] histogram, and the paced
    scheduler's [transfer_queue_depth] / [paced_offers] /
    [pace_wait_us].  Offer window and pacing come from the registry's
    {!Failover_config.t}. *)

(** {1 Application registry} *)

val listen :
  'tag t ->
  port:int ->
  on_accept:('tag -> Tcpfo_tcp.Tcb.t -> unit) ->
  (Tcpfo_host.Host.t * 'tag) list ->
  unit
(** Register [port] as a failover service, remember [on_accept], and
    listen on every given host with input retention enabled — retention
    is what makes an accepted connection transferable later. *)

val connect_backend :
  'tag t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  ?local_port:int ->
  setup:('tag -> Tcpfo_tcp.Tcb.t -> unit) ->
  (Tcpfo_host.Host.t * 'tag) list ->
  unit
(** §7.2: register the backend endpoint (by [local_port] if given, else
    by the remote port), remember [setup] against [remote], and open the
    connection from the service address on every given host, in order,
    with input retention enabled. *)

val start_services : 'tag t -> Tcpfo_host.Host.t -> 'tag -> unit
(** Start every registered listener on a fresh host. *)

val attach : 'tag t -> Tcpfo_host.Host.t -> 'tag -> Tcpfo_statex.Transfer.t
(** A transfer endpoint on [host] whose installer adopts each incoming
    snapshot and hands it to the application under [tag]: server-role
    connections through their listener, client-role ones through the
    setup registered for the remote endpoint.  The retained-input replay
    then rebuilds the application state. *)

(** {1 Re-replication} *)

val start :
  'tag t ->
  src:Tcpfo_host.Host.t ->
  bridge:Primary_bridge.t ->
  xfer:Tcpfo_statex.Transfer.t ->
  dst:Tcpfo_packet.Ipaddr.t ->
  live:(unit -> bool) ->
  on_isolated:(local_port:int -> remote:Tcpfo_packet.Ipaddr.t * int -> unit) ->
  on_complete:(int -> unit) ->
  unit
(** Re-replicate [src]'s live service connections onto the replica at
    [dst].  Every candidate — a connection on the service address that
    {!Failover_config.is_failover_conn} accepts — is either shipped or
    pinned solo on [bridge] ([on_isolated]), so nothing is left to
    half-merge with the fresh replica's different sequence numbers.

    Each offer quiesces the connection on [bridge], then reads its Δseq,
    then snapshots the TCB, all in one instant, so a client byte can
    never be counted twice.  {!Failover_config.transfer_inflight} caps
    the offers in flight and {!Failover_config.transfer_pace} spaces
    them, widened to the channel's {!Tcpfo_statex.Transfer.suggested_pace}
    once it has an RTT sample; both 0 issue every offer at once.

    An accepted offer completes the transfer while [live ()] holds;
    otherwise — or on a reject or timeout — it is aborted and the
    connection pinned solo.  If [live ()] turns false while offers are
    still queued, the remainder is pinned solo.  When every verdict is
    in, [statex.reintegration_us] is observed and [on_complete] gets the
    number of connections re-replicated. *)

val pending : 'tag t -> int
(** Offers of the latest {!start} still awaiting a verdict. *)

val failures : 'tag t -> int
(** Offers that ended in a reject or retry-budget exhaustion, over the
    engine's lifetime. *)
