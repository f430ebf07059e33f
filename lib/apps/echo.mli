(** UDP echo over the e1000 model — the network-throughput experiment of
    §5.4 (ipbench-style).

    An external load generator (modelled off-machine: it consumes no
    simulated core cycles) offers UDP traffic at a configurable rate into
    the NIC; the driver domain and the echo application (lwIP-style stack
    linked into its domain) bounce every packet back; achieved throughput
    is measured at the generator. *)

type result = {
  offered_mbps : float;
  achieved_mbps : float;
  rx_packets : int;
  echoed : int;
  dropped : int;
}

val run :
  Mk_hw.Machine.t ->
  nic:Mk_net.Nic.t ->
  app_stack:Mk_net.Stack.t ->
  port:int ->
  payload_bytes:int ->
  offered_mbps:float ->
  duration:int ->
  result
(** Start the echo server on [app_stack], offer load for [duration]
    cycles, and report achieved echo throughput. Task context required. *)
