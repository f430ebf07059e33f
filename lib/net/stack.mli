(** Per-application IP stack instances — the lwIP of §4.10/§5.4.

    On Barrelfish the network stack is a library linked into each
    application's domain; stacks on different cores talk over URPC links
    ({!connect_urpc}) or through a NIC driver domain. Packet processing is
    charged to the stack's core and really parses/builds headers in
    simulated memory, so stack instances show up in the cache and
    interconnect counters. *)

type t

val create :
  Mk_hw.Machine.t ->
  core:int ->
  ?ip:int ->
  ?checksum_offload:bool ->
  ?kernel_overhead:int ->
  ?timer:Mk_hw.Timer.t ->
  Netif.t ->
  t
(** Bind a stack instance to an interface. [ip] defaults to a 10.0.0.x
    address derived from the core. Incoming packets are processed in the
    context of the delivering task and charged to [core].
    [kernel_overhead] adds per-packet cycles on both paths — the
    syscall/softirq/sk-lock tax of modelling an in-kernel stack.
    [timer] enables TCP retransmission (the paper's web server runs a
    separate timer driver for exactly this). Every link is point-to-point,
    so a peer's MAC derives from its address and there is no ARP. *)

val machine : t -> Mk_hw.Machine.t
val core : t -> int
val ip : t -> int
val netif : t -> Netif.t

val connect_urpc :
  Mk_hw.Machine.t -> core_a:int -> core_b:int -> ?slots:int -> unit -> Netif.t * Netif.t
(** A point-to-point link carried over a pair of URPC channels: how two
    user-space stacks are plumbed together for IP loopback on the
    multikernel (Table 4). Frames travel as cache-line messages. *)

(** {1 UDP sockets} *)

type udp_sock

val udp_bind : t -> port:int -> udp_sock
val udp_sendto : udp_sock -> dst_ip:int -> dst_port:int -> Pbuf.t -> unit
val udp_recvfrom : udp_sock -> Pbuf.t * (int * int)
(** Blocking receive: payload pbuf plus (source ip, source port). *)

val udp_pending : udp_sock -> int

(** {1 ICMP} *)

val ping : t -> dst_ip:int -> timeout:int -> int option
(** ICMP echo round-trip time in cycles, or [None] on timeout. Task
    context required. *)

(** {1 TCP} *)

val tcp : t -> Tcp_lite.t
val tcp_listen : t -> port:int -> Tcp_lite.listener
val tcp_connect : t -> dst_ip:int -> dst_port:int -> Tcp_lite.conn

(** {1 Cost knobs} *)

val udp_layer_cost : int
(** Cycles of UDP-layer processing per packet (excl. checksum & copies). *)

val ip_layer_cost : int
