(** e1000-style gigabit NIC device model (§5.4).

    A rate-limited (1 Gb/s) device with DMA receive/transmit rings in
    simulated memory. Received frames are DMA'd into ring buffers (cache
    traffic charged), then handed to the driver task, which runs the
    driver's portion of the stack on its core. Transmit reads the frame
    from memory, occupies the wire for its serialization time, and hands
    the frame to whatever is attached to the wire (the load generator). *)

type t

val create : Mk_hw.Machine.t -> driver_core:int -> ?gbps:float -> unit -> t
(** A NIC driven from [driver_core], its wire at [gbps] (default 1) in each
    direction, with a 256-slot receive ring. *)

val netif : t -> Netif.t
(** The interface a stack binds to; its [send] is the NIC's transmit. *)

val inject : t -> Pbuf.t -> unit
(** A frame arrives from the wire. Drops it if the receive ring is full
    (counted), else DMA + deliver to the driver. Task context required. *)

val attach_wire : t -> (Pbuf.t -> unit) -> unit
(** Where transmitted frames go (the traffic sink / load generator). *)

val wire_cycles : t -> bytes:int -> int
(** Serialization delay of a frame on the wire at the configured rate. *)

val rx_dropped : t -> int
(** Frames dropped because the receive ring was full. *)

val tx_count : t -> int
val rx_count : t -> int
