(** The in-kernel shared-memory loopback path (Table 4's Linux side).

    Linux and Windows use in-kernel network stacks with packet queues in
    shared data structures: loopback traffic enters the kernel on the
    sending core (syscall + copy into an skb), is queued on a shared,
    lock-protected queue, and is picked up by kernel code on the receiving
    core (softirq), which reads the skb the other core wrote — pure
    cache-coherence traffic — and copies it out to the user. *)

type t

val create : Mk_hw.Machine.t -> t

val sendto : t -> core:int -> Pbuf.t -> unit
(** UDP sendto over loopback from [core]: syscall, copy_from_user into a
    fresh skb, UDP/IP processing, queue insertion under the queue lock,
    receiver wakeup. Blocks when the queue is full (socket buffer limit). *)

val recvfrom : t -> core:int -> Pbuf.t
(** Blocking recvfrom: syscall, queue removal under the lock, IP/UDP
    processing on the receiving core (reading the remote-written skb), and
    copy_to_user. *)

val packets : t -> int
