(** Cost model of L4 (L4Ka::Pistachio) synchronous same-core IPC, the
    comparison point of Table 3.

    L4's fast path is a raw kernel IPC: no scheduler activation and no
    user-level dispatch, so it is faster than Barrelfish LRPC in direct
    cost — but it switches address spaces, flushing the TLB and touching
    substantially more instruction- and data-cache lines, which is the
    tradeoff Table 3 quantifies. *)

val latency : Mk_hw.Platform.t -> int
(** One-way IPC latency in cycles (≈424 on the paper's 2×2 AMD). *)

val icache_lines : int
(** 25 on the paper's measurement — the L4 IPC path's code footprint. *)

val dcache_lines : int
(** 13 — TCBs, message registers, space structures. *)
