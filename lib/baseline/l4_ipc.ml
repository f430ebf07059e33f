let icache_lines = 25
let dcache_lines = 13

(* Raw kernel IPC: syscall entry/exit plus a direct space switch, without
   Barrelfish's activation and user-level dispatch. The 314-cycle switch
   constant calibrates the 2x2 AMD figure to L4's published 424 cycles. *)
let space_switch = 314

let latency (p : Mk_hw.Platform.t) = p.Mk_hw.Platform.syscall + space_switch
