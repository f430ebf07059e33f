(* Golden determinism regression: the simulator's *simulated-time* results
   must not drift when the host-side hot paths change. These literals were
   captured from the growth seed; fig6, table2 and the scaling extension
   exercise the heap, the FIFO fast path, the coherence model, URPC and
   the monitor mesh end to end, so any semantic slip in a performance
   change shows up here as a number diff. *)

open Test_util

(* Run a bench with its output redirected into a buffer, and return the
   non-empty lines (leading/trailing blank lines are layout, not data). *)
let capture f =
  let buf = Buffer.create 4096 in
  let () = Mk_benches.Common.redirect_to buf f in
  Buffer.contents buf
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check_golden name expected actual =
  Alcotest.(check (list string)) name expected actual

let fig6_golden =
  [ {|==== Figure 6: TLB shootdown protocols (8x4-core AMD) ====|};
      {|cores    Broadcast      Unicast    Multicast   NUMA-Mcast|};
      {|    2         1102         1122         1122         1122|};
      {|    4         1498         1518         1518         1518|};
      {|    6         1990         1970         2956         2958|};
      {|    8         2520         2432         3352         3354|};
      {|   10         3376         2936         3578         3580|};
      {|   12         4232         3478         3578         3580|};
      {|   14         5114         4110         3808         3676|};
      {|   16         5982         4762         3808         3826|};
      {|   18         6850         5414         4038         4056|};
      {|   20         7718         6066         4038         4056|};
      {|   22         8586         6718         4268         4286|};
      {|   24         9454         7370         4268         4286|};
      {|   26        10348         8032         4503         4382|};
      {|   28        11228         8694         4503         4537|};
      {|   30        12108         9356         4738         4772|};
      {|   32        12988        10018         4738         4772|} ]

let table2_golden =
  [ {|==== Table 2: URPC performance ====|};
      {|System             Cache         Latency   (sd)       ns  msgs/kcycle|};
      {|2x4-core Intel     shared            219     94       82        10.48|};
      {|2x4-core Intel     non-shared        570     23      214         3.56|};
      {|2x2-core AMD       same die          442     16      158         4.57|};
      {|2x2-core AMD       one-hop           517      0      184         3.85|};
      {|4x4-core AMD       shared            433     30      173         4.74|};
      {|4x4-core AMD       one-hop           540      7      216         3.70|};
      {|4x4-core AMD       2-hop             551      5      220         3.62|};
      {|8x4-core AMD       shared            533      5      266         3.75|};
      {|8x4-core AMD       one-hop           606     11      302         3.26|};
      {|8x4-core AMD       2-hop             617     13      308         3.19|};
      {|8x4-core AMD       3-hop             628     16      314         3.13|} ]

let fig3_golden =
  [ {|==== Figure 3: shared memory vs message passing (4x4-core AMD) ====|};
      {|cores       SHM1      SHM2      SHM4      SHM8       MSG1      MSG8    Server|};
      {|    2        142       344       688      1376        856       877       358|};
      {|    4        172       344       688      1376        936       994       347|};
      {|    6        253       520      1030      2023       1666      1771       368|};
      {|    8        241      1438      2879      5759       2406      2553       377|};
      {|   10        899      1799      3599      7199       3144      3333       382|};
      {|   12       1079      2159      4319      8639       3882      4113       386|};
      {|   14       1258      2519      5039     10079       4632      4905       389|};
      {|   16       1438      2878      5758     11518       5382      5697       391|} ]

let polling_golden =
  [ {|==== Section 5.2: the cost of polling (P = C = 6000 cycles) ====|};
      {|   arrival t   model overhead simulated overhead|};
      {|           0                0               1732|};
      {|        1000             1000               1732|};
      {|        3000             3000               1732|};
      {|        5999             5999               7732|};
      {|        6001            12000               7732|};
      {|        9000            12000               7732|};
      {|       20000            12000               7732|};
      {|Model bounds: overhead <= 2C = 12000; latency <= C = 6000|} ]

let scaling_golden =
  [ {|==== Scaling extension: synthetic mesh machines up to 128 cores ====|};
      {| cores       mk unmap         mk 2PC    Linux-IPI unmap|};
      {|    16           9906           8850              18968|};
      {|    32          11408          12794              35783|};
      {|    64          14807          24084              69428|};
      {|    96          18675          31446             103043|};
      {|   128          22797          40166             136628|};
      {|-- PDES sharded multicast unmap (4 shards) --|};
      {| cores   rounds   unmap(cyc)     events     windows  lookahead|};
      {|    64       10        11038      44244         389        265|} ]

(* fig9's Barrelfish column boots a 4-shard amd_4x4: the one golden over a
   sharded OS (split monitor mesh, split message barriers). *)
let fig9_golden =
  [ {|==== Figure 9: compute-bound workloads (4x4-core AMD; cycles x 10^8) ====|};
      {|-- CG (conjugate gradient) --|};
      {|cores     Barrelfish          Linux|};
      {|    2          75.42          75.47|};
      {|    4          40.63          40.68|};
      {|    6          29.03          29.09|};
      {|    8          23.24          23.30|};
      {|   10          19.76          19.83|};
      {|   12          17.45          17.52|};
      {|   14          15.79          15.88|};
      {|   16          14.56          14.65|};
      {|-- FT (3D FFT) --|};
      {|cores     Barrelfish          Linux|};
      {|    2         244.80         244.80|};
      {|    4         127.20         127.20|};
      {|    6          88.00          88.00|};
      {|    8          68.40          68.40|};
      {|   10          56.64          56.64|};
      {|   12          48.80          48.80|};
      {|   14          43.20          43.20|};
      {|   16          39.00          39.00|};
      {|-- IS (integer sort) --|};
      {|cores     Barrelfish          Linux|};
      {|    2          14.03          14.03|};
      {|    4           7.29           7.29|};
      {|    6           5.05           5.05|};
      {|    8           3.92           3.92|};
      {|   10           3.25           3.25|};
      {|   12           2.80           2.81|};
      {|   14           2.48           2.49|};
      {|   16           2.24           2.25|};
      {|-- Barnes-Hut --|};
      {|cores     Barrelfish          Linux|};
      {|    2          24.84          24.84|};
      {|    4          14.26          14.26|};
      {|    6          10.73          10.73|};
      {|    8           8.97           8.97|};
      {|   10           7.91           7.91|};
      {|   12           7.21           7.21|};
      {|   14           6.70           6.70|};
      {|   16           6.33           6.33|};
      {|-- radiosity --|};
      {|cores     Barrelfish          Linux|};
      {|    2          85.00          85.00|};
      {|    4          42.50          42.50|};
      {|    6          28.39          28.39|};
      {|    8          21.25          21.25|};
      {|   10          17.02          17.02|};
      {|   12          14.20          14.19|};
      {|   14          12.20          12.20|};
      {|   16          10.63          10.63|} ]

(* Table 3 and Table 4 over the 2x2-core AMD. Table 4's netlink sends
   frames of up to 24 lines, longer than a channel's buffer block, so this
   golden also guards the coherence path for lines past a block's end. *)
let table3_golden =
  [ {|==== Table 3: messaging costs on 2x2-core AMD ====|};
      {|           Latency  msgs/kcycle   Icache   Dcache|};
      {|URPC           442         4.57        9        7|};
      {|L4 IPC         424         2.36       25       13|} ]

let table4_golden =
  [ {|==== Table 4: IP loopback (2x2-core AMD) ====|};
      {|                                         Barrelfish        Linux|};
      {|Throughput (Mbit/s)                            2853         1695|};
      {|Dcache misses per packet                       20.4         48.0|};
      {|source->sink HT traffic (dwords/pkt)            363          558|};
      {|sink->source HT traffic (dwords/pkt)            101          265|};
      {|source->sink HT link utilization              25.7%        23.4%|};
      {|sink->source HT link utilization               7.1%        11.1%|} ]

let test_fig6 () = check_golden "fig6" fig6_golden (capture Mk_benches.Fig6.run)

let test_table2 () =
  check_golden "table2" table2_golden (capture Mk_benches.Table2.run)

let test_scaling () =
  check_golden "scaling" scaling_golden (capture Mk_benches.Scaling.run)

let test_fig3 () = check_golden "fig3" fig3_golden (capture Mk_benches.Fig3.run)

let test_fig9 () = check_golden "fig9" fig9_golden (capture Mk_benches.Fig9.run)

let test_table3 () =
  check_golden "table3" table3_golden (capture Mk_benches.Table3.run)

let test_table4 () =
  check_golden "table4" table4_golden (capture Mk_benches.Table4.run)

let test_polling () =
  check_golden "polling" polling_golden (capture Mk_benches.Polling.run)

let suite =
  ( "determinism-golden",
    [
      tc "fig6 unchanged" test_fig6;
      tc "table2 unchanged" test_table2;
      tc "scaling unchanged" test_scaling;
      tc "fig3 unchanged" test_fig3;
      tc "polling unchanged" test_polling;
      tc "fig9 unchanged" test_fig9;
      tc "table3 unchanged" test_table3;
      tc "table4 unchanged" test_table4;
    ] )
