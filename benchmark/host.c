/* The two things the benchmark needs from the host that OCaml's standard
   library does not give.

   mkbench_cpu_now: CPU time of the calling process, in seconds with
   nanosecond resolution. Unlike wall-clock time it leaves out the time the
   process waits for a CPU: other processes of the same machine and, in a
   virtual machine whose kernel accounts steal time, the vCPU's own wait
   for the host.

   mkbench_pin: binds the calling process, and the children it starts
   afterwards, to the CPU it is running on, and returns that CPU (-1 if it
   cannot). A round and the host-speed reference timed next to it then run
   on the same CPU, whose speed they both feel. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double mkbench_cpu_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value mkbench_cpu_now_byte(value unit)
{
  return caml_copy_double(mkbench_cpu_now(unit));
}

value mkbench_pin(value unit)
{
  cpu_set_t set;
  int cpu = sched_getcpu();
  (void)unit;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
