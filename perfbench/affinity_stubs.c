/* CPU affinity of the calling thread (Linux sched_{get,set}affinity),
   for the workloads that probe how fast each core is at the moment. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* the CPUs the calling thread may run on, in increasing order; empty if
   the mask cannot be read */
CAMLprim value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(caml_alloc(0, 0));
  n = CPU_COUNT(&set);
  cpus = caml_alloc(n, 0);
  for (int c = 0; c < CPU_SETSIZE && k < n; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
  CAMLreturn(cpus);
}

/* restrict the calling thread to the given CPUs; false if one is out of
   range or the kernel refuses.  Threads it creates later inherit the
   mask. */
CAMLprim value perfbench_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c < 0 || c >= CPU_SETSIZE) return Val_false;
    CPU_SET(c, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
