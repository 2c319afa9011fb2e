/* CLOCK_MONOTONIC for Obs span timing: lib/obs stays dependency-free,
   so the binaries supply the clock. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value hth_clock_monotonic_s(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
