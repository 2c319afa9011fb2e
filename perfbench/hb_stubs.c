/* The monotonic clock the OCaml stdlib does not expose. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

/* Monotonic wall clock in seconds. */
value hb_monotonic_s(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
