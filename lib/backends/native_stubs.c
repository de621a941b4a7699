/* Fetch a value a dynamically loaded native module registered with
   caml_register_named_value (Callback.register).  OCaml has no lookup
   of its own for these. */

#include <caml/mlvalues.h>
#include <caml/callback.h>
#include <caml/fail.h>

CAMLprim value sf_native_named_value(value name)
{
  const value *v = caml_named_value(String_val(name));
  if (v == NULL) caml_raise_not_found();
  return *v;
}

/* Monotonic nanoseconds: promotion charges must not go backwards when
   the wall clock is stepped. */
#include <time.h>

CAMLprim intnat sf_native_clock(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

CAMLprim value sf_native_clock_byte(value unit)
{
  return Val_long(sf_native_clock(unit));
}
