/* Limits the process to one glibc malloc arena. */

#include <caml/mlvalues.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

value loclab_exec_share_one_arena(value unit)
{
  (void)unit;
#if defined(__GLIBC__) && defined(M_ARENA_MAX)
  mallopt(M_ARENA_MAX, 1);
#endif
  return Val_unit;
}
