/* Sequentially consistent access to the slots of an OCaml int array,
   for Nbhash_util.Nb_atomic.Int_array.

   OCaml 5.1 has atomic operations on a whole [Atomic.t] block but no
   primitive for an atomic load or CAS on one field of an array, so an
   array of atomic ints would otherwise cost a boxed [Atomic.t] per
   slot. The slots only ever hold immediates (tagged ints), so a CAS
   never stores a pointer and needs no write barrier, and no stub
   allocates or raises: both are declared [@@noalloc]. Bounds are
   checked by the OCaml caller.

   Loads are seq_cst, not plain: the freeze protocol of Flat_fset
   reasons about the order in which a slot's SEAL bit and the node's
   fate word become visible (invariant 2, "a sealed word implies a
   decided fate"), which holds only if slot loads take part in the
   same single total order as the [Atomic.t] operations. On amd64 a
   seq_cst load is a plain MOV and the CAS is LOCK CMPXCHG, exactly
   what [Atomic.get] and [Atomic.compare_and_set] compile to. */

#include <caml/mlvalues.h>

CAMLprim value nbhash_int_array_get(value arr, value i)
{
  return __atomic_load_n(&Field(arr, Long_val(i)), __ATOMIC_SEQ_CST);
}

CAMLprim value nbhash_int_array_cas(value arr, value i, value old, value nw)
{
  value expected = old;
  return Val_bool(__atomic_compare_exchange_n(
      &Field(arr, Long_val(i)), &expected, nw, 0, __ATOMIC_SEQ_CST,
      __ATOMIC_SEQ_CST));
}
