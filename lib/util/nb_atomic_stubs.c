/* Sequentially consistent access to the slots of a flat OCaml array,
   for Nbhash_util.Nb_atomic.Int_array and Nb_atomic.Array.

   OCaml 5.1 has atomic operations on a whole [Atomic.t] block but no
   primitive for an atomic load or CAS on one field of an array, so an
   array of atomics would otherwise cost a boxed [Atomic.t] per slot.
   Bounds are checked by the OCaml caller.

   Int_array's slots only ever hold immediates (tagged ints), so its
   CAS and fetch-and-add never store a pointer and need no write
   barrier. Array's
   slots hold any value, so its CAS goes through the runtime's
   [caml_atomic_cas_field]: the very call, write barrier included,
   that [Atomic.compare_and_set] makes on field 0 of an [Atomic.t].
   The load is one stub for both (a word is a word). No access stub
   allocates or raises: all are declared [@@noalloc].

   Loads are seq_cst, not plain: the freeze protocol of Flat_fset
   reasons about the order in which a slot's SEAL bit and the node's
   fate word become visible (invariant 2, "a sealed word implies a
   decided fate"), which holds only if slot loads take part in the
   same single total order as the [Atomic.t] operations. On amd64 a
   seq_cst load is a plain MOV and the CAS is LOCK CMPXCHG, exactly
   what [Atomic.get] and [Atomic.compare_and_set] compile to. */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
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

/* Adds [n] to an int slot and returns the slot's previous value. A
   tagged int is 2k+1, so adding the tagged-free 2n keeps the tag. */
CAMLprim value nbhash_int_array_fetch_add(value arr, value i, value n)
{
  return __atomic_fetch_add(&Field(arr, Long_val(i)), 2 * Long_val(n),
                            __ATOMIC_SEQ_CST);
}

CAMLprim value nbhash_value_array_cas(value arr, value i, value old, value nw)
{
  return Val_bool(caml_atomic_cas_field(arr, Long_val(i), old, nw));
}

/* A tag-0 block of [len] slots, all [init]. Unlike [Array.make], never
   a flat float array (Double_array_tag) when [init] is a float: every
   slot must be one word the CAS above can swap. Fields are first set
   to the immediate [Val_unit] by [caml_alloc], so storing [init]
   through [caml_modify] is right for a minor and a major block
   alike. */
CAMLprim value nbhash_value_array_make(value len, value init)
{
  CAMLparam1(init);
  CAMLlocal1(res);
  intnat n = Long_val(len);
  if (n < 0 || (uintnat)n > Max_wosize)
    caml_invalid_argument("Nb_atomic.Array.make");
  if (n == 0) CAMLreturn(Atom(0));
  res = caml_alloc(n, 0);
  for (intnat i = 0; i < n; i++) caml_modify(&Field(res, i), init);
  CAMLreturn(res);
}
