(* Membership and removal are top-level loops rather than local
   closures: they sit on every table lookup and update, which then
   allocate nothing beyond the arrays they return. The [int array]
   annotations make [=] an integer compare and [a.(i)] a plain load,
   not the polymorphic versions. *)
let rec mem_from (a : int array) k i =
  i < Array.length a && (a.(i) = k || mem_from a k (i + 1))

let mem a k = mem_from a k 0

let add a k =
  assert (not (mem a k));
  let n = Array.length a in
  let b = Array.make (n + 1) k in
  Array.blit a 0 b 0 n;
  b

let rec index_from (a : int array) k i =
  if a.(i) = k then i else index_from a k (i + 1)

let remove a k =
  let n = Array.length a in
  let i = index_from a k 0 in
  let b = Array.make (n - 1) 0 in
  Array.blit a 0 b 0 i;
  Array.blit a (i + 1) b i (n - 1 - i);
  b

let filter_mask a ~mask ~target =
  let count = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) land mask = target then incr count
  done;
  let b = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to Array.length a - 1 do
    let k = a.(i) in
    if k land mask = target then begin
      b.(!j) <- k;
      incr j
    end
  done;
  b

let disjoint_union = Array.append

let equal_as_sets a b =
  let sort x =
    let y = Array.copy x in
    Array.sort compare y;
    y
  in
  sort a = sort b

let of_list l = Array.of_list (List.sort_uniq compare l)
