type t = { mutable data : int array; mutable len : int }

(* Element-wise copy on [int array]s: the compiler knows the elements are
   immediates, so the stores skip the write barrier that the polymorphic
   array blit pays ([caml_modify] per word) once the destination lives in
   the major heap.  Overlapping ranges of one array copy like [memmove]. *)
let blit_ints (src : int array) srcoff (dst : int array) dstoff len =
  if
    len < 0 || srcoff < 0
    || srcoff > Array.length src - len
    || dstoff < 0
    || dstoff > Array.length dst - len
  then invalid_arg "Intvec.blit_ints";
  if src == dst && srcoff < dstoff then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dstoff + i) (Array.unsafe_get src (srcoff + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dstoff + i) (Array.unsafe_get src (srcoff + i))
    done

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length v = v.len

let grow v =
  let data = Array.make (2 * Array.length v.data) 0 in
  blit_ints v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Intvec: index %d out of bounds (len %d)" i v.len)

let get v i = check v i; v.data.(i)

let unsafe_get v i = Array.unsafe_get v.data i

let set v i x = check v i; v.data.(i) <- x

let pop v =
  if v.len = 0 then invalid_arg "Intvec.pop: empty vector";
  v.len <- v.len - 1;
  v.data.(v.len)

let index v x =
  let data = v.data and len = v.len in
  let i = ref 0 in
  while !i < len && Array.unsafe_get data !i <> x do
    incr i
  done;
  if !i < len then !i else -1

let swap_remove_value v x =
  let i = index v x in
  if i < 0 then false
  else begin
    let last = pop v in
    if i < v.len then v.data.(i) <- last;
    true
  end

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }
