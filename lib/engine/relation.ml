type t = { ncols : int; mutable data : int array; mutable nrows : int }

let blit = Store.Intvec.blit_ints

let create ~cols =
  if cols < 0 then invalid_arg "Relation.create: negative arity";
  { ncols = cols; data = Array.make (max 1 (16 * cols)) 0; nrows = 0 }

let cols r = r.ncols
let rows r = r.nrows

let ensure_capacity r =
  let needed = (r.nrows + 1) * r.ncols in
  if needed > Array.length r.data then begin
    let data = Array.make (max needed (2 * Array.length r.data)) 0 in
    blit r.data 0 data 0 (r.nrows * r.ncols);
    r.data <- data
  end

let append r row =
  if Array.length row <> r.ncols then
    invalid_arg "Relation.append: arity mismatch";
  ensure_capacity r;
  blit row 0 r.data (r.nrows * r.ncols) r.ncols;
  r.nrows <- r.nrows + 1

let append_slice r src off =
  if off < 0 || off + r.ncols > Array.length src then
    invalid_arg "Relation.append_slice: slice out of bounds";
  ensure_capacity r;
  blit src off r.data (r.nrows * r.ncols) r.ncols;
  r.nrows <- r.nrows + 1

let append_all dst src =
  if src.ncols <> dst.ncols then
    invalid_arg "Relation.append_all: arity mismatch";
  let words = src.nrows * src.ncols in
  let needed = (dst.nrows * dst.ncols) + words in
  if needed > Array.length dst.data then begin
    let data = Array.make (max needed (2 * Array.length dst.data)) 0 in
    blit dst.data 0 data 0 (dst.nrows * dst.ncols);
    dst.data <- data
  end;
  blit src.data 0 dst.data (dst.nrows * dst.ncols) words;
  dst.nrows <- dst.nrows + src.nrows

let get r i j =
  if i < 0 || i >= r.nrows || j < 0 || j >= r.ncols then
    invalid_arg "Relation.get: out of bounds";
  r.data.((i * r.ncols) + j)

let row r i =
  if i < 0 || i >= r.nrows then invalid_arg "Relation.row: out of bounds";
  Array.sub r.data (i * r.ncols) r.ncols

let unsafe_data r = r.data

let iter f r =
  for i = 0 to r.nrows - 1 do
    f (Array.sub r.data (i * r.ncols) r.ncols)
  done

let iteri_flat f r =
  let w = r.ncols in
  for i = 0 to r.nrows - 1 do
    f i r.data (i * w)
  done

let fold_rows f init r =
  let w = r.ncols in
  let acc = ref init in
  for i = 0 to r.nrows - 1 do
    acc := f !acc r.data (i * w)
  done;
  !acc

let project r columns =
  Array.iter
    (fun j ->
      if j < 0 || j >= r.ncols then invalid_arg "Relation.project: bad column")
    columns;
  let out = create ~cols:(Array.length columns) in
  let buf = Array.make (Array.length columns) 0 in
  for i = 0 to r.nrows - 1 do
    Array.iteri (fun k j -> buf.(k) <- r.data.((i * r.ncols) + j)) columns;
    append out buf
  done;
  out

let of_rowtable tbl =
  {
    ncols = Rowtable.width tbl;
    data = Rowtable.unsafe_keys tbl;
    nrows = Rowtable.length tbl;
  }

let dedup r =
  let seen = Rowtable.create ~width:r.ncols () in
  let w = r.ncols in
  for i = 0 to r.nrows - 1 do
    ignore (Rowtable.add_if_absent seen r.data (i * w))
  done;
  of_rowtable seen

let to_list r =
  let acc = ref [] in
  for i = r.nrows - 1 downto 0 do
    acc := row r i :: !acc
  done;
  !acc
