open Query

(* CQ-estimate cache keys: a CQ encoded one int per position, as
   [| head arity; head terms…; s; p; o of each body atom… |].  A constant
   present in the dictionary is its code (≥ 0); a variable is an odd
   negative id and a constant with no code an even negative id, both from
   per-instance tables, so two CQs share a key exactly when they print the
   same. *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  (* every position: the generic hash stops after ten *)
  let hash (a : t) = Hashtbl.hash_param 256 256 a
end)

type t = {
  store : Encoded_store.t;
  cq_cache : float Key.t;
  var_ids : (string, int) Hashtbl.t;
  absent_ids : (Rdf.Term.t, int) Hashtbl.t;
  mutable seen_version : int;
  lock : Mutex.t;
      (* Estimation entry points serialize on this lock so a statistics
         instance shared across domains (parallel cover costing, concurrent
         [answer] calls on one system) keeps its cache and id tables
         consistent.  Every cached value is a pure function of the store
         snapshot, so lock granularity cannot change any estimate. *)
}

(* Public entry points lock; the internals below assume the lock is
   held. *)
let locked t f = Mutex.protect t.lock f

let create store =
  {
    store;
    cq_cache = Key.create 256;
    var_ids = Hashtbl.create 64;
    absent_ids = Hashtbl.create 16;
    lock = Mutex.create ();
    seen_version = Encoded_store.data_version store;
  }

let store t = t.store

(* CQ estimates are tied to a store snapshot: any data change flushes
   them, since a join estimate can depend on every property a change
   touches transitively.  Distinct counts are the store's own. *)
let refresh t =
  let v = Encoded_store.data_version t.store in
  if v <> t.seen_version then begin
    Key.reset t.cq_cache;
    Hashtbl.reset t.var_ids;
    Hashtbl.reset t.absent_ids;
    t.seen_version <- v
  end

let ndv t ~prop pos = max 1 (Encoded_store.property_ndv t.store ~prop pos)
let global_distinct t pos = max 1 (Encoded_store.distinct t.store pos)

(* ---- encoding ---- *)

let is_var id = id < 0 && id land 1 = 1
let is_absent id = id < 0 && id land 1 = 0

let var_id t v =
  match Hashtbl.find_opt t.var_ids v with
  | Some id -> id
  | None ->
      let id = -((2 * Hashtbl.length t.var_ids) + 1) in
      Hashtbl.add t.var_ids v id;
      id

let absent_id t c =
  match Hashtbl.find_opt t.absent_ids c with
  | Some id -> id
  | None ->
      let id = -((2 * Hashtbl.length t.absent_ids) + 2) in
      Hashtbl.add t.absent_ids c id;
      id

(* One call's constant encoder: the disjuncts of a UCQ share their
   constants, so each distinct value meets the dictionary once. *)
let encoder t =
  let memo = Hashtbl.create 16 in
  fun c ->
    match Hashtbl.find_opt memo c with
    | Some id -> id
    | None ->
        let id =
          match Encoded_store.encode_term t.store c with
          | Some code -> code
          | None -> absent_id t c
        in
        Hashtbl.add memo c id;
        id

let atom_base k j = 1 + k.(0) + (3 * j)
let body_length k = (Array.length k - 1 - k.(0)) / 3

let encode t const (q : Bgp.t) =
  let term = function Bgp.Var v -> var_id t v | Bgp.Const c -> const c in
  let arity = List.length q.head in
  let k = Array.make (1 + arity + (3 * List.length q.body)) 0 in
  k.(0) <- arity;
  List.iteri (fun i x -> k.(1 + i) <- term x) q.head;
  List.iteri
    (fun j (a : Bgp.atom) ->
      let b = atom_base k j in
      k.(b) <- term a.s;
      k.(b + 1) <- term a.p;
      k.(b + 2) <- term a.o)
    q.body;
  k

(* ---- atom counting ---- *)

(* Exact number of triples matching the [j]-th body atom of encoded CQ
   [k]: an index lookup, or — when a variable repeats inside the atom —
   a filtered scan of the posting. *)
let count_atom t k j =
  let b = atom_base k j in
  let s = k.(b) and p = k.(b + 1) and o = k.(b + 2) in
  if is_absent s || is_absent p || is_absent o then 0
  else
    let code x = if x < 0 then -1 else x in
    let sp = is_var s && s = p
    and so = is_var s && s = o
    and po = is_var p && p = o in
    let s' = code s and p' = code p and o' = code o in
    if not (sp || so || po) then
      Encoded_store.count_codes t.store ~s:s' ~p:p' ~o:o'
    else begin
      let n = ref 0 in
      Encoded_store.iter_matching t.store ~s:s' ~p:p' ~o:o' (fun id ->
          let s = Encoded_store.subject t.store id
          and p = Encoded_store.property t.store id
          and o = Encoded_store.obj t.store id in
          if ((not sp) || s = p) && ((not so) || s = o) && ((not po) || p = o)
          then incr n);
      !n
    end

let counts t k = Array.init (body_length k) (count_atom t k)

let atom_count t (a : Bgp.atom) =
  locked t @@ fun () ->
  count_atom t (encode t (encoder t) { Bgp.head = []; body = [ a ] }) 0

(* ---- CQ estimation ---- *)

(* NDV of variable [v]'s position in atom [s p o], used as the
   join-selectivity denominator.  When the property is a constant we have
   per-property NDV; otherwise fall back to the store-wide distinct
   counts. *)
let position_ndv t ~s ~p ~o v =
  if p = v then global_distinct t `Property
  else if p >= 0 then
    if s = v then ndv t ~prop:p `Subject
    else if o = v then ndv t ~prop:p `Object
    else 1
  else global_distinct t (if s = v then `Subject else `Object)

(* System-R style: multiply atom counts (body order), discount each
   repeated occurrence of a join variable by 1/max(ndv seen, ndv here),
   visiting an atom's variables in first-occurrence s/p/o order. *)
let estimate t k counts =
  let seen = ref [] in
  let card = ref 1.0 in
  Array.iteri
    (fun j n ->
      if !card <> 0.0 then begin
        let n = float_of_int n in
        if n = 0.0 then card := 0.0
        else begin
          card := !card *. n;
          let b = atom_base k j in
          let s = k.(b) and p = k.(b + 1) and o = k.(b + 2) in
          let visit v =
            let here = position_ndv t ~s ~p ~o v in
            match List.assoc_opt v !seen with
            | None -> seen := (v, here) :: !seen
            | Some prev ->
                seen := (v, min prev here) :: List.remove_assoc v !seen;
                card := !card /. float_of_int (max 1 (max prev here))
          in
          if is_var s then visit s;
          if is_var p && p <> s then visit p;
          if is_var o && o <> s && o <> p then visit o
        end
      end)
    counts;
  !card

(* The first computation under a key wins: a later CQ with the same key
   reads the cached value, whatever its own atom order. *)
let cached t key compute =
  match Key.find_opt t.cq_cache key with
  | Some x -> x
  | None ->
      let card = compute () in
      Key.add t.cq_cache key card;
      card

(* Keyed by the canonical form, estimated on [q] itself. *)
let cq_cardinality t (q : Bgp.t) =
  locked t @@ fun () ->
  refresh t;
  let const = encoder t in
  cached t (encode t const (Bgp.canonical q)) (fun () ->
      let k = encode t const q in
      estimate t k (counts t k))

(* UCQ disjuncts are canonical already (the {!Ucq} invariant), so their
   encoding is their cache key: no second canonicalization. *)
let ucq_cardinality t u =
  locked t @@ fun () ->
  refresh t;
  let const = encoder t in
  List.fold_left
    (fun acc cq ->
      let k = encode t const cq in
      acc +. cached t k (fun () -> estimate t k (counts t k)))
    0.0 (Ucq.disjuncts u)

let ucq_volume_and_cardinality t u =
  locked t @@ fun () ->
  refresh t;
  let const = encoder t in
  List.fold_left
    (fun (volume, card) cq ->
      let k = encode t const cq in
      let n = counts t k in
      let v = Array.fold_left (fun acc n -> acc +. float_of_int n) 0.0 n in
      (volume +. v, card +. cached t k (fun () -> estimate t k n)))
    (0.0, 0.0) (Ucq.disjuncts u)
