open Query

type t = {
  store : Encoded_store.t;
  cq_cache : (string, float) Hashtbl.t;
  mutable seen_version : int;
  lock : Mutex.t;
      (* Estimation entry points serialize on this lock so a statistics
         instance shared across domains (parallel cover costing, concurrent
         [answer] calls on one system) keeps its cache consistent.  Every
         cached value is a pure function of the store snapshot, so lock
         granularity cannot change any estimate. *)
}

(* Public entry points lock; the [_unlocked] internals below assume the
   lock is held (they call each other freely without re-acquiring). *)
let locked t f = Mutex.protect t.lock f

let create store =
  {
    store;
    cq_cache = Hashtbl.create 256;
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
    Hashtbl.reset t.cq_cache;
    t.seen_version <- v
  end

let ndv t ~prop pos = max 1 (Encoded_store.property_ndv t.store ~prop pos)
let global_distinct t pos = max 1 (Encoded_store.distinct t.store pos)

(* ---- atom counting ---- *)

type slot = Wild | Code of int | Missing

let slot_of t = function
  | Bgp.Var _ -> Wild
  | Bgp.Const c -> (
      match Encoded_store.encode_term t.store c with
      | Some code -> Code code
      | None -> Missing)

let pattern_of t (a : Bgp.atom) =
  let s = slot_of t a.s and p = slot_of t a.p and o = slot_of t a.o in
  if s = Missing || p = Missing || o = Missing then None
  else
    let opt = function Code c -> Some c | Wild -> None | Missing -> None in
    Some { Encoded_store.ps = opt s; pp = opt p; po = opt o }

let repeated_var (a : Bgp.atom) =
  let vs =
    List.filter_map
      (function Bgp.Var v -> Some v | Bgp.Const _ -> None)
      [ a.s; a.p; a.o ]
  in
  List.length vs <> List.length (List.sort_uniq String.compare vs)

let atom_count_unlocked t (a : Bgp.atom) =
  match pattern_of t a with
  | None -> 0
  | Some pat ->
      if not (repeated_var a) then Encoded_store.count t.store pat
      else begin
        (* Repeated variable inside the atom: filter the posting exactly. *)
        let same (x : Bgp.pattern_term) (y : Bgp.pattern_term) =
          match (x, y) with
          | Bgp.Var v, Bgp.Var w -> String.equal v w
          | _ -> false
        in
        let n = ref 0 in
        Intvec.iter
          (fun id ->
            let s = Encoded_store.subject t.store id
            and p = Encoded_store.property t.store id
            and o = Encoded_store.obj t.store id in
            let ok =
              (not (same a.s a.p) || s = p)
              && (not (same a.s a.o) || s = o)
              && (not (same a.p a.o) || p = o)
            in
            if ok then incr n)
          (Encoded_store.matching t.store pat);
        !n
      end

let atom_count t a = locked t @@ fun () -> atom_count_unlocked t a

(* ---- CQ estimation ---- *)

(* NDV of variable [v]'s position in atom [a], used as the join-selectivity
   denominator.  When the property is a constant we have per-property NDV;
   otherwise fall back to the store-wide distinct counts. *)
let position_ndv t (a : Bgp.atom) v =
  let prop_code =
    match a.p with
    | Bgp.Const c -> Encoded_store.encode_term t.store c
    | Bgp.Var _ -> None
  in
  let var_at pos = match pos with Bgp.Var w -> String.equal w v | _ -> false in
  if var_at a.p then global_distinct t `Property
  else
    match prop_code with
    | Some p when var_at a.s -> ndv t ~prop:p `Subject
    | Some p when var_at a.o -> ndv t ~prop:p `Object
    | Some _ -> 1
    | None ->
        global_distinct t (if var_at a.s then `Subject else `Object)

(* The estimate of [q] under cache [key], given its atoms' exact counts
   in body order ([counts] runs only on a cache miss). *)
let cq_estimate t key (q : Bgp.t) counts =
  match Hashtbl.find_opt t.cq_cache key with
  | Some x -> x
  | None ->
      (* System-R style: multiply atom counts, discount each repeated
         occurrence of a join variable by 1/max(ndv seen, ndv here). *)
      let seen : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let card =
        List.fold_left2
          (fun card (a : Bgp.atom) n ->
            if card = 0.0 then 0.0
            else
              let n = float_of_int n in
              if n = 0.0 then 0.0
              else
                let card = card *. n in
                List.fold_left
                  (fun card v ->
                    let here = position_ndv t a v in
                    match Hashtbl.find_opt seen v with
                    | None ->
                        Hashtbl.replace seen v here;
                        card
                    | Some prev ->
                        Hashtbl.replace seen v (min prev here);
                        card /. float_of_int (max 1 (max prev here)))
                  card (Bgp.atom_vars a))
          1.0 q.body (counts ())
      in
      Hashtbl.add t.cq_cache key card;
      card

let atom_counts t (q : Bgp.t) = List.map (atom_count_unlocked t) q.body

let cq_cardinality t (q : Bgp.t) =
  locked t @@ fun () ->
  refresh t;
  cq_estimate t (Bgp.to_string (Bgp.canonical q)) q (fun () -> atom_counts t q)

(* UCQ disjuncts are canonical already (the {!Ucq} invariant), so their
   printed form is their cache key: no second canonicalization. *)
let ucq_cardinality t u =
  locked t @@ fun () ->
  refresh t;
  List.fold_left
    (fun acc cq ->
      acc +. cq_estimate t (Bgp.to_string cq) cq (fun () -> atom_counts t cq))
    0.0 (Ucq.disjuncts u)

let ucq_volume_and_cardinality t u =
  locked t @@ fun () ->
  refresh t;
  List.fold_left
    (fun (volume, card) cq ->
      let counts = atom_counts t cq in
      let v =
        List.fold_left (fun acc n -> acc +. float_of_int n) 0.0 counts
      in
      ( volume +. v,
        card +. cq_estimate t (Bgp.to_string cq) cq (fun () -> counts) ))
    (0.0, 0.0) (Ucq.disjuncts u)
