open Query

(* ---------- Naive reference fixpoint ---------- *)

module CqSet = Set.Make (struct
  type t = Bgp.t

  let compare = Bgp.raw_compare
end)

let reformulate_naive schema (q : Bgp.t) : Ucq.t =
  let q = Bgp.dedup_body (Bgp.normalize q) in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "_r%d" !counter
  in
  (* Dedup on canonical forms so fresh-variable names do not multiply
     states. *)
  let seen = ref (CqSet.singleton (Bgp.canonical q)) in
  let queue = Queue.create () in
  Queue.add q queue;
  while not (Queue.is_empty queue) do
    let cur = Queue.pop queue in
    let steps = Rules.one_step schema ~fresh cur in
    List.iter
      (fun { Rules.result; _ } ->
        (* instantiation can make two atoms syntactically equal: collapse
           them (BGP bodies are sets) before deduplicating states *)
        let result = Bgp.dedup_body result in
        let key = Bgp.canonical result in
        if not (CqSet.mem key !seen) then begin
          seen := CqSet.add key !seen;
          Queue.add result queue
        end)
      steps
  done;
  Ucq.of_cqs (CqSet.elements !seen)

(* ---------- Factorized engine ---------- *)

type t = {
  schema : Rdf.Schema.t;
  max_terms : int;
  (* atom-closure cache, keyed by the atom with variables positionally
     renamed (see [atom_key]).  The engine memoizes per atom only:
     whole-query UCQs are memoized one level up, by the schema-versioned
     tier of [Cache], which knows when the schema (and hence this entire
     engine) is obsolete — a query-level table here would be version-blind
     and serve stale unions after a schema update. *)
  atom_cache : (string, Bgp.atom list) Hashtbl.t;
  (* [atom_total] per normalized atom key: like a closure, a pure function
     of (schema, key), so it lives exactly as long as [atom_cache]. *)
  total_cache : (string, int) Hashtbl.t;
  (* A reformulator is shared across domains (parallel cover costing,
     parallel workload runs), so the memo tables are guarded: probe under
     the lock, compute outside it — values are pure functions of
     (schema, key), so two domains racing to fill the same entry compute
     identical values and the first insert wins — and never hold the lock
     across an expansion. *)
  lock : Mutex.t;
}

exception Too_large of { bound : int; limit : int }

let create ?(max_terms = 500_000) schema =
  {
    schema;
    max_terms;
    atom_cache = Hashtbl.create 64;
    total_cache = Hashtbl.create 64;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let schema t = t.schema

(* The marker object/subject used for fresh variables inside cached atom
   closures; it is renamed apart at assembly time. *)
let fresh_marker = "!fresh"

(* Positional renaming of an atom's variables: the closure of an atom does
   not depend on its variable names, only on which positions are variables
   and whether they coincide.  [normalize_atom] returns the renamed atom
   plus the inverse renaming, so a cached closure (expressed on the
   normalized names) can be translated back to any querying atom's names. *)
let normalize_atom (a : Bgp.atom) =
  let tbl = Hashtbl.create 3 in
  let inverse = ref [] in
  let n = ref 0 in
  let name v =
    match Hashtbl.find_opt tbl v with
    | Some s -> s
    | None ->
        let s = Printf.sprintf "!v%d" !n in
        incr n;
        Hashtbl.add tbl v s;
        inverse := (s, v) :: !inverse;
        s
  in
  let pos = function
    | Bgp.Var v -> Bgp.Var (name v)
    | Bgp.Const _ as t -> t
  in
  let normalized = Bgp.atom (pos a.s) (pos a.p) (pos a.o) in
  (normalized, !inverse)

let atom_key (a : Bgp.atom) =
  let pos = function
    | Bgp.Var v -> "?" ^ v
    | Bgp.Const c -> Rdf.Term.to_string c
  in
  String.concat " " [ pos a.s; pos a.p; pos a.o ]

let denormalize_atom inverse (a : Bgp.atom) =
  let pos = function
    | Bgp.Var v when String.equal v fresh_marker -> Bgp.Var v
    | Bgp.Var v -> (
        match List.assoc_opt v inverse with
        | Some original -> Bgp.Var original
        | None -> Bgp.Var v)
    | Bgp.Const _ as t -> t
  in
  Bgp.atom (pos a.s) (pos a.p) (pos a.o)

module AtomSet = Set.Make (struct
  type t = Bgp.atom

  let compare = Bgp.atom_compare
end)

(* Probe-compute-fill on one of the reformulator's memo tables (see the
   locking note on [t]). *)
let memo t tbl key compute =
  match locked t (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
      let v = compute () in
      locked t (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v -> v  (* another domain filled it first *)
          | None ->
              Hashtbl.add tbl key v;
              v)

(* Atom-local closure under SubClass / Domain / Range / SubProperty.  The
   instantiation rules are handled separately (they substitute through the
   whole CQ).  Fresh variables are all named [fresh_marker]: each closure
   atom contains at most one fresh position, and closure members are
   deduplicated under that naming, which is exactly equality up to fresh
   renaming. *)
let atom_closure t (a0 : Bgp.atom) : Bgp.atom list =
  let a, inverse = normalize_atom a0 in
  let key = atom_key a in
  let normalized_closure =
    memo t t.atom_cache key @@ fun () ->
      let schema = t.schema in
      let fresh = Bgp.Var fresh_marker in
      let expand (x : Bgp.atom) =
        match x.p with
        | Bgp.Const p when Rdf.Term.equal p Rdf.Vocab.rdf_type -> (
            match x.o with
            | Bgp.Const klass ->
                let sub =
                  Rdf.Term.Set.fold
                    (fun c acc -> Bgp.atom x.s x.p (Bgp.Const c) :: acc)
                    (Rdf.Schema.sub_classes schema klass)
                    []
                in
                let dom =
                  Rdf.Term.Set.fold
                    (fun p acc -> Bgp.atom x.s (Bgp.Const p) fresh :: acc)
                    (Rdf.Schema.properties_with_domain schema klass)
                    []
                in
                let rng =
                  Rdf.Term.Set.fold
                    (fun p acc -> Bgp.atom fresh (Bgp.Const p) x.s :: acc)
                    (Rdf.Schema.properties_with_range schema klass)
                    []
                in
                (* Per-rule application counters (no-ops unless tracing is
                   on; only cache misses reach this point). *)
                Obs.count "reformulate.rule.subclass" (List.length sub);
                Obs.count "reformulate.rule.domain" (List.length dom);
                Obs.count "reformulate.rule.range" (List.length rng);
                sub @ dom @ rng
            | Bgp.Var _ -> [])
        | Bgp.Const p ->
            let subs =
              Rdf.Term.Set.fold
                (fun p' acc -> Bgp.atom x.s (Bgp.Const p') x.o :: acc)
                (Rdf.Schema.sub_properties schema p)
                []
            in
            Obs.count "reformulate.rule.subproperty" (List.length subs);
            subs
        | Bgp.Var _ -> []
      in
      let rec fix seen frontier =
        match frontier with
        | [] -> seen
        | x :: rest ->
            let news =
              List.filter (fun y -> not (AtomSet.mem y seen)) (expand x)
            in
            let seen = List.fold_left (fun s y -> AtomSet.add y s) seen news in
            fix seen (news @ rest)
      in
      AtomSet.elements (fix (AtomSet.singleton a) [ a ])
  in
  List.map (denormalize_atom inverse) normalized_closure

(* Instantiation closure: all CQs reachable by substituting class variables
   (objects of rdf:type atoms) by schema classes, and property variables by
   schema properties or rdf:type.  Every intermediate CQ is kept: partial
   instantiations are genuine members of the reformulation (Example 4 keeps
   the original query (0) alongside the instantiated ones). *)
let instantiation_closure schema (q : Bgp.t) : Bgp.t list =
  let q = Bgp.dedup_body q in
  let sites (cq : Bgp.t) =
    List.concat_map
      (fun (a : Bgp.atom) ->
        let class_site =
          match (a.p, a.o) with
          | Bgp.Const p, Bgp.Var y when Rdf.Term.equal p Rdf.Vocab.rdf_type ->
              [ `Class y ]
          | _ -> []
        in
        let prop_site =
          match a.p with Bgp.Var v -> [ `Prop v ] | Bgp.Const _ -> []
        in
        class_site @ prop_site)
      cq.body
  in
  let choices cq site =
    match site with
    | `Class y ->
        (* No body dedup here: two atoms merged by the substitution stem
           from distinct original atoms, each of which set-semantics
           derivations may still specialize independently (the assembly
           phase expands their slots independently; duplicates inside a
           final CQ collapse at canonicalization). *)
        Rdf.Term.Set.fold
          (fun c acc -> Bgp.apply_subst [ (y, c) ] cq :: acc)
          (Rdf.Schema.classes schema) []
    | `Prop v ->
        let props =
          Rdf.Term.Set.fold
            (fun p acc -> Bgp.apply_subst [ (v, p) ] cq :: acc)
            (Rdf.Schema.properties schema) []
        in
        Bgp.apply_subst [ (v, Rdf.Vocab.rdf_type) ] cq :: props
  in
  let seen = ref (CqSet.singleton q) in
  let queue = Queue.create () in
  Queue.add q queue;
  while not (Queue.is_empty queue) do
    let cur = Queue.pop queue in
    List.iter
      (fun site ->
        List.iter
          (fun next ->
            if not (CqSet.mem next !seen) then begin
              seen := CqSet.add next !seen;
              Queue.add next queue
            end)
          (choices cur site))
      (sites cur)
  done;
  CqSet.elements !seen

(* Rename the fresh markers of a closure atom apart, per body slot and per
   closure member, using a prefix that no query variable shares. *)
let rename_fresh ~prefix ~slot ~member (a : Bgp.atom) =
  let rename = function
    | Bgp.Var v when String.equal v fresh_marker ->
        Bgp.Var (Printf.sprintf "%s%d_%d" prefix slot member)
    | t -> t
  in
  Bgp.atom (rename a.s) (rename a.p) (rename a.o)

let safe_prefix (q : Bgp.t) =
  let vars = Bgp.vars q in
  let rec pick candidate =
    if List.exists (fun v -> String.length v >= String.length candidate
                             && String.sub v 0 (String.length candidate)
                                = candidate) vars
    then pick ("_" ^ candidate)
    else candidate
  in
  pick "_r"

(* Cartesian assembly: one CQ per choice of a closure member for each body
   slot. *)
let assemble ~prefix (cq : Bgp.t) (closures : Bgp.atom list array) :
    Bgp.t list =
  let n = Array.length closures in
  let rec go slot acc_body =
    if slot = n then [ { cq with Bgp.body = List.rev acc_body } ]
    else
      List.concat
        (List.mapi
           (fun member a ->
             let a = rename_fresh ~prefix ~slot ~member a in
             go (slot + 1) (a :: acc_body))
           closures.(slot))
  in
  go 0 []

(* Per-atom reformulation count computed from atom closures alone (no CQ
   materialization): the building block of the pre-construction size
   check.  Memoized per normalized atom: an atom with a class or property
   variable walks the closures of the whole schema. *)
let rec atom_total t (a : Bgp.atom) =
  memo t t.total_cache (atom_key (fst (normalize_atom a))) @@ fun () ->
  match a.p with
  | Bgp.Const p when Rdf.Term.equal p Rdf.Vocab.rdf_type -> (
      match a.o with
      | Bgp.Const _ -> List.length (atom_closure t a)
      | Bgp.Var _ ->
          Rdf.Term.Set.fold
            (fun c acc ->
              acc
              + List.length (atom_closure t (Bgp.atom a.s a.p (Bgp.Const c))))
            (Rdf.Schema.classes t.schema) 1)
  | Bgp.Const _ -> List.length (atom_closure t a)
  | Bgp.Var _ ->
      let via_props =
        Rdf.Term.Set.fold
          (fun p acc ->
            acc + List.length (atom_closure t (Bgp.atom a.s (Bgp.Const p) a.o)))
          (Rdf.Schema.properties t.schema) 0
      in
      1 + via_props + atom_total t (Bgp.atom a.s (Bgp.Const Rdf.Vocab.rdf_type) a.o)

(* The product saturates at [max_int]: nine atoms of total 188 already
   overflow a 63-bit int. *)
let count_product_bound t (q : Bgp.t) =
  List.fold_left
    (fun acc a ->
      if acc = max_int then acc
      else
        let m = max 1 (atom_total t a) in
        if acc > max_int / m then max_int else acc * m)
    1 q.body

let reformulate t (q : Bgp.t) : Ucq.t =
  Obs.Span.with_ "reformulate" @@ fun sp ->
  let q = Bgp.dedup_body (Bgp.normalize q) in
  List.iter Rules.applicable q.body;
  let bound = count_product_bound t q in
  if bound > t.max_terms then
    raise (Too_large { bound; limit = t.max_terms });
  let prefix = safe_prefix q in
  let instantiated = instantiation_closure t.schema q in
  Obs.count "reformulate.rule.instantiate" (List.length instantiated - 1);
  let cqs =
    List.concat_map
      (fun (cq : Bgp.t) ->
        let closures = Array.of_list (List.map (atom_closure t) cq.body) in
        assemble ~prefix cq closures)
      instantiated
  in
  let u = Ucq.of_cqs cqs in
  Obs.Span.set sp "terms" (string_of_int (Ucq.cardinal u));
  u

let count t q = Ucq.cardinal (reformulate t q)

let atom_count t (a : Bgp.atom) =
  let head =
    match Bgp.atom_vars a with
    | [] -> [ a.s ]  (* fully ground atom: boolean-style probe *)
    | vs -> List.map (fun v -> Bgp.Var v) vs
  in
  count t (Bgp.make head [ a ])

let answer_via_reformulation g q =
  let t = create (Rdf.Graph.schema g) in
  Ucq.eval g (reformulate t q)
