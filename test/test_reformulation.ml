(* Tests for CQ→UCQ reformulation: the paper's Example 4, rule-level
   behaviour, the factorized-vs-naive equivalence, and the central soundness
   and completeness property  q_ref(db) = q(db∞)  of [4]. *)

open Query

let u s = Rdf.Term.uri s
let lit s = Rdf.Term.literal s
let bn s = Rdf.Term.bnode s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

let book_schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "Book", u "Publication");
      Rdf.Schema.Subproperty (u "writtenBy", u "hasAuthor");
      Rdf.Schema.Domain (u "writtenBy", u "Book");
      Rdf.Schema.Range (u "writtenBy", u "Person");
      Rdf.Schema.Domain (u "hasAuthor", u "Book");
      Rdf.Schema.Range (u "hasAuthor", u "Person");
    ]

let book_graph =
  Rdf.Graph.make book_schema
    [
      tr (u "doi1") typ (u "Book");
      tr (u "doi1") (u "writtenBy") (bn "b1");
      tr (u "doi1") (u "hasTitle") (lit "Game of Thrones");
      tr (bn "b1") (u "hasName") (lit "George R. R. Martin");
      tr (u "doi1") (u "publishedIn") (lit "1996");
    ]

let engine = Reformulation.Reformulate.create book_schema

(* ---- Example 4 ---- *)

let test_example4_count () =
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ] in
  Alcotest.(check int) "11 reformulations (paper Example 4)" 11
    (Reformulation.Reformulate.count engine q)

let test_example4_members () =
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ] in
  let ucq = Reformulation.Reformulate.reformulate engine q in
  let expect =
    [
      (* (0) *) Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ];
      (* (1) *)
      Bgp.make [ v "x"; c (u "Book") ] [ Bgp.atom (v "x") (c typ) (c (u "Book"))];
      (* (2) *)
      Bgp.make [ v "x"; c (u "Book") ] [ Bgp.atom (v "x") (c (u "writtenBy")) (v "z")];
      (* (3) *)
      Bgp.make [ v "x"; c (u "Book") ] [ Bgp.atom (v "x") (c (u "hasAuthor")) (v "z")];
      (* (5) *)
      Bgp.make [ v "x"; c (u "Publication") ] [ Bgp.atom (v "x") (c typ) (c (u "Book"))];
      (* (9) *)
      Bgp.make [ v "x"; c (u "Person") ] [ Bgp.atom (v "z") (c (u "writtenBy")) (v "x")];
      (* (10) *)
      Bgp.make [ v "x"; c (u "Person") ] [ Bgp.atom (v "z") (c (u "hasAuthor")) (v "x")];
    ]
  in
  List.iter
    (fun cq ->
      Alcotest.(check bool)
        ("member: " ^ Bgp.to_string cq)
        true
        (List.exists (Bgp.equal cq) (Ucq.disjuncts ucq)))
    expect

let test_example4_answers () =
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ] in
  let via_sat = Bgp.answer book_graph q in
  let via_ref = Reformulation.Reformulate.answer_via_reformulation book_graph q in
  Alcotest.(check bool) "same answers" true (via_sat = via_ref);
  (* doi1 is both a Book (explicit) and a Publication (implicit). *)
  Alcotest.(check bool) "implicit publication" true
    (List.mem [ u "doi1"; u "Publication" ] via_ref)

(* ---- Rule-level checks ---- *)

let test_subproperty_rule () =
  let q = Bgp.make [ v "x"; v "z" ] [ Bgp.atom (v "x") (c (u "hasAuthor")) (v "z") ] in
  let ucq = Reformulation.Reformulate.reformulate engine q in
  Alcotest.(check int) "hasAuthor + writtenBy" 2 (Ucq.cardinal ucq)

let test_subclass_domain_range_rules () =
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c typ) (c (u "Publication")) ] in
  let ucq = Reformulation.Reformulate.reformulate engine q in
  (* Publication ⊒ Book; x type Book entailed by writtenBy/hasAuthor facts:
     {type Publication, type Book, writtenBy, hasAuthor} = 4 *)
  Alcotest.(check int) "four disjuncts" 4 (Ucq.cardinal ucq)

let test_range_rule () =
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c typ) (c (u "Person")) ] in
  let ucq = Reformulation.Reformulate.reformulate engine q in
  (* {type Person, z writtenBy x, z hasAuthor x} *)
  Alcotest.(check int) "three disjuncts" 3 (Ucq.cardinal ucq)

let test_no_schema_no_growth () =
  let empty = Reformulation.Reformulate.create Rdf.Schema.empty in
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check int) "only the original" 1
    (Reformulation.Reformulate.count empty q)

let test_property_variable_instantiation () =
  let q = Bgp.make [ v "x"; v "p" ] [ Bgp.atom (v "x") (v "p") (c (u "doi1")) ] in
  let ucq = Reformulation.Reformulate.reformulate engine q in
  (* Original + p ∈ {writtenBy, hasAuthor, rdf:type} (schema properties and
     rdf:type), the latter spawning class instantiation of... the object is
     a constant so no further growth; writtenBy also reachable from
     hasAuthor by SubProperty. *)
  Alcotest.(check bool) "at least 4" true (Ucq.cardinal ucq >= 4)

let test_unsupported_atom () =
  let q =
    Bgp.make [ v "x" ]
      [ Bgp.atom (v "x") (c Rdf.Vocab.rdfs_subclassof) (v "y") ]
  in
  Alcotest.(check bool) "raises Unsupported_atom" true
    (try ignore (Reformulation.Reformulate.reformulate engine q); false
     with Reformulation.Rules.Unsupported_atom _ -> true)

let test_atom_count () =
  Alcotest.(check int) "degree-like atom count" 2
    (Reformulation.Reformulate.atom_count engine
       (Bgp.atom (v "x") (c (u "hasAuthor")) (v "z")))

let test_cache_consistency () =
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ] in
  let a = Reformulation.Reformulate.reformulate engine q in
  let b = Reformulation.Reformulate.reformulate engine q in
  Alcotest.(check bool) "cached result equal" true (Ucq.equal a b)

let test_construction_cap () =
  let tiny = Reformulation.Reformulate.create ~max_terms:2 book_schema in
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ] in
  Alcotest.(check bool) "raises Too_large" true
    (try ignore (Reformulation.Reformulate.reformulate tiny q); false
     with Reformulation.Reformulate.Too_large { bound; limit } ->
       bound > limit && limit = 2)

let test_product_bound_vs_exact () =
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ] in
  Alcotest.(check int) "single atom exact" 11
    (Reformulation.Reformulate.count_product_bound engine q);
  (* coupled class variables: bound over-approximates *)
  let coupled =
    Bgp.make [ v "x"; v "z"; v "k" ]
      [
        Bgp.atom (v "x") (c typ) (v "k");
        Bgp.atom (v "z") (c typ) (v "k");
      ]
  in
  Alcotest.(check bool) "bound ≥ exact" true
    (Reformulation.Reformulate.count_product_bound engine coupled
    >= Reformulation.Reformulate.count engine coupled)

(* Nine rdf:type atoms on LUBM: seven with a class variable (188
   reformulations each) and two on ub:Person (42 each).  The product is
   far beyond a 63-bit int: the bound saturates instead of wrapping
   negative, in any atom order, and [reformulate] refuses the query before
   enumerating anything. *)
let test_product_bound_saturates () =
  let module R = Reformulation.Reformulate in
  let refm = R.create Workloads.Lubm.schema in
  let person = c (u (Workloads.Lubm.ns ^ "Person")) in
  let x i = v (Printf.sprintf "x%d" i) in
  let single a = { Bgp.head = []; body = [ a ] } in
  let class_atoms =
    List.init 7 (fun i -> Bgp.atom (x i) (c typ) (v (Printf.sprintf "c%d" i)))
  in
  let person_atoms = [ Bgp.atom (x 0) (c typ) person; Bgp.atom (x 1) (c typ) person ] in
  Alcotest.(check int) "class-variable atom" 188
    (R.count_product_bound refm (single (List.hd class_atoms)));
  Alcotest.(check int) "Person atom" 42
    (R.count_product_bound refm (single (List.hd person_atoms)));
  let body = class_atoms @ person_atoms in
  let rotations =
    List.init (List.length body) (fun k ->
        List.filteri (fun i _ -> i >= k) body @ List.filteri (fun i _ -> i < k) body)
  in
  List.iter
    (fun body ->
      Alcotest.(check int) "saturated" max_int
        (R.count_product_bound refm (Bgp.make [ x 0 ] body)))
    (rotations @ List.map List.rev rotations);
  let q = Bgp.make [ x 0 ] body in
  Alcotest.(check bool) "bound ≥ max_terms" true
    (R.count_product_bound refm q >= 500_000);
  let start = Unix.gettimeofday () in
  Alcotest.(check bool) "raises Too_large" true
    (try ignore (R.reformulate refm q : Ucq.t); false
     with R.Too_large { bound; _ } -> bound = max_int);
  Alcotest.(check bool) "refused promptly" true
    (Unix.gettimeofday () -. start < 5.0)

(* The bound one long-lived reformulator computes through its per-atom
   memo equals the product of per-atom totals each computed on a fresh
   reformulator, for every fragment of every workload query. *)
let test_product_bound_memo () =
  let module R = Reformulation.Reformulate in
  let module AtomMap = Map.Make (struct
    type t = Bgp.atom

    let compare = Bgp.atom_compare
  end) in
  let budget = { Rqa.Cover_space.max_covers = 500; max_millis = 60_000.0 } in
  let checked = ref 0 in
  List.iter
    (fun (schema, queries) ->
      let warm = R.create schema in
      let cold = ref AtomMap.empty in
      let cold_total a =
        match AtomMap.find_opt a !cold with
        | Some n -> n
        | None ->
            let n =
              R.count_product_bound (R.create schema) { Bgp.head = []; body = [ a ] }
            in
            cold := AtomMap.add a n !cold;
            n
      in
      let sat_mul a b = if a > max_int / b then max_int else a * b in
      List.iter
        (fun (name, q) ->
          let { Rqa.Cover_space.covers; _ } = Rqa.Cover_space.enumerate ~budget q in
          List.concat_map
            (fun cover -> List.map (Jucq.cover_query q cover) cover)
            covers
          |> List.sort_uniq Bgp.raw_compare
          |> List.iter (fun (f : Bgp.t) ->
                 incr checked;
                 Alcotest.(check int) name
                   (List.fold_left (fun acc a -> sat_mul acc (cold_total a)) 1 f.body)
                   (R.count_product_bound warm f)))
        queries)
    [
      (Workloads.Lubm.schema, Workloads.Lubm.queries);
      (Workloads.Dblp.schema, Workloads.Dblp.queries);
    ];
  Alcotest.(check bool) "fragments checked" true (!checked > 0)

(* ---- Multi-atom joint reformulation ---- *)

let test_joint_reformulation_product () =
  (* For atoms with disjoint variables in class/property positions, the
     joint reformulation is the product of per-atom reformulations (this is
     what makes |q1_ref| = 188 × 4 × 3 = 2256 in Table 1). *)
  let q =
    Bgp.make [ v "x"; v "a" ]
      [
        Bgp.atom (v "x") (c (u "hasAuthor")) (v "a");
        Bgp.atom (v "x") (c typ) (c (u "Publication"));
      ]
  in
  Alcotest.(check int) "2 × 4" 8 (Reformulation.Reformulate.count engine q);
  (* With [a] existential, the hasAuthor/writtenBy pair of combinations is
     isomorphic to the writtenBy/hasAuthor one and deduplicates. *)
  let q' =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c (u "hasAuthor")) (v "a");
        Bgp.atom (v "x") (c typ) (c (u "Publication"));
      ]
  in
  Alcotest.(check int) "one isomorphic pair merged" 7
    (Reformulation.Reformulate.count engine q')

let test_shared_class_variable () =
  (* When the same variable sits in two class positions, instantiation
     couples the atoms: NOT a plain product. *)
  let q =
    Bgp.make [ v "x"; v "y"; v "k" ]
      [
        Bgp.atom (v "x") (c typ) (v "k");
        Bgp.atom (v "y") (c typ) (v "k");
      ]
  in
  let n = Reformulation.Reformulate.count engine q in
  let single =
    Reformulation.Reformulate.count engine
      (Bgp.make [ v "x"; v "k" ] [ Bgp.atom (v "x") (c typ) (v "k") ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "coupled (%d) < product (%d)" n (single * single))
    true
    (n < single * single)

(* ---- qcheck: factorized = naive, reformulation = saturation ---- *)

let gen_class = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "C%d" i)) (int_bound 4))
let gen_prop = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "p%d" i)) (int_bound 3))
let gen_node = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "n%d" i)) (int_bound 6))

let gen_constr =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun a b -> Rdf.Schema.Subclass (a, b)) gen_class gen_class;
        map2 (fun a b -> Rdf.Schema.Subproperty (a, b)) gen_prop gen_prop;
        map2 (fun p cl -> Rdf.Schema.Domain (p, cl)) gen_prop gen_class;
        map2 (fun p cl -> Rdf.Schema.Range (p, cl)) gen_prop gen_class;
      ])

let gen_schema =
  QCheck2.Gen.(map Rdf.Schema.of_constraints (list_size (int_bound 5) gen_constr))

let gen_fact =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun s cl -> tr s typ cl) gen_node gen_class;
        (let* s = gen_node and* p = gen_prop and* o = gen_node in
         return (tr s p o));
      ])

let gen_graph =
  QCheck2.Gen.(
    map2 (fun s facts -> Rdf.Graph.make s facts) gen_schema
      (list_size (int_bound 15) gen_fact))

(* Random small queries over the same vocabulary; connected by sharing the
   variable x across atoms. *)
let gen_query =
  QCheck2.Gen.(
    let* n = int_range 1 3 in
    let gen_atom i =
      let x = v "x" in
      let oi = v (Printf.sprintf "o%d" i) in
      oneof
        [
          (* type atom with constant class *)
          map (fun cl -> Bgp.atom x (c typ) (c cl)) gen_class;
          (* type atom with variable class *)
          return (Bgp.atom x (c typ) oi);
          (* property atom, constant property *)
          map2 (fun p o -> Bgp.atom x (c p) o) gen_prop
            (oneof [ return oi; map c gen_node ]);
          (* property atom with property variable *)
          map (fun o -> Bgp.atom x (v (Printf.sprintf "pp%d" i)) o)
            (oneof [ return oi; map c gen_node ]);
        ]
    in
    let* atoms =
      flatten_l (List.init n gen_atom)
    in
    return (Bgp.make [ v "x" ] atoms))

(* UCQ equivalence, disjunct-wise (Sagiv-Yannakakis): U1 ⊑ U2 iff every
   disjunct of U1 is contained in some disjunct of U2.  The factorized and
   naive engines may differ syntactically on redundant members (merged-atom
   derivations reachable in different orders), but must be equivalent. *)
let ucq_equivalent u1 u2 =
  let le a b =
    List.for_all
      (fun d1 ->
        List.exists (fun d2 -> Containment.contained d1 d2) (Ucq.disjuncts b))
      (Ucq.disjuncts a)
  in
  le u1 u2 && le u2 u1

let prop_factorized_equals_naive =
  QCheck2.Test.make ~count:150
    ~name:"factorized ≡ naive reformulation (UCQ equivalence)"
    QCheck2.Gen.(pair gen_schema gen_query)
    (fun (schema, q) ->
      let t = Reformulation.Reformulate.create schema in
      ucq_equivalent
        (Reformulation.Reformulate.reformulate t q)
        (Reformulation.Reformulate.reformulate_naive schema q))

let prop_soundness_completeness =
  QCheck2.Test.make ~count:300
    ~name:"q_ref(db) = q(db∞)  (soundness & completeness)"
    QCheck2.Gen.(pair gen_graph gen_query)
    (fun (g, q) ->
      Reformulation.Reformulate.answer_via_reformulation g q
      = Bgp.answer g q)

let prop_original_query_member =
  QCheck2.Test.make ~count:150 ~name:"reformulation contains the original CQ"
    QCheck2.Gen.(pair gen_schema gen_query)
    (fun (schema, q) ->
      let t = Reformulation.Reformulate.create schema in
      List.exists (Bgp.equal q)
        (Ucq.disjuncts (Reformulation.Reformulate.reformulate t q)))

let prop_reformulation_monotone_schema =
  QCheck2.Test.make ~count:150
    ~name:"adding constraints never shrinks the reformulation"
    QCheck2.Gen.(triple gen_schema gen_constr gen_query)
    (fun (schema, extra, q) ->
      let t1 = Reformulation.Reformulate.create schema in
      let t2 = Reformulation.Reformulate.create (Rdf.Schema.add extra schema) in
      Reformulation.Reformulate.count t1 q
      <= Reformulation.Reformulate.count t2 q)

let prop_product_bound_is_upper_bound =
  QCheck2.Test.make ~count:150
    ~name:"count_product_bound ≥ exact reformulation count"
    QCheck2.Gen.(pair gen_schema gen_query)
    (fun (schema, q) ->
      let t = Reformulation.Reformulate.create schema in
      Reformulation.Reformulate.count_product_bound t q
      >= Reformulation.Reformulate.count t q)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_product_bound_is_upper_bound;
      prop_factorized_equals_naive;
      prop_soundness_completeness;
      prop_original_query_member;
      prop_reformulation_monotone_schema;
    ]

let () =
  Alcotest.run "reformulation"
    [
      ( "example4",
        [
          Alcotest.test_case "count = 11" `Quick test_example4_count;
          Alcotest.test_case "members" `Quick test_example4_members;
          Alcotest.test_case "answers" `Quick test_example4_answers;
        ] );
      ( "rules",
        [
          Alcotest.test_case "subproperty" `Quick test_subproperty_rule;
          Alcotest.test_case "subclass/domain/range" `Quick test_subclass_domain_range_rules;
          Alcotest.test_case "range" `Quick test_range_rule;
          Alcotest.test_case "no schema" `Quick test_no_schema_no_growth;
          Alcotest.test_case "property variable" `Quick test_property_variable_instantiation;
          Alcotest.test_case "unsupported atom" `Quick test_unsupported_atom;
          Alcotest.test_case "atom count" `Quick test_atom_count;
          Alcotest.test_case "cache consistency" `Quick test_cache_consistency;
          Alcotest.test_case "construction cap" `Quick test_construction_cap;
          Alcotest.test_case "product bound vs exact" `Quick test_product_bound_vs_exact;
          Alcotest.test_case "product bound saturates" `Quick
            test_product_bound_saturates;
          Alcotest.test_case "memoized bound = cold bound" `Slow
            test_product_bound_memo;
        ] );
      ( "joint",
        [
          Alcotest.test_case "product structure" `Quick test_joint_reformulation_product;
          Alcotest.test_case "shared class variable" `Quick test_shared_class_variable;
        ] );
      ("properties", qcheck_cases);
    ]
