(* Tests for the query model: BGP queries, evaluation semantics, canonical
   forms, UCQs, JUCQ covers and the SPARQL front-end. *)

open Query

let u s = Rdf.Term.uri s
let lit s = Rdf.Term.literal s
let bn s = Rdf.Term.bnode s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

let rows =
  Alcotest.testable
    (fun fmt rs ->
      Format.pp_print_string fmt
        (String.concat " | "
           (List.map
              (fun r -> String.concat "," (List.map Rdf.Term.to_string r))
              rs)))
    (List.equal (List.equal Rdf.Term.equal))

(* Figure 3 graph *)
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

(* ---- Bgp construction ---- *)

let test_make_validates_head () =
  Alcotest.(check bool) "head var must be in body" true
    (try
       ignore (Bgp.make [ v "z" ] [ Bgp.atom (v "x") (c typ) (v "y") ]);
       false
     with Invalid_argument _ -> true)

let test_make_rejects_empty_body () =
  Alcotest.(check bool) "empty body" true
    (try ignore (Bgp.make [ ] [ ]); false
     with Invalid_argument _ -> true)

let test_vars_order () =
  let q =
    Bgp.make [ v "y" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "q")) (v "z");
      ]
  in
  Alcotest.(check (list string)) "vars" [ "x"; "y"; "z" ] (Bgp.vars q);
  Alcotest.(check (list string)) "head vars" [ "y" ] (Bgp.head_vars q)

let test_normalize_bnodes () =
  let q =
    Bgp.make [ v "x" ]
      [ Bgp.atom (v "x") (c (u "p")) (c (Rdf.Term.bnode "b")) ]
  in
  let q' = Bgp.normalize q in
  Alcotest.(check int) "two vars" 2 (List.length (Bgp.vars q'))

(* ---- Connectivity ---- *)

let test_connectivity () =
  let a1 = Bgp.atom (v "x") (c (u "p")) (v "y") in
  let a2 = Bgp.atom (v "y") (c (u "q")) (v "z") in
  let a3 = Bgp.atom (v "w") (c (u "r")) (v "t") in
  Alcotest.(check bool) "a1-a2 connected" true (Bgp.atoms_connected a1 a2);
  Alcotest.(check bool) "a1-a3 not" false (Bgp.atoms_connected a1 a3);
  Alcotest.(check bool) "chain connected" true (Bgp.is_connected [ a1; a2 ]);
  Alcotest.(check bool) "cartesian product" false (Bgp.is_connected [ a1; a3 ]);
  Alcotest.(check bool) "transitive connection" true
    (Bgp.is_connected [ a1; a2; Bgp.atom (v "z") (c (u "s")) (v "w"); a3 ])

(* ---- Canonical / equality ---- *)

let test_canonical_iso () =
  let q1 =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "q")) (v "z");
      ]
  in
  let q2 =
    Bgp.make [ v "a" ]
      [
        Bgp.atom (v "b") (c (u "q")) (v "w");
        Bgp.atom (v "a") (c (u "p")) (v "b");
      ]
  in
  Alcotest.(check bool) "isomorphic" true (Bgp.equal q1 q2)

let test_canonical_distinguishes_head () =
  let body =
    [
      Bgp.atom (v "x") (c (u "p")) (v "y");
    ]
  in
  let q1 = Bgp.make [ v "x" ] body in
  let q2 = Bgp.make [ v "y" ] body in
  Alcotest.(check bool) "different heads differ" false (Bgp.equal q1 q2)

let test_canonical_swapped_existentials () =
  (* The parallel-renaming regression: permuting existential names must not
     collapse distinct variables. *)
  let q1 =
    Bgp.make [ v "h" ]
      [
        Bgp.atom (v "a") (v "b") (c (lit "1996"));
        Bgp.atom (v "a") (c (u "p")) (v "d");
        Bgp.atom (v "d") (c (u "n")) (v "h");
      ]
  in
  let cq = Bgp.canonical q1 in
  Alcotest.(check int) "still 4 distinct vars" 4 (List.length (Bgp.vars cq))

(* ---- Evaluation (paper Example 3) ---- *)

let example3_query =
  Bgp.make [ v "x3" ]
    [
      Bgp.atom (v "x1") (c (u "hasAuthor")) (v "x2");
      Bgp.atom (v "x2") (c (u "hasName")) (v "x3");
      Bgp.atom (v "x1") (v "x4") (c (lit "1996"));
    ]

let test_eval_incomplete_without_reasoning () =
  Alcotest.check rows "direct evaluation misses implicit triples" []
    (Bgp.eval book_graph example3_query)

let test_answer_example3 () =
  Alcotest.check rows "answer via saturation"
    [ [ lit "George R. R. Martin" ] ]
    (Bgp.answer book_graph example3_query)

let test_eval_constants_in_head () =
  let q = Bgp.make [ v "x"; c (u "Book") ]
      [ Bgp.atom (v "x") (c typ) (c (u "Book")) ] in
  Alcotest.check rows "constant head column"
    [ [ u "doi1"; u "Book" ] ]
    (Bgp.eval book_graph q)

let test_eval_set_semantics () =
  let g =
    Rdf.Graph.of_triples
      [ tr (u "a") (u "p") (u "b"); tr (u "a") (u "p") (u "c") ]
  in
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.check rows "duplicates eliminated" [ [ u "a" ] ] (Bgp.eval g q)

(* ---- Ucq ---- *)

let test_ucq_dedup () =
  let q1 = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  let q2 = Bgp.make [ v "a" ] [ Bgp.atom (v "a") (c (u "p")) (v "b") ] in
  let ucq = Ucq.of_cqs [ q1; q2 ] in
  Alcotest.(check int) "isomorphic disjuncts merged" 1 (Ucq.cardinal ucq)

let test_ucq_arity_mismatch () =
  let q1 = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  let q2 = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check bool) "mismatch raises" true
    (try ignore (Ucq.of_cqs [ q1; q2 ]); false
     with Invalid_argument _ -> true)

let test_ucq_eval_union () =
  let g =
    Rdf.Graph.of_triples
      [ tr (u "a") (u "p") (u "b"); tr (u "x") (u "q") (u "y") ]
  in
  let q1 = Bgp.make [ v "s" ] [ Bgp.atom (v "s") (c (u "p")) (v "o") ] in
  let q2 = Bgp.make [ v "s" ] [ Bgp.atom (v "s") (c (u "q")) (v "o") ] in
  Alcotest.check rows "union" [ [ u "a" ]; [ u "x" ] ]
    (Ucq.eval g (Ucq.of_cqs [ q1; q2 ]))

(* ---- Jucq covers ---- *)

(* q1 from Motivating Example 1, against an arbitrary ontology. *)
let q1 =
  Bgp.make [ v "x"; v "y" ]
    [
      Bgp.atom (v "x") (c typ) (v "y");
      Bgp.atom (v "x") (c (u "degreeFrom")) (c (u "univ7"));
      Bgp.atom (v "x") (c (u "memberOf")) (c (u "univ7"));
    ]

let test_cover_check_valid () =
  List.iter
    (fun cover ->
      match Jucq.check_cover q1 cover with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("valid cover rejected: " ^ msg))
    [
      Jucq.ucq_cover q1;
      Jucq.scq_cover q1;
      [ [ 0; 1 ]; [ 1; 2 ] ];
      [ [ 0; 2 ]; [ 1 ] ];
    ]

let test_cover_check_invalid () =
  let expect_error cover reason =
    match Jucq.check_cover q1 cover with
    | Ok () -> Alcotest.fail ("invalid cover accepted: " ^ reason)
    | Error _ -> ()
  in
  expect_error [] "empty cover";
  expect_error [ [ 0 ] ] "misses atoms";
  expect_error [ [ 0; 1; 2 ]; [ 1 ] ] "fragment inclusion";
  expect_error [ [ 0; 1 ]; [ 2; 1 ]; [ 0; 1 ] ] "duplicate fragment";
  expect_error [ [ 0; 1; 3 ] ] "index out of range"

let test_cover_disconnected_fragment () =
  (* q(x, z) :- x p y, z q w: a single fragment containing both atoms has an
     internal cartesian product. *)
  let q =
    Bgp.make [ v "x"; v "z" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "z") (c (u "q")) (v "y");
        Bgp.atom (v "x") (c (u "r")) (v "z");
      ]
  in
  (match Jucq.check_cover q [ [ 0; 1 ]; [ 2 ] ] with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("shared-object fragment rejected: " ^ m));
  match Jucq.check_cover q [ [ 0; 2 ]; [ 1 ] ] with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("connected fragment rejected: " ^ m)

let test_cover_query_def34 () =
  (* Cover {{t1},{t2,t3}} of q1: q_f1(x,y) and q_f2(x) (paper, Section 3). *)
  let cover = [ [ 0 ]; [ 1; 2 ] ] in
  let f1 = Jucq.cover_query q1 cover [ 0 ] in
  let f2 = Jucq.cover_query q1 cover [ 1; 2 ] in
  Alcotest.(check (list string)) "f1 head" [ "x"; "y" ] (Bgp.head_vars f1);
  Alcotest.(check (list string)) "f2 head" [ "x" ] (Bgp.head_vars f2);
  Alcotest.(check int) "f1 body" 1 (List.length f1.Bgp.body);
  Alcotest.(check int) "f2 body" 2 (List.length f2.Bgp.body)

let test_cover_query_join_var_not_distinguished () =
  (* A shared variable that is not distinguished must still appear in the
     cover-query heads so the fragments can join. *)
  let q =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "q")) (v "z");
      ]
  in
  let cover = [ [ 0 ]; [ 1 ] ] in
  let f1 = Jucq.cover_query q cover [ 0 ] in
  let f2 = Jucq.cover_query q cover [ 1 ] in
  Alcotest.(check (list string)) "f1 head has join var" [ "x"; "y" ]
    (Bgp.head_vars f1);
  Alcotest.(check (list string)) "f2 head is join var only" [ "y" ]
    (Bgp.head_vars f2)

(* ---- check_cover edge cases ---- *)

let test_cover_check_duplicate_atoms () =
  (* A body with syntactically duplicate atoms: the indexes are distinct,
     so singleton fragments over each copy are not "included" in one
     another and both covers are valid. *)
  let a = Bgp.atom (v "x") (c (u "p")) (v "y") in
  let b = Bgp.atom (v "y") (c (u "q")) (v "z") in
  let q = Bgp.make [ v "x" ] [ a; a; b ] in
  (match Jucq.check_cover q (Jucq.ucq_cover q) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("ucq cover over duplicates rejected: " ^ m));
  (match Jucq.check_cover q (Jucq.scq_cover q) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("scq cover over duplicates rejected: " ^ m));
  (* … but a fragment covering both copies does include the singleton. *)
  (match Jucq.check_cover q [ [ 0; 1 ]; [ 1 ]; [ 2 ] ] with
  | Ok () -> Alcotest.fail "included duplicate fragment accepted"
  | Error _ -> ());
  (* the cover query of one duplicate has the same head as the other's *)
  let cover = Jucq.scq_cover q in
  Alcotest.(check (list string))
    "duplicate cover queries agree"
    (Bgp.head_vars (Jucq.cover_query q cover [ 0 ]))
    (Bgp.head_vars (Jucq.cover_query q cover [ 1 ]))

let test_cover_check_single_atom () =
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check bool) "ucq = scq on a single atom" true
    (Jucq.ucq_cover q = Jucq.scq_cover q);
  (match Jucq.check_cover q [ [ 0 ] ] with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("singleton cover rejected: " ^ m));
  (match Jucq.check_cover q [] with
  | Ok () -> Alcotest.fail "empty cover accepted"
  | Error _ -> ());
  (match Jucq.check_cover q [ [ 0 ]; [ 0 ] ] with
  | Ok () -> Alcotest.fail "duplicate singleton fragments accepted"
  | Error _ -> ());
  (* a single-atom cover query keeps the whole head *)
  Alcotest.(check (list string)) "head preserved" [ "x" ]
    (Bgp.head_vars (Jucq.cover_query q [ [ 0 ] ] [ 0 ]))

let test_cover_check_included_fragment () =
  (match Jucq.check_cover q1 [ [ 0; 1 ]; [ 0 ]; [ 2 ] ] with
  | Ok () -> Alcotest.fail "strictly included fragment accepted"
  | Error m ->
      Alcotest.(check bool) "mentions inclusion" true
        (String.length m > 0));
  match Jucq.check_cover q1 [ [ 0; 1; 2 ]; [ 2 ] ] with
  | Ok () -> Alcotest.fail "fragment included in full cover accepted"
  | Error _ -> ()

let test_cover_query_repeated_head_vars () =
  (* q(x,x) :- x p y, y q z: the repeated distinguished variable appears
     once in each cover-query head (heads are variable {e sets} under
     Definition 3.4). *)
  let q =
    Bgp.make
      [ v "x"; v "x" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "q")) (v "z");
      ]
  in
  let cover = [ [ 0 ]; [ 1 ] ] in
  (match Jucq.check_cover q cover with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("repeated-head cover rejected: " ^ m));
  Alcotest.(check (list string)) "f0 head" [ "x"; "y" ]
    (Bgp.head_vars (Jucq.cover_query q cover [ 0 ]));
  Alcotest.(check (list string)) "f1 head" [ "y" ]
    (Bgp.head_vars (Jucq.cover_query q cover [ 1 ]))

let identity_reformulation cq = Ucq.of_cqs [ cq ]

let test_jucq_eval_equals_direct () =
  let g =
    Rdf.Graph.of_triples
      [
        tr (u "a") typ (u "Student");
        tr (u "a") (u "degreeFrom") (u "univ7");
        tr (u "a") (u "memberOf") (u "univ7");
        tr (u "b") typ (u "Student");
        tr (u "b") (u "degreeFrom") (u "univ7");
      ]
  in
  let direct = Bgp.eval g q1 in
  List.iter
    (fun cover ->
      let j = Jucq.make ~reformulate:identity_reformulation q1 cover in
      Alcotest.check rows
        ("cover " ^ Jucq.cover_to_string cover)
        direct (Jucq.eval g j))
    [
      Jucq.ucq_cover q1;
      Jucq.scq_cover q1;
      [ [ 0; 1 ]; [ 1; 2 ] ];
      [ [ 0; 2 ]; [ 1 ] ];
      [ [ 0; 1 ]; [ 2 ] ];
    ]

let test_jucq_stats () =
  let j = Jucq.make ~reformulate:identity_reformulation q1 (Jucq.scq_cover q1) in
  Alcotest.(check int) "fragments" 3 (Jucq.fragment_count j);
  Alcotest.(check int) "disjuncts" 3 (Jucq.total_disjuncts j)

(* ---- Containment ---- *)

let test_containment_basic () =
  (* q(x) :- x p y, y p z  is contained in  q(x) :- x p y *)
  let broad = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  let narrow =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "p")) (v "z");
      ]
  in
  Alcotest.(check bool) "narrow ⊑ broad" true (Containment.contained narrow broad);
  Alcotest.(check bool) "broad ⋢ narrow" false (Containment.contained broad narrow)

let test_containment_head_sensitive () =
  let q1 = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  let q2 = Bgp.make [ v "y" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check bool) "different heads incomparable" false
    (Containment.contained q1 q2)

let test_containment_constants () =
  let concrete =
    Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (c (u "a")) ]
  in
  let general = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check bool) "constant ⊑ variable" true
    (Containment.contained concrete general);
  Alcotest.(check bool) "variable ⋢ constant" false
    (Containment.contained general concrete)

let test_containment_equivalent_iso () =
  let q1 =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "x") (c (u "p")) (v "z");
      ]
  in
  (* the second atom is a duplicate up to renaming: equivalent to one atom *)
  let q2 = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check bool) "self-join collapses" true (Containment.equivalent q1 q2)

let test_minimize_example4 () =
  (* Example 4's terms (4) q(x,Publication) :- x type Publication and
     (5) q(x,Publication) :- x type Book: (5) is NOT contained in (4)
     syntactically — both must stay.  But q(x) :- x type Book duplicated
     with a weaker variant collapses. *)
  let t4 =
    Bgp.make [ v "x"; c (u "Publication") ]
      [ Bgp.atom (v "x") (c typ) (c (u "Publication")) ]
  in
  let t5 =
    Bgp.make [ v "x"; c (u "Publication") ]
      [ Bgp.atom (v "x") (c typ) (c (u "Book")) ]
  in
  Alcotest.(check int) "both stay" 2
    (Ucq.cardinal (Containment.minimize (Ucq.of_cqs [ t4; t5 ])));
  let general = Bgp.make [ v "x"; v "k" ] [ Bgp.atom (v "x") (c typ) (v "k") ] in
  let specific =
    Bgp.make [ v "x"; v "k" ]
      [ Bgp.atom (v "x") (c typ) (v "k"); Bgp.atom (v "x") (c (u "p")) (v "w") ]
  in
  Alcotest.(check int) "specific absorbed" 1
    (Ucq.cardinal (Containment.minimize (Ucq.of_cqs [ general; specific ])))

(* ---- minimize edge cases ---- *)

let test_minimize_single_disjunct () =
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  let m = Containment.minimize (Ucq.of_cqs [ q ]) in
  Alcotest.(check int) "single disjunct survives" 1 (Ucq.cardinal m);
  Alcotest.(check bool) "unchanged" true (Bgp.equal q (List.hd (Ucq.disjuncts m)))

let test_minimize_duplicate_atoms_equivalent () =
  (* A disjunct with a duplicated atom is equivalent to the single-atom
     disjunct; minimize keeps exactly one representative. *)
  let a = Bgp.atom (v "x") (c (u "p")) (v "y") in
  let single = Bgp.make [ v "x" ] [ a ] in
  let doubled =
    Bgp.make [ v "x" ] [ a; Bgp.atom (v "x") (c (u "p")) (v "z") ]
  in
  Alcotest.(check bool) "equivalent" true
    (Containment.equivalent single doubled);
  Alcotest.(check int) "one representative" 1
    (Ucq.cardinal (Containment.minimize (Ucq.of_cqs [ single; doubled ])))

let test_minimize_repeated_head_vars () =
  (* q(x,x) :- x p y and q(x,y) :- x p y are incomparable: the head
     [x,x] cannot map onto [x,y] position-wise nor vice versa. *)
  let rep = Bgp.make [ v "x"; v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  let gen = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  Alcotest.(check bool) "rep ⋢ gen" false (Containment.contained rep gen);
  Alcotest.(check bool) "gen ⋢ rep" false (Containment.contained gen rep);
  Alcotest.(check int) "both stay" 2
    (Ucq.cardinal (Containment.minimize (Ucq.of_cqs [ rep; gen ])))

(* ---- Sparql ---- *)

let test_sparql_parse () =
  let q =
    Sparql.parse
      {|PREFIX ub: <http://ub#>
        SELECT ?x ?y WHERE {
          ?x a ?y .
          ?x ub:degreeFrom <http://univ7.edu> .
          ?x ub:memberOf <http://univ7.edu>
        }|}
  in
  Alcotest.(check int) "three atoms" 3 (List.length q.Bgp.body);
  Alcotest.(check (list string)) "head" [ "x"; "y" ] (Bgp.head_vars q);
  match (List.hd q.Bgp.body).Bgp.p with
  | Bgp.Const p -> Alcotest.(check bool) "a = rdf:type" true (Rdf.Term.equal p typ)
  | Bgp.Var _ -> Alcotest.fail "expected rdf:type"

let test_sparql_literals_and_vars () =
  let q =
    Sparql.parse
      {|SELECT ?x WHERE { ?x ?p "1996" . ?x rdf:type ?y . }|}
  in
  Alcotest.(check int) "two atoms" 2 (List.length q.Bgp.body)

let test_sparql_distinct () =
  let q = Sparql.parse "SELECT DISTINCT ?x WHERE { ?x <p> ?y }" in
  Alcotest.(check (list string)) "head" [ "x" ] (Bgp.head_vars q)

let test_sparql_roundtrip () =
  let q =
    Sparql.parse
      {|SELECT ?x WHERE { ?x <p> "v" . ?x <q> ?z }|}
  in
  let q' = Sparql.parse (Sparql.to_sparql q) in
  Alcotest.(check bool) "roundtrip" true (Bgp.equal q q')

let test_sparql_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects: " ^ src) true
        (try ignore (Sparql.parse src); false
         with Invalid_argument _ -> true))
    [
      "SELECT WHERE { ?x <p> ?y }";
      "SELECT ?x { ?x <p> }";
      "SELECT ?x { ?x unknown:p ?y }";
      "?x <p> ?y";
    ]

(* ---- qcheck properties ---- *)

let gen_const =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> c (u (Printf.sprintf "n%d" i))) (int_bound 5);
        map (fun i -> c (lit (string_of_int i))) (int_bound 2);
      ])

let gen_prop_const = QCheck2.Gen.(map (fun i -> c (u (Printf.sprintf "p%d" i))) (int_bound 3))

(* Connected queries: each atom shares its subject with the previous atom's
   object variable (chain shape), with occasional constants. *)
let gen_connected_query =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* objs =
      list_size (return n)
        (oneof [ return `Var; map (fun c -> `Const c) gen_const ])
    in
    let* props = list_size (return n) gen_prop_const in
    let atoms =
      List.mapi
        (fun i (obj, p) ->
          let s = Bgp.Var (Printf.sprintf "x%d" i) in
          let o =
            match obj with
            | `Var -> Bgp.Var (Printf.sprintf "x%d" (i + 1))
            | `Const cst -> cst
          in
          Bgp.atom s p o)
        (List.combine objs props)
    in
    (* Chain subjects: each atom's subject is the previous (already fixed)
       atom's object when that is a variable, else the previous subject, so
       the query stays connected. *)
    let atoms =
      List.rev
        (List.fold_left
           (fun acc (a : Bgp.atom) ->
             match acc with
             | [] -> [ a ]
             | (prev : Bgp.atom) :: _ ->
                 let s =
                   match prev.Bgp.o with
                   | Bgp.Var _ as pv -> pv
                   | Bgp.Const _ -> prev.Bgp.s
                 in
                 { a with Bgp.s = s } :: acc)
           [] atoms)
    in
    let q0 = { Bgp.head = []; body = atoms } in
    let vars = Bgp.vars q0 in
    let* k = int_range 1 (List.length vars) in
    let head = List.filteri (fun i _ -> i < k) vars in
    return (Bgp.make (List.map (fun x -> v x) head) atoms))

let gen_data_graph =
  QCheck2.Gen.(
    map Rdf.Graph.of_triples
      (list_size (int_bound 30)
         (let* s = int_bound 5 in
          let* p = int_bound 3 in
          let* o = int_bound 5 in
          return
            (tr (u (Printf.sprintf "n%d" s)) (u (Printf.sprintf "p%d" p))
               (u (Printf.sprintf "n%d" o))))))

let prop_canonical_invariant =
  QCheck2.Test.make ~count:300 ~name:"canonical invariant under atom shuffle"
    QCheck2.Gen.(pair gen_connected_query (int_bound 1000))
    (fun (q, seed) ->
      let st = Random.State.make [| seed |] in
      let shuffled =
        let arr = Array.of_list q.Bgp.body in
        for i = Array.length arr - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        { q with Bgp.body = Array.to_list arr }
      in
      Bgp.equal q shuffled)

let prop_eval_head_arity =
  QCheck2.Test.make ~count:300 ~name:"eval rows match head arity"
    QCheck2.Gen.(pair gen_connected_query gen_data_graph)
    (fun (q, g) ->
      let arity = List.length q.Bgp.head in
      List.for_all (fun r -> List.length r = arity) (Bgp.eval g q))

let prop_jucq_identity_covers =
  QCheck2.Test.make ~count:300
    ~name:"JUCQ with identity reformulation = direct evaluation (Thm 3.1 algebra)"
    QCheck2.Gen.(pair gen_connected_query gen_data_graph)
    (fun (q, g) ->
      let covers =
        [ Jucq.ucq_cover q ]
        @ (match Jucq.check_cover q (Jucq.scq_cover q) with
          | Ok () -> [ Jucq.scq_cover q ]
          | Error _ -> [])
      in
      let direct = Bgp.eval g q in
      List.for_all
        (fun cover ->
          let j = Jucq.make ~reformulate:identity_reformulation q cover in
          Jucq.eval g j = direct)
        covers)

let prop_minimize_preserves_answers =
  QCheck2.Test.make ~count:300 ~name:"minimize preserves UCQ answers"
    QCheck2.Gen.(
      pair (list_size (int_range 1 4) gen_connected_query) gen_data_graph)
    (fun (cqs, g) ->
      (* force equal arities by projecting all heads to their first var *)
      let normalized =
        List.map
          (fun (q : Bgp.t) -> Bgp.make [ List.hd q.Bgp.head ] q.Bgp.body)
          cqs
      in
      let ucq = Ucq.of_cqs normalized in
      Ucq.eval g (Containment.minimize ucq) = Ucq.eval g ucq)

(* ---- canonical form: differential against the string-signature
   reference ---- *)

(* The canonical-form implementation that [Bgp.canonical] replaced, kept
   verbatim as the reference: the fast form must agree with it byte for
   byte, since every cache key and UCQ order is built on it. *)
module Reference = struct
  open Bgp

  (* Total parallel renaming: every variable of [q] must be in the mapping's
     domain; all occurrences are replaced in one traversal, so permuting
     renamings cannot capture each other. *)
  let rename_parallel mapping q =
    let term = function
      | Var v -> Var (List.assoc v mapping)
      | Const _ as t -> t
    in
    let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
    { head = List.map term q.head; body = List.map map_atom q.body }

  (* Canonical form: an exact canonicalization of the query modulo renaming
     of non-distinguished (existential) variables and reordering of atoms.
     Distinguished variables are pinned positionally to h0, h1, …; the
     existential variables are then assigned e0, e1, … by

     1. colour refinement: each existential variable gets a signature built
        from its occurrences (position within the atom, the other positions'
        contents, with existential neighbours represented by their current
        colour), iterated until the partition stabilizes; and
     2. exhaustive tie-breaking: within a colour class the assignment that
        yields the lexicographically least sorted body is chosen.  Classes
        are almost always singletons, so the factorial search is vestigial.

     The result is renaming-invariant and order-invariant, which the
     reformulation engines rely on for duplicate elimination. *)
  let canonical q =
    let hv = head_vars q in
    let head_mapping = List.mapi (fun i v -> (v, Printf.sprintf "h%d" i)) hv in
    let evars = List.filter (fun v -> not (List.mem v hv)) (vars q) in
    match evars with
    | [] ->
        let q = rename_parallel head_mapping q in
        { q with body = List.sort_uniq atom_compare q.body }
    | [ only ] ->
        (* Single existential: no symmetry to break. *)
        let q = rename_parallel ((only, "e0") :: head_mapping) q in
        { q with body = List.sort_uniq atom_compare q.body }
    | _ ->
        (* --- colour refinement over existential variables --- *)
        let colour = Hashtbl.create 8 in
        List.iter (fun v -> Hashtbl.replace colour v 0) evars;
        let term_repr self = function
          | Const c -> "c:" ^ Rdf.Term.to_string c
          | Var v -> (
              if String.equal v self then "self"
              else
                match List.assoc_opt v head_mapping with
                | Some h -> "h:" ^ h
                | None -> "e:" ^ string_of_int (Hashtbl.find colour v))
        in
        let signature v =
          let occ =
            List.concat_map
              (fun a ->
                let positions = [ (0, a.s); (1, a.p); (2, a.o) ] in
                if
                  List.exists
                    (fun (_, t) -> pattern_term_equal t (Var v))
                    positions
                then
                  [
                    String.concat "|"
                      (List.map
                         (fun (i, t) ->
                           string_of_int i ^ "=" ^ term_repr v t)
                         positions);
                  ]
                else [])
              q.body
          in
          String.concat ";" (List.sort String.compare occ)
        in
        let refine () =
          let sigs = List.map (fun v -> (v, signature v)) evars in
          let distinct =
            List.sort_uniq String.compare (List.map snd sigs)
          in
          let changed = ref false in
          List.iter
            (fun (v, s) ->
              let rec rank i = function
                | [] -> assert false
                | x :: _ when String.equal x s -> i
                | _ :: rest -> rank (i + 1) rest
              in
              let c = rank 0 distinct in
              if Hashtbl.find colour v <> c then begin
                Hashtbl.replace colour v c;
                changed := true
              end)
            sigs;
          !changed
        in
        let rec iterate n = if n > 0 && refine () then iterate (n - 1) in
        iterate (List.length evars + 2);
        (* --- order colour classes canonically, tie-break exhaustively --- *)
        let classes =
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun v ->
              let key = (Hashtbl.find colour v, signature v) in
              Hashtbl.replace tbl key
                (v :: (Option.value ~default:[] (Hashtbl.find_opt tbl key))))
            evars;
          Hashtbl.fold (fun (_, s) vs acc -> (s, vs) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.map snd
        in
        let rec permutations = function
          | [] -> [ [] ]
          | l ->
              List.concat_map
                (fun x ->
                  List.map (fun rest -> x :: rest)
                    (permutations (List.filter (fun y -> y <> x) l)))
                l
        in
        let orderings =
          (* All concatenations of within-class permutations, class order
             fixed.  Cap the search to avoid pathological blow-ups; queries
             with >6-way symmetric variables fall back to a fixed order
             (costing at worst a missed duplicate). *)
          List.fold_left
            (fun acc cls ->
              let perms =
                if List.length cls > 6 then [ cls ] else permutations cls
              in
              List.concat_map
                (fun prefix -> List.map (fun p -> prefix @ p) perms)
                acc)
            [ [] ] classes
        in
        let candidate ordering =
          let mapping =
            head_mapping
            @ List.mapi (fun i v -> (v, Printf.sprintf "e%d" i)) ordering
          in
          let q' = rename_parallel mapping q in
          { q' with body = List.sort_uniq atom_compare q'.body }
        in
        let better a b =
          let c = List.compare atom_compare a.body b.body in
          if c <> 0 then c < 0
          else List.compare pattern_term_compare a.head b.head < 0
        in
        List.fold_left
          (fun best ordering ->
            let cand = candidate ordering in
            match best with
            | None -> Some cand
            | Some b -> if better cand b then Some cand else best)
          None orderings
        |> Option.get

end

let canonical_agrees q =
  let fast = Bgp.canonical q in
  Bgp.raw_compare fast (Reference.canonical q) = 0
  && Bgp.raw_compare (Bgp.canonical fast) fast = 0

(* An isomorphic copy: atoms shuffled, every variable renamed apart. *)
let scramble st (q : Bgp.t) =
  let body = Array.of_list q.Bgp.body in
  for i = Array.length body - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = body.(i) in
    body.(i) <- body.(j);
    body.(j) <- t
  done;
  let names = Hashtbl.create 8 in
  let term = function
    | Bgp.Var x -> (
        match Hashtbl.find_opt names x with
        | Some y -> Bgp.Var y
        | None ->
            let y =
              Printf.sprintf "z%d_%d" (Random.State.int st 1000)
                (Hashtbl.length names)
            in
            Hashtbl.add names x y;
            Bgp.Var y)
    | Bgp.Const _ as t -> t
  in
  let atoms =
    List.map
      (fun (a : Bgp.atom) -> Bgp.atom (term a.s) (term a.p) (term a.o))
      (Array.to_list body)
  in
  { Bgp.head = List.map term q.head; body = atoms }

(* Small BGPs over a six-variable pool: repeated variables inside atoms,
   property variables, and constants (also in the head). *)
let gen_diff_bgp =
  QCheck2.Gen.(
    let var = map (fun i -> v (Printf.sprintf "x%d" i)) (int_bound 5) in
    let term = frequency [ (3, var); (1, gen_const) ] in
    let prop = frequency [ (3, gen_prop_const); (1, var) ] in
    let* n = int_range 2 7 in
    let* body =
      list_size (return n)
        (let* s = term in
         let* p = prop in
         let* o = term in
         return (Bgp.atom s p o))
    in
    let vars = Array.of_list (Bgp.vars { Bgp.head = []; body }) in
    let head_term =
      if Array.length vars = 0 then gen_const
      else
        frequency
          [ (3, map (fun i -> v vars.(i)) (int_bound (Array.length vars - 1)));
            (1, gen_const) ]
    in
    let* head = list_size (int_bound 3) head_term in
    return (Bgp.make head body))

(* Seven interchangeable existentials around one centre (a head variable,
   an existential or a constant): a colour class above the six-variable
   tie-break cap. *)
let gen_symmetric_bgp =
  QCheck2.Gen.(
    let* centre = oneofl [ `Head; `Existential; `Const ] in
    let* outward = bool in
    let* p = gen_prop_const in
    let* head_const = bool in
    let hub =
      match centre with
      | `Head | `Existential -> v "c"
      | `Const -> c (u "n0")
    in
    let body =
      List.init 7 (fun i ->
          let e = v (Printf.sprintf "e%d" i) in
          if outward then Bgp.atom hub p e else Bgp.atom e p hub)
    in
    let head =
      (match centre with `Head -> [ v "c" ] | `Existential | `Const -> [])
      @ if head_const then [ c (lit "1") ] else []
    in
    return (Bgp.make head body))

let prop_canonical_matches_reference =
  QCheck2.Test.make ~count:1000
    ~name:"canonical = reference on small and symmetric BGPs"
    QCheck2.Gen.(
      pair (frequency [ (4, gen_diff_bgp); (1, gen_symmetric_bgp) ]) int)
    (fun (q, seed) ->
      canonical_agrees q
      && canonical_agrees (scramble (Random.State.make [| seed |]) q))

(* Every reformulated disjunct of every fragment of the workload queries
   (at most 500 covers per query), plus LUBM Q28's whole reformulation,
   each scrambled, canonicalized by both implementations. *)
let test_canonical_workload_reference () =
  let mismatches = ref 0 and checked = ref 0 in
  let st = Random.State.make [| 13 |] in
  let check_ucq u =
    List.iter
      (fun d ->
        incr checked;
        if not (canonical_agrees (scramble st d)) then incr mismatches)
      (Ucq.disjuncts u)
  in
  let budget = { Rqa.Cover_space.max_covers = 500; max_millis = 60_000.0 } in
  List.iter
    (fun (schema, queries) ->
      let refm = Reformulation.Reformulate.create schema in
      List.iter
        (fun (_, q) ->
          let { Rqa.Cover_space.covers; _ } =
            Rqa.Cover_space.enumerate ~budget q
          in
          List.concat_map
            (fun cover -> List.map (Jucq.cover_query q cover) cover)
            covers
          |> List.sort_uniq Bgp.raw_compare
          |> List.iter (fun f ->
                 match Reformulation.Reformulate.reformulate refm f with
                 | u -> check_ucq u
                 | exception Reformulation.Reformulate.Too_large _ -> ()))
        queries)
    [
      (Workloads.Lubm.schema, Workloads.Lubm.queries);
      (Workloads.Dblp.schema, Workloads.Dblp.queries);
    ];
  check_ucq
    (Reformulation.Reformulate.reformulate
       (Reformulation.Reformulate.create Workloads.Lubm.schema)
       (Workloads.Lubm.query "Q28"));
  Alcotest.(check bool) "disjuncts checked" true (!checked > 300_000);
  Alcotest.(check int) "mismatches" 0 !mismatches

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_canonical_invariant;
      prop_eval_head_arity;
      prop_jucq_identity_covers;
      prop_minimize_preserves_answers;
      prop_canonical_matches_reference;
    ]

let () =
  Alcotest.run "query"
    [
      ( "bgp",
        [
          Alcotest.test_case "head validation" `Quick test_make_validates_head;
          Alcotest.test_case "empty body" `Quick test_make_rejects_empty_body;
          Alcotest.test_case "vars order" `Quick test_vars_order;
          Alcotest.test_case "normalize bnodes" `Quick test_normalize_bnodes;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "isomorphism" `Quick test_canonical_iso;
          Alcotest.test_case "heads distinguish" `Quick test_canonical_distinguishes_head;
          Alcotest.test_case "swapped existentials" `Quick test_canonical_swapped_existentials;
          Alcotest.test_case "workload disjuncts = reference" `Slow
            test_canonical_workload_reference;
        ] );
      ( "eval",
        [
          Alcotest.test_case "incomplete without reasoning" `Quick test_eval_incomplete_without_reasoning;
          Alcotest.test_case "paper example 3" `Quick test_answer_example3;
          Alcotest.test_case "constants in head" `Quick test_eval_constants_in_head;
          Alcotest.test_case "set semantics" `Quick test_eval_set_semantics;
        ] );
      ( "ucq",
        [
          Alcotest.test_case "dedup" `Quick test_ucq_dedup;
          Alcotest.test_case "arity mismatch" `Quick test_ucq_arity_mismatch;
          Alcotest.test_case "union evaluation" `Quick test_ucq_eval_union;
        ] );
      ( "jucq",
        [
          Alcotest.test_case "valid covers" `Quick test_cover_check_valid;
          Alcotest.test_case "invalid covers" `Quick test_cover_check_invalid;
          Alcotest.test_case "fragment connectivity" `Quick test_cover_disconnected_fragment;
          Alcotest.test_case "duplicate atoms" `Quick test_cover_check_duplicate_atoms;
          Alcotest.test_case "single-atom query" `Quick test_cover_check_single_atom;
          Alcotest.test_case "included fragment" `Quick test_cover_check_included_fragment;
          Alcotest.test_case "repeated head vars" `Quick test_cover_query_repeated_head_vars;
          Alcotest.test_case "cover query (Def 3.4)" `Quick test_cover_query_def34;
          Alcotest.test_case "join var in heads" `Quick test_cover_query_join_var_not_distinguished;
          Alcotest.test_case "JUCQ eval = direct" `Quick test_jucq_eval_equals_direct;
          Alcotest.test_case "stats" `Quick test_jucq_stats;
        ] );
      ( "containment",
        [
          Alcotest.test_case "basic" `Quick test_containment_basic;
          Alcotest.test_case "head sensitivity" `Quick test_containment_head_sensitive;
          Alcotest.test_case "constants" `Quick test_containment_constants;
          Alcotest.test_case "equivalence" `Quick test_containment_equivalent_iso;
          Alcotest.test_case "minimize" `Quick test_minimize_example4;
          Alcotest.test_case "minimize single disjunct" `Quick test_minimize_single_disjunct;
          Alcotest.test_case "minimize duplicate atoms" `Quick test_minimize_duplicate_atoms_equivalent;
          Alcotest.test_case "minimize repeated head vars" `Quick test_minimize_repeated_head_vars;
        ] );
      ( "sparql",
        [
          Alcotest.test_case "parse" `Quick test_sparql_parse;
          Alcotest.test_case "literals and property vars" `Quick test_sparql_literals_and_vars;
          Alcotest.test_case "DISTINCT accepted" `Quick test_sparql_distinct;
          Alcotest.test_case "roundtrip" `Quick test_sparql_roundtrip;
          Alcotest.test_case "errors" `Quick test_sparql_errors;
        ] );
      ("properties", qcheck_cases);
    ]
