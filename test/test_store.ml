(* Tests for the storage substrate: int vectors, the dictionary-encoded
   triple table with its six access paths, and the statistics module. *)

let u s = Rdf.Term.uri s
let lit s = Rdf.Term.literal s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Query.Bgp.Var x
let c t = Query.Bgp.Const t

(* ---- Intvec ---- *)

let test_intvec_push_get () =
  let vec = Store.Intvec.create ~capacity:2 () in
  for i = 0 to 99 do
    Store.Intvec.push vec (i * i)
  done;
  Alcotest.(check int) "length" 100 (Store.Intvec.length vec);
  Alcotest.(check int) "get 10" 100 (Store.Intvec.get vec 10);
  Store.Intvec.set vec 10 7;
  Alcotest.(check int) "set" 7 (Store.Intvec.get vec 10)

let test_intvec_bounds () =
  let vec = Store.Intvec.of_array [| 1; 2; 3 |] in
  Alcotest.(check bool) "oob raises" true
    (try ignore (Store.Intvec.get vec 3); false
     with Invalid_argument _ -> true)

let test_intvec_roundtrip () =
  let a = Array.init 57 (fun i -> 3 * i) in
  Alcotest.(check (array int)) "roundtrip" a
    (Store.Intvec.to_array (Store.Intvec.of_array a))

let test_intvec_index_swap_remove () =
  let vec = Store.Intvec.of_array [| 4; 7; 9; 7 |] in
  Alcotest.(check int) "first occurrence" 1 (Store.Intvec.index vec 7);
  Alcotest.(check int) "absent" (-1) (Store.Intvec.index vec 5);
  Alcotest.(check bool) "removed" true (Store.Intvec.swap_remove_value vec 4);
  Alcotest.(check (array int)) "last moved in" [| 7; 7; 9 |]
    (Store.Intvec.to_array vec);
  Alcotest.(check bool) "absent not removed" false
    (Store.Intvec.swap_remove_value vec 4);
  ignore (Store.Intvec.pop vec : int);
  Alcotest.(check int) "popped cell not searched" (-1)
    (Store.Intvec.index vec 9)

(* ---- Encoded_store ---- *)

let sample_schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "A", u "B");
      Rdf.Schema.Subproperty (u "p", u "q");
      Rdf.Schema.Domain (u "p", u "A");
      Rdf.Schema.Range (u "p", u "B");
    ]

let sample_store () =
  let s = Store.Encoded_store.create sample_schema in
  List.iter (Store.Encoded_store.insert s)
    [
      tr (u "x1") typ (u "A");
      tr (u "x1") (u "p") (u "y1");
      tr (u "x2") (u "p") (u "y1");
      tr (u "x2") (u "q") (u "y2");
      tr (u "x3") (u "r") (lit "42");
    ];
  s

let code st term =
  match Store.Encoded_store.encode_term st term with
  | Some code -> code
  | None -> Alcotest.fail ("missing term: " ^ Rdf.Term.to_string term)

let test_store_insert_dedup () =
  let s = sample_store () in
  Alcotest.(check int) "size" 5 (Store.Encoded_store.size s);
  Store.Encoded_store.insert s (tr (u "x1") typ (u "A"));
  Alcotest.(check int) "duplicate ignored" 5 (Store.Encoded_store.size s)

let test_store_rejects_constraints () =
  let s = sample_store () in
  Alcotest.(check bool) "constraint raises" true
    (try
       Store.Encoded_store.insert s (tr (u "A") Rdf.Vocab.rdfs_subclassof (u "B"));
       false
     with Invalid_argument _ -> true)

let test_store_access_paths () =
  let s = sample_store () in
  let p = code s (u "p") in
  let x2 = code s (u "x2") in
  let y1 = code s (u "y1") in
  let count ps pp po = Store.Encoded_store.count s { Store.Encoded_store.ps; pp; po } in
  Alcotest.(check int) "by property" 2 (count None (Some p) None);
  Alcotest.(check int) "by subject" 2 (count (Some x2) None None);
  Alcotest.(check int) "by object" 2 (count None None (Some y1));
  Alcotest.(check int) "by subject+property" 1 (count (Some x2) (Some p) None);
  Alcotest.(check int) "by property+object" 2 (count None (Some p) (Some y1));
  Alcotest.(check int) "by subject+object" 1 (count (Some x2) None (Some y1));
  Alcotest.(check int) "full triple" 1 (count (Some x2) (Some p) (Some y1));
  Alcotest.(check int) "wildcard" 5 (count None None None)

let test_store_graph_roundtrip () =
  let s = sample_store () in
  let g = Store.Encoded_store.to_graph s in
  Alcotest.(check int) "graph size" 5 (Rdf.Graph.size g);
  let s2 = Store.Encoded_store.of_graph g in
  Alcotest.(check int) "re-encoded size" 5 (Store.Encoded_store.size s2)

let test_store_saturate () =
  let s = sample_store () in
  let sat = Store.Encoded_store.saturate s in
  let g_expected = Rdf.Saturation.saturate (Store.Encoded_store.to_graph s) in
  Alcotest.(check int) "saturated size"
    (Rdf.Graph.size g_expected)
    (Store.Encoded_store.size sat);
  Alcotest.(check bool) "same graph" true
    (Rdf.Graph.equal g_expected (Store.Encoded_store.to_graph sat));
  (* x1 p y1 entails x1 q y1, x1 type A (domain), y1 type B (range) *)
  let co term = code sat term in
  Alcotest.(check bool) "subproperty fact" true
    (Store.Encoded_store.mem_code sat (co (u "x1")) (co (u "q")) (co (u "y1")))

(* ---- Statistics ---- *)

let test_stats_atom_count () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  Alcotest.(check int) "p wildcard" 2
    (Store.Statistics.atom_count stats (Query.Bgp.atom (v "x") (c (u "p")) (v "y")));
  Alcotest.(check int) "absent constant" 0
    (Store.Statistics.atom_count stats
       (Query.Bgp.atom (v "x") (c (u "nosuch")) (v "y")));
  Alcotest.(check int) "bound object" 2
    (Store.Statistics.atom_count stats
       (Query.Bgp.atom (v "x") (c (u "p")) (c (u "y1"))))

let test_stats_repeated_var () =
  let s = Store.Encoded_store.create Rdf.Schema.empty in
  List.iter (Store.Encoded_store.insert s)
    [ tr (u "a") (u "p") (u "a"); tr (u "a") (u "p") (u "b") ];
  let stats = Store.Statistics.create s in
  Alcotest.(check int) "x p x" 1
    (Store.Statistics.atom_count stats (Query.Bgp.atom (v "x") (c (u "p")) (v "x")))

let test_stats_ndv () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let p = code s (u "p") in
  Alcotest.(check int) "ndv subjects of p" 2
    (Store.Statistics.ndv stats ~prop:p `Subject);
  Alcotest.(check int) "ndv objects of p" 1
    (Store.Statistics.ndv stats ~prop:p `Object)

let test_stats_ndv_after_relabel () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let p = code s (u "p") in
  (* x1 p y1 is not the last triple: the delete relabels the last one *)
  Alcotest.(check bool) "deleted" true
    (Store.Encoded_store.delete s (tr (u "x1") (u "p") (u "y1")));
  Alcotest.(check int) "ndv subjects of p" 1
    (Store.Statistics.ndv stats ~prop:p `Subject);
  Alcotest.(check int) "ndv objects of p" 1
    (Store.Statistics.ndv stats ~prop:p `Object);
  Alcotest.(check int) "distinct subjects" 3
    (Store.Statistics.global_distinct stats `Subject);
  ignore (Store.Encoded_store.delete s (tr (u "x2") (u "p") (u "y1")));
  Alcotest.(check int) "p gone" 0
    (Store.Encoded_store.property_ndv s ~prop:p `Subject);
  Alcotest.(check int) "ndv floor" 1
    (Store.Statistics.ndv stats ~prop:p `Object)

let test_stats_cq_estimate () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let single =
    Query.Bgp.make [ v "x" ] [ Query.Bgp.atom (v "x") (c (u "p")) (v "y") ]
  in
  Alcotest.(check (float 0.001)) "single atom exact" 2.0
    (Store.Statistics.cq_cardinality stats single);
  let join =
    Query.Bgp.make [ v "x" ]
      [
        Query.Bgp.atom (v "x") (c (u "p")) (v "y");
        Query.Bgp.atom (v "x") (c (u "q")) (v "z");
      ]
  in
  (* 2 × 1 / max(ndv_s(p)=2, ndv_s(q)=1) = 1 *)
  Alcotest.(check (float 0.001)) "join estimate" 1.0
    (Store.Statistics.cq_cardinality stats join);
  let empty =
    Query.Bgp.make [ v "x" ] [ Query.Bgp.atom (v "x") (c (u "nosuch")) (v "y") ]
  in
  Alcotest.(check (float 0.001)) "empty atom" 0.0
    (Store.Statistics.cq_cardinality stats empty)

let test_stats_invalidation_on_insert () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let atom = Query.Bgp.atom (v "x") (c (u "p")) (v "y") in
  Alcotest.(check int) "before" 2 (Store.Statistics.atom_count stats atom);
  Alcotest.(check (float 0.001)) "cq before" 2.0
    (Store.Statistics.cq_cardinality stats
       (Query.Bgp.make [ v "x" ] [ atom ]));
  Store.Encoded_store.insert s (tr (u "x9") (u "p") (u "y9"));
  Alcotest.(check int) "count after insert" 3
    (Store.Statistics.atom_count stats atom);
  Alcotest.(check (float 0.001)) "cq estimate refreshed" 3.0
    (Store.Statistics.cq_cardinality stats
       (Query.Bgp.make [ v "x" ] [ atom ]))

(* ---- Statistics: the estimate cache ---- *)

let bits =
  Alcotest.testable
    (fun fmt x -> Format.fprintf fmt "%h" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

(* Three properties whose estimate depends on the atom order in the last
   bit: [pa] 1 triple over 1 subject, [pb] 3 over 3, [pc] 7 over 5.  In
   order a, b, c a star on the subject estimates 1.4; in order c, b, a
   1.4000000000000001. *)
let order_store () =
  let s = Store.Encoded_store.create Rdf.Schema.empty in
  let add sub prop obj = Store.Encoded_store.insert s (tr (u sub) (u prop) (u obj)) in
  add "s1" "pa" "o";
  List.iter (fun sub -> add sub "pb" "o") [ "s1"; "s2"; "s3" ];
  List.iter
    (fun (sub, obj) -> add sub "pc" obj)
    [ ("s1", "o1"); ("s1", "o2"); ("s2", "o1"); ("s2", "o2"); ("s3", "o1");
      ("s4", "o1"); ("s5", "o1") ];
  s

let star ?(extra_head = []) x props =
  Query.Bgp.make
    (v x :: extra_head)
    (List.mapi (fun i p -> Query.Bgp.atom (v x) (c (u p)) (v (x ^ string_of_int i))) props)

let forward = [ "pa"; "pb"; "pc" ]
let backward = [ "pc"; "pb"; "pa" ]
let est_forward = 1.4
let est_backward = 1.4000000000000001

(* A disjunct (canonical, atoms in forward order) and a [cq_cardinality]
   call on a backward-ordered isomorphic CQ share one entry: whichever is
   computed first is what both read. *)
let test_stats_cache_first_wins () =
  let s = order_store () in
  let disjunct = Query.Ucq.of_cqs [ star "x" backward ] in
  let reordered = star "y" backward in
  Alcotest.(check bits) "precondition: orders differ" est_forward
    (Store.Statistics.ucq_cardinality (Store.Statistics.create s) disjunct);
  Alcotest.(check bits) "precondition: backward" est_backward
    (Store.Statistics.cq_cardinality (Store.Statistics.create s) reordered);
  let stats = Store.Statistics.create s in
  ignore (Store.Statistics.ucq_cardinality stats disjunct : float);
  Alcotest.(check bits) "disjunct first" est_forward
    (Store.Statistics.cq_cardinality stats reordered);
  let stats = Store.Statistics.create s in
  ignore (Store.Statistics.cq_cardinality stats reordered : float);
  Alcotest.(check bits) "cq first" est_backward
    (Store.Statistics.ucq_cardinality stats disjunct);
  Alcotest.(check bits) "cq first (volume pass)" est_backward
    (snd (Store.Statistics.ucq_volume_and_cardinality stats disjunct))

(* Head constants absent from the dictionary are part of the key: two
   of them keep two entries, one of them twice shares. *)
let test_stats_cache_absent_head () =
  let s = order_store () in
  let stats = Store.Statistics.create s in
  let head k = [ c (u k) ] in
  ignore
    (Store.Statistics.cq_cardinality stats
       (star ~extra_head:(head "absent1") "x" forward) : float);
  Alcotest.(check bits) "other absent constant: own entry" est_backward
    (Store.Statistics.cq_cardinality stats
       (star ~extra_head:(head "absent2") "x" backward));
  Alcotest.(check bits) "same absent constant: shared entry" est_forward
    (Store.Statistics.cq_cardinality stats
       (star ~extra_head:(head "absent1") "z" backward))

let test_stats_absent_body_constant () =
  let s = order_store () in
  let stats = Store.Statistics.create s in
  let q =
    Query.Bgp.make [ v "x" ]
      [ Query.Bgp.atom (v "x") (c (u "pa")) (v "y");
        Query.Bgp.atom (v "y") (c (u "pb")) (c (u "nosuch")) ]
  in
  Alcotest.(check bits) "cq" 0.0 (Store.Statistics.cq_cardinality stats q);
  let volume, card =
    Store.Statistics.ucq_volume_and_cardinality (Store.Statistics.create s)
      (Query.Ucq.of_cqs [ q ])
  in
  Alcotest.(check bits) "ucq" 0.0 card;
  Alcotest.(check bits) "volume counts the present atom" 1.0 volume

(* An atom with a repeated variable counts only the triples whose two
   positions agree, in every estimation path. *)
let test_stats_repeated_var_estimates () =
  let s = Store.Encoded_store.create Rdf.Schema.empty in
  List.iter (Store.Encoded_store.insert s)
    [ tr (u "a") (u "p") (u "a"); tr (u "a") (u "p") (u "b");
      tr (u "b") (u "p") (u "b"); tr (u "p") (u "p") (u "c") ];
  let stats = Store.Statistics.create s in
  let xpx = Query.Bgp.make [ v "x" ] [ Query.Bgp.atom (v "x") (c (u "p")) (v "x") ] in
  let xxy =
    Query.Bgp.make [ v "x" ] [ Query.Bgp.atom (v "x") (v "x") (v "y") ]
  in
  Alcotest.(check bits) "x p x" 2.0 (Store.Statistics.cq_cardinality stats xpx);
  Alcotest.(check bits) "x x y" 1.0 (Store.Statistics.cq_cardinality stats xxy);
  let volume, card =
    Store.Statistics.ucq_volume_and_cardinality (Store.Statistics.create s)
      (Query.Ucq.of_cqs [ xpx ])
  in
  Alcotest.(check bits) "volume" 2.0 volume;
  Alcotest.(check bits) "ucq" 2.0 card

(* ---- Snapshot ---- *)

let test_snapshot_roundtrip () =
  let s = sample_store () in
  let path = Filename.temp_file "rqa" ".snap" in
  Store.Snapshot.save path s;
  let s2 = Store.Snapshot.load path in
  Sys.remove path;
  Alcotest.(check int) "size" (Store.Encoded_store.size s)
    (Store.Encoded_store.size s2);
  Alcotest.(check bool) "same graph" true
    (Rdf.Graph.equal
       (Store.Encoded_store.to_graph s)
       (Store.Encoded_store.to_graph s2));
  (* codes are preserved, so pattern counts agree *)
  let p = code s (u "p") in
  Alcotest.(check int) "same posting" 
    (Store.Encoded_store.count s { Store.Encoded_store.ps = None; pp = Some p; po = None })
    (Store.Encoded_store.count s2 { Store.Encoded_store.ps = None; pp = Some p; po = None })

let test_snapshot_bad_tag () =
  let path = Filename.temp_file "rqa" ".snap" in
  let oc = open_out path in
  output_string oc "not a snapshot at all";
  close_out oc;
  let raised =
    try ignore (Store.Snapshot.load path); false
    with Invalid_argument _ -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "bad tag rejected" true raised

(* ---- qcheck: pattern counts agree with naive filtering ---- *)

let gen_term = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "n%d" i)) (int_bound 4))
let gen_prop = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "p%d" i)) (int_bound 2))

let gen_triples =
  QCheck2.Gen.(
    list_size (int_bound 40)
      (let* s = gen_term and* p = gen_prop and* o = gen_term in
       return (tr s p o)))

let prop_count_matches_naive =
  QCheck2.Test.make ~count:200 ~name:"store counts = naive filter counts"
    QCheck2.Gen.(
      tup4 gen_triples (option gen_term) (option gen_prop) (option gen_term))
    (fun (triples, s_opt, p_opt, o_opt) ->
      let store = Store.Encoded_store.create Rdf.Schema.empty in
      List.iter (Store.Encoded_store.insert store) triples;
      let distinct = List.sort_uniq Rdf.Triple.compare triples in
      let naive =
        List.length
          (List.filter
             (fun (t : Rdf.Triple.t) ->
               (match s_opt with None -> true | Some x -> Rdf.Term.equal t.subj x)
               && (match p_opt with None -> true | Some x -> Rdf.Term.equal t.pred x)
               && (match o_opt with None -> true | Some x -> Rdf.Term.equal t.obj x))
             distinct)
      in
      let enc = Store.Encoded_store.encode_term store in
      let resolve = function
        | None -> Some None
        | Some term -> (
            match enc term with None -> None | Some code -> Some (Some code))
      in
      match (resolve s_opt, resolve p_opt, resolve o_opt) with
      | Some ps, Some pp, Some po ->
          Store.Encoded_store.count store { Store.Encoded_store.ps; pp; po }
          = naive
      | _ -> naive = 0)

let prop_saturate_matches_graph_saturation =
  QCheck2.Test.make ~count:100 ~name:"store saturation = graph saturation"
    QCheck2.Gen.(
      pair gen_triples
        (list_size (int_bound 4)
           (oneof
              [
                map2 (fun a b -> Rdf.Schema.Subclass (a, b)) gen_term gen_term;
                map2 (fun p cl -> Rdf.Schema.Domain (p, cl)) gen_prop gen_term;
                map2 (fun p cl -> Rdf.Schema.Range (p, cl)) gen_prop gen_term;
                map2 (fun a b -> Rdf.Schema.Subproperty (a, b)) gen_prop gen_prop;
              ])))
    (fun (triples, constrs) ->
      let schema = Rdf.Schema.of_constraints constrs in
      let store = Store.Encoded_store.create schema in
      List.iter (Store.Encoded_store.insert store) triples;
      let sat_store = Store.Encoded_store.saturate store in
      let sat_graph =
        Rdf.Saturation.saturate (Rdf.Graph.make schema triples)
      in
      Rdf.Graph.equal (Store.Encoded_store.to_graph sat_store) sat_graph)

(* ---- qcheck: store-maintained distinct counts = brute-force recount ---- *)

(* Every counter the store maintains, recounted from its columns: for each
   dictionary code, its subject and object NDV as a property, and the
   store-wide distinct s/p/o counts. *)
let counters_match_recount st =
  let module Es = Store.Encoded_store in
  let codes = Rdf.Dictionary.cardinal (Es.dictionary st) in
  let subj = Array.init codes (fun _ -> Hashtbl.create 4)
  and obj = Array.init codes (fun _ -> Hashtbl.create 4) in
  let ss = Hashtbl.create 16 and ps = Hashtbl.create 4 and os = Hashtbl.create 16 in
  for i = 0 to Es.size st - 1 do
    let s = Es.subject st i and p = Es.property st i and o = Es.obj st i in
    Hashtbl.replace subj.(p) s ();
    Hashtbl.replace obj.(p) o ();
    Hashtbl.replace ss s ();
    Hashtbl.replace ps p ();
    Hashtbl.replace os o ()
  done;
  Es.distinct st `Subject = Hashtbl.length ss
  && Es.distinct st `Property = Hashtbl.length ps
  && Es.distinct st `Object = Hashtbl.length os
  && List.for_all
       (fun prop ->
         Es.property_ndv st ~prop `Subject = Hashtbl.length subj.(prop)
         && Es.property_ndv st ~prop `Object = Hashtbl.length obj.(prop))
       (List.init codes Fun.id)

(* Random insert/delete batches over a small term space, so deletes often
   hit a stored triple that is not the last one (the swap-remove relabel
   path); the odd schema constraint checks that constraint triples leave
   the counters alone. *)
let gen_batches =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (pair bool
         (list_size (int_bound 12)
            (frequency
               [
                 ( 9,
                   let* s = gen_term and* p = gen_prop and* o = gen_term in
                   return (tr s p o) );
                 ( 1,
                   map2
                     (fun a b -> tr a Rdf.Vocab.rdfs_subclassof b)
                     gen_term gen_term );
               ]))))

let prop_counters_match_recount =
  QCheck2.Test.make ~count:200
    ~name:"store NDV and distinct counts = brute-force recount" gen_batches
    (fun batches ->
      let module Es = Store.Encoded_store in
      let st = Es.create Rdf.Schema.empty in
      List.for_all
        (fun (ins, triples) ->
          ignore
            ((if ins then Es.insert_triples else Es.delete_triples) st triples);
          counters_match_recount st)
        batches
      && begin
           let path = Filename.temp_file "rqa" ".snap" in
           Store.Snapshot.save path st;
           let loaded = Store.Snapshot.load path in
           Sys.remove path;
           counters_match_recount loaded
         end
      && counters_match_recount (Es.saturate st))

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_count_matches_naive;
      prop_saturate_matches_graph_saturation;
      prop_counters_match_recount;
    ]

let () =
  Alcotest.run "store"
    [
      ( "intvec",
        [
          Alcotest.test_case "push/get/set" `Quick test_intvec_push_get;
          Alcotest.test_case "bounds" `Quick test_intvec_bounds;
          Alcotest.test_case "roundtrip" `Quick test_intvec_roundtrip;
          Alcotest.test_case "index and swap-remove" `Quick
            test_intvec_index_swap_remove;
        ] );
      ( "encoded_store",
        [
          Alcotest.test_case "insert dedup" `Quick test_store_insert_dedup;
          Alcotest.test_case "rejects constraints" `Quick test_store_rejects_constraints;
          Alcotest.test_case "six access paths" `Quick test_store_access_paths;
          Alcotest.test_case "graph roundtrip" `Quick test_store_graph_roundtrip;
          Alcotest.test_case "saturation" `Quick test_store_saturate;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "bad tag" `Quick test_snapshot_bad_tag;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "atom counts" `Quick test_stats_atom_count;
          Alcotest.test_case "repeated variables" `Quick test_stats_repeated_var;
          Alcotest.test_case "ndv" `Quick test_stats_ndv;
          Alcotest.test_case "ndv after swap-remove" `Quick
            test_stats_ndv_after_relabel;
          Alcotest.test_case "cq estimates" `Quick test_stats_cq_estimate;
          Alcotest.test_case "invalidation on insert" `Quick test_stats_invalidation_on_insert;
          Alcotest.test_case "cache: first computation wins" `Quick
            test_stats_cache_first_wins;
          Alcotest.test_case "cache: absent head constants" `Quick
            test_stats_cache_absent_head;
          Alcotest.test_case "absent body constant" `Quick
            test_stats_absent_body_constant;
          Alcotest.test_case "repeated variables in estimates" `Quick
            test_stats_repeated_var_estimates;
        ] );
      ("properties", qcheck_cases);
    ]
