(* Differential tests for morsel-driven intra-operator parallelism: the
   partitioned hash join and the partitioned duplicate elimination must be
   bit-identical to their sequential counterparts — same rows in the same
   order, same charge totals, same budget-failure points — at every jobs
   count and morsel size, and the traced per-operator counters (hash
   inserts/collisions, work units) must report the same totals on the
   partitioned path as on the sequential one. *)

open Query
module Relation = Engine.Relation

(* Real multi-domain execution even on small CI machines (see test_par). *)
let () = Unix.putenv "RDFQA_JOBS_FORCE" "1"

let with_jobs j f =
  Fun.protect ~finally:(fun () -> Par.set_jobs (Par.env_jobs ())) (fun () ->
      Par.set_jobs j;
      f ())

(* [Profile.morsel_size] consults RDFQA_MORSEL at every call, so setting it
   mid-test retunes the split granularity of already-created engines. *)
let with_morsel m f =
  let old = Option.value (Sys.getenv_opt "RDFQA_MORSEL") ~default:"" in
  Unix.putenv "RDFQA_MORSEL" (string_of_int m);
  Fun.protect ~finally:(fun () -> Unix.putenv "RDFQA_MORSEL" old) f

let morsel_sizes = [ 1; 7; 64; 1_000_000 ]
let jobs_levels = [ 1; 2; 4 ]

(* ---- direct operator fixtures ---- *)

let tiny_store =
  lazy
    (Store.Encoded_store.of_graph
       (Rdf.Graph.make (Rdf.Schema.of_constraints []) []))

let rel_of_rows cols rows =
  let r = Relation.create ~cols:(List.length cols) in
  List.iter (fun row -> Relation.append r (Array.of_list row)) rows;
  { Engine.Executor.columns = cols; rel = r }

(* Everything observable about one join: output schema and rows in order,
   the engine's charge total, and the operator counters — or the exact
   failure with the charge total at the point it fired. *)
let join_outcome ?profile a b =
  let t = Engine.Executor.create ?profile (Lazy.force tiny_store) in
  let s = Obs.Op_stats.make Obs.Op_stats.Hash_join in
  match Engine.Executor.hash_join ~stats:s t a b with
  | r ->
      Ok
        ( r.Engine.Executor.columns,
          Relation.to_list r.Engine.Executor.rel,
          Engine.Executor.total_operations t,
          ( s.Obs.Op_stats.rows_in,
            s.Obs.Op_stats.rows_out,
            s.Obs.Op_stats.index_probes,
            s.Obs.Op_stats.hash_inserts,
            s.Obs.Op_stats.hash_collisions,
            s.Obs.Op_stats.work_units ) )
  | exception Engine.Profile.Engine_failure { engine; reason } ->
      Error (engine, reason, Engine.Executor.total_operations t)

let check_join_matches_sequential ~msg ?profile a b =
  List.iter
    (fun m ->
      with_morsel m @@ fun () ->
      let baseline = with_jobs 1 (fun () -> join_outcome ?profile a b) in
      List.iter
        (fun j ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: morsel=%d jobs=%d matches jobs=1" msg m j)
            true
            (with_jobs j (fun () -> join_outcome ?profile a b) = baseline))
        (List.tl jobs_levels))
    morsel_sizes

(* ---- qcheck: random joins across jobs counts and morsel sizes ---- *)

let gen_rows ncols =
  QCheck2.Gen.(list_size (int_bound 40) (list_repeat ncols (int_bound 5)))

let gen_join_inputs =
  QCheck2.Gen.(
    let* nkeys = int_range 1 2 in
    let* extra_a = int_bound 2 and* extra_b = int_bound 2 in
    let keys = List.init nkeys (Printf.sprintf "k%d") in
    (* keys lead in [a] but trail in [b], exercising key positions *)
    let cols_a = keys @ List.init extra_a (Printf.sprintf "a%d") in
    let cols_b = List.init extra_b (Printf.sprintf "b%d") @ keys in
    let* rows_a = gen_rows (List.length cols_a)
    and* rows_b = gen_rows (List.length cols_b) in
    return ((cols_a, rows_a), (cols_b, rows_b)))

let prop_partitioned_join_identical =
  QCheck2.Test.make ~count:30
    ~name:"partitioned hash join = sequential on random relations"
    gen_join_inputs
    (fun ((cols_a, rows_a), (cols_b, rows_b)) ->
      let a = rel_of_rows cols_a rows_a and b = rel_of_rows cols_b rows_b in
      List.for_all
        (fun m ->
          with_morsel m @@ fun () ->
          let baseline = with_jobs 1 (fun () -> join_outcome a b) in
          List.for_all
            (fun j -> with_jobs j (fun () -> join_outcome a b) = baseline)
            (List.tl jobs_levels))
        morsel_sizes)

let gen_dedup_rel =
  QCheck2.Gen.(
    let* ncols = int_bound 3 in
    let* rows = gen_rows ncols in
    return (ncols, rows))

let prop_partitioned_dedup_identical =
  QCheck2.Test.make ~count:40
    ~name:"partitioned dedup = Relation.dedup on random relations"
    gen_dedup_rel
    (fun (ncols, rows) ->
      let rel = Relation.create ~cols:ncols in
      List.iter (fun row -> Relation.append rel (Array.of_list row)) rows;
      let expected = Relation.to_list (Relation.dedup rel) in
      List.for_all
        (fun j ->
          let pool = Par.create ~jobs:j in
          Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
          List.for_all
            (fun m ->
              Relation.to_list (Engine.Morsel.dedup pool ~morsel:m rel)
              = expected)
            morsel_sizes)
        jobs_levels)

(* ---- deterministic operator tests ---- *)

(* Keys 0..9, several matches per key: enough rows that morsel=1 fans the
   probe out into many morsels and every partition sees work. *)
let join_a =
  rel_of_rows [ "k"; "a" ] (List.init 60 (fun i -> [ i mod 10; i ]))

let join_b =
  rel_of_rows [ "b"; "k" ] (List.init 24 (fun i -> [ 100 + i; i mod 12 ]))

let test_join_differential () =
  check_join_matches_sequential ~msg:"join 60x24" join_a join_b;
  (* degenerate shapes: empty build, empty probe *)
  let empty = rel_of_rows [ "k"; "z" ] [] in
  check_join_matches_sequential ~msg:"empty probe side" empty join_b;
  check_join_matches_sequential ~msg:"empty build side" join_a empty

let test_join_parallel_path_engages () =
  with_morsel 1 @@ fun () ->
  with_jobs 4 @@ fun () ->
  let t = Engine.Executor.create (Lazy.force tiny_store) in
  let s = Obs.Op_stats.make Obs.Op_stats.Hash_join in
  let r = Engine.Executor.hash_join ~stats:s t join_a join_b in
  Alcotest.(check bool) "produced rows" true
    (Relation.rows r.Engine.Executor.rel > 0);
  Alcotest.(check bool) "probe actually split into morsels" true
    (s.Obs.Op_stats.morsels > 0);
  Alcotest.(check bool) "max_worker_rows recorded" true
    (s.Obs.Op_stats.max_worker_rows > 0)

(* Budget failures mid-join: the partitioned probe records its charges and
   the coordinator replays them in canonical order, so the budget must trip
   at the identical operation — same reason, same lifetime total — at every
   jobs count and morsel size. *)
let test_join_budget_failure () =
  let profile =
    {
      Engine.Profile.postgres_like with
      Engine.Profile.name = "tiny-join-budget";
      max_operations = 150;
    }
  in
  (* build (24) fits; the probe's 60 row charges + ~144 emit charges
     overrun mid-probe *)
  check_join_matches_sequential ~msg:"budget mid-join" ~profile join_a join_b;
  with_morsel 1 @@ fun () ->
  let r = with_jobs 4 (fun () -> join_outcome ~profile join_a join_b) in
  Alcotest.(check bool) "budget actually trips" true
    (match r with
    | Error (_, Engine.Profile.Operation_budget _, _) -> true
    | _ -> false)

(* ---- full-query traced op-stats equality (S6) ---- *)

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

let schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "GradStudent", u "Student");
      Rdf.Schema.Subclass (u "Student", u "Person");
      Rdf.Schema.Subproperty (u "worksFor", u "memberOf");
      Rdf.Schema.Domain (u "memberOf", u "Person");
      Rdf.Schema.Range (u "memberOf", u "Org");
    ]

let graph =
  let facts =
    List.concat
      (List.init 80 (fun i ->
           let p = u (Printf.sprintf "person%d" i) in
           [
             tr p typ (u (if i mod 3 = 0 then "GradStudent" else "Student"));
             tr p (u "worksFor") (u (Printf.sprintf "org%d" (i mod 4)));
           ]))
  in
  Rdf.Graph.make schema facts

let q3 =
  Bgp.make [ v "x"; v "y" ]
    [
      Bgp.atom (v "x") (c typ) (v "y");
      Bgp.atom (v "x") (c (u "memberOf")) (c (u "org2"));
    ]

(* Per-node totals that must not depend on the parallel split; the split
   descriptors themselves (morsels, max_worker_rows, skew) legitimately
   differ across jobs counts and are excluded. *)
let op_totals root =
  List.rev
    (Obs.Op_stats.fold
       (fun acc ~path n ->
         ( path,
           Obs.Op_stats.kind_name n.Obs.Op_stats.kind,
           n.Obs.Op_stats.label,
           n.Obs.Op_stats.rows_in,
           n.Obs.Op_stats.rows_out,
           n.Obs.Op_stats.index_probes,
           n.Obs.Op_stats.hash_inserts,
           n.Obs.Op_stats.hash_collisions,
           n.Obs.Op_stats.work_units )
         :: acc)
       [] root)

let test_traced_op_totals_equal () =
  with_morsel 1 @@ fun () ->
  let store = Store.Encoded_store.of_graph graph in
  let reformulator = Reformulation.Reformulate.create schema in
  let run j =
    with_jobs j (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
            let sys =
              Rqa.Answering.make ~profile:Engine.Profile.postgres_like
                ~reformulator store
            in
            ignore (Rqa.Answering.answer sys Rqa.Answering.Scq q3);
            match
              Engine.Executor.last_op_stats (Rqa.Answering.engine sys)
            with
            | Some root -> op_totals root
            | None -> []))
  in
  (* discarded warm-up: the first query over a store encodes constants into
     the shared dictionary, shifting later plan statistics *)
  ignore (run 1);
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "trace tree non-empty" true (seq <> []);
  Alcotest.(check bool) "a hash join was traced" true
    (List.exists (fun (_, k, _, _, _, _, _, _, _) -> k = "hash_join") seq);
  Alcotest.(check bool) "jobs=4 op totals = jobs=1" true (par = seq)

(* ---- fused fragment dedup vs relation-then-dedup ----

   A fragment UCQ no longer materializes its pre-dedup rows: each emitted
   row goes straight into one dedup table.  The reference here is the
   pipeline it replaced — append every disjunct's emitted rows to one
   relation, then deduplicate by first occurrence — with that pipeline's
   charges (each disjunct's scan charges plus one unit per pre-dedup row,
   i.e. the sum of each disjunct's own [eval_cq] total) and its
   materialization check after every disjunct on the pre-dedup count.

   Each generated disjunct is a list of rows of one width (0-4); disjunct
   [i]'s row [j] is stored as a subject with one [in_i] edge and one
   [c_k] edge per column, so the CQ
   [q(?c0..) :- ?s in_i tag, ?s c_0 ?c0, ...] emits exactly those rows.
   The engine's emission order within a disjunct comes from evaluating
   the same CQ with its subject variable prepended to the head (every row
   is then distinct, so set semantics keeps emission order) and dropping
   that column. *)

let gen_fused_case =
  QCheck2.Gen.(
    let* w = int_range 0 4 in
    let* k = int_range 1 5 in
    let row = list_repeat w (int_bound 3) in
    let sizes m = list_repeat k (int_bound m) in
    let* disjuncts =
      oneof
        [
          (* random rows over a small domain: duplicates across and within
             disjuncts *)
          list_repeat k (list_size (int_bound 12) row);
          (* one row, repeated everywhere *)
          (let* r = row and* ns = sizes 8 in
           return (List.map (fun n -> List.init n (fun _ -> r)) ns));
          (* globally distinct rows (at width 0 every row is the empty one) *)
          (let* ns = sizes 8 in
           let next = ref 0 in
           return
             (List.map
                (fun n ->
                  List.init n (fun _ ->
                      incr next;
                      List.init w (fun col -> (!next * 5) + col)))
                ns));
          (* empty disjuncts mixed in *)
          list_repeat k
            (oneof [ return []; list_size (int_bound 6) row ]);
        ]
    in
    let* cut = float_bound_inclusive 1.0 in
    return (w, disjuncts, cut))

let print_fused_case (w, ds, cut) =
  Printf.sprintf "width %d, cut %.2f, disjuncts %s" w cut
    (String.concat " | "
       (List.map
          (fun rows ->
            String.concat ";"
              (List.map
                 (fun r -> String.concat "," (List.map string_of_int r))
                 rows))
          ds))

let fused_tag = u "tag"

(* The store holding the generated rows, and the fragment UCQ over it. *)
let fused_fixture (w, disjuncts, _) =
  let tag = fused_tag in
  let col k = u (Printf.sprintf "c%d" k) in
  let facts =
    List.concat
      (List.mapi
         (fun i rows ->
           List.concat
             (List.mapi
                (fun j row ->
                  let s = u (Printf.sprintf "d%d_%d" i j) in
                  tr s (u (Printf.sprintf "in%d" i)) tag
                  :: List.mapi
                       (fun k x -> tr s (col k) (u (Printf.sprintf "v%d" x)))
                       row)
                rows))
         disjuncts)
  in
  let store =
    Store.Encoded_store.of_graph
      (Rdf.Graph.make (Rdf.Schema.of_constraints []) facts)
  in
  let head = List.init w (fun k -> v (Printf.sprintf "c%d" k)) in
  let cq i _ =
    Bgp.make head
      (Bgp.atom (v "s") (c (u (Printf.sprintf "in%d" i))) (c tag)
      :: List.init w (fun k ->
             Bgp.atom (v "s") (c (col k)) (v (Printf.sprintf "c%d" k))))
  in
  (store, Ucq.of_cqs (List.mapi cq disjuncts))

(* Everything observable about one fragment evaluation, traced or not. *)
let fused_outcome ?profile ~traced store ucq =
  let t = Engine.Executor.create ?profile store in
  Obs.reset ();
  Obs.set_enabled traced;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  match Engine.Executor.eval_ucq t ucq with
  | r -> Ok (Relation.to_list r, Engine.Executor.last_operations t)
  | exception Engine.Profile.Engine_failure { reason; _ } ->
      Error (reason, Engine.Executor.last_operations t)

let prop_fused_dedup_matches_reference =
  QCheck2.Test.make ~count:60 ~print:print_fused_case
    ~name:"fused fragment dedup = relation then dedup" gen_fused_case
    (fun ((_, _, cut) as case) ->
      let store, ucq = fused_fixture case in
      (* the reference, in the UCQ's own disjunct order *)
      let ref_ex = Engine.Executor.create store in
      let per_disjunct =
        List.map
          (fun d ->
            (* disjuncts are canonicalized: find [?s] again *)
            let s =
              (List.find
                 (fun a -> Bgp.pattern_term_equal a.Bgp.o (c fused_tag))
                 d.Bgp.body)
                .Bgp.s
            in
            let with_s = Bgp.make (s :: d.Bgp.head) d.Bgp.body in
            let emitted =
              List.map
                (fun row -> Array.sub row 1 (Array.length row - 1))
                (Relation.to_list (Engine.Executor.eval_cq ref_ex with_s))
            in
            ignore (Engine.Executor.eval_cq ref_ex d);
            let ops = Engine.Executor.last_operations ref_ex in
            (emitted, ops - List.length emitted))
          (Ucq.disjuncts ucq)
      in
      let pre_dedup = Relation.create ~cols:(Ucq.arity ucq) in
      List.iter
        (fun (rows, _) -> List.iter (Relation.append pre_dedup) rows)
        per_disjunct;
      let seen = Hashtbl.create 16 in
      let expected_rows =
        List.filter
          (fun r ->
            let key = Array.to_list r in
            if Hashtbl.mem seen key then false
            else (Hashtbl.add seen key (); true))
          (Relation.to_list pre_dedup)
      in
      let pre = Relation.rows pre_dedup in
      let distinct = List.length expected_rows in
      let expected =
        Ok
          ( expected_rows,
            List.fold_left (fun acc (_, scan) -> acc + scan) pre per_disjunct
          )
      in
      (* a ceiling the distinct rows fit under but the pre-dedup rows do
         not: the check after some disjunct must fire, on its cumulative
         pre-dedup count, with that disjunct's scan charges spent *)
      let overflow =
        if distinct >= pre then None
        else
          let limit =
            distinct + int_of_float (cut *. float_of_int (pre - 1 - distinct))
          in
          let rec fire cum ops = function
            | [] -> assert false
            | (rows, scan) :: rest ->
                let cum = cum + List.length rows and ops = ops + scan in
                if cum > limit then
                  Error
                    ( Engine.Profile.Materialization_overflow
                        { rows = cum; limit },
                      ops )
                else fire cum ops rest
          in
          Some
            ( {
                Engine.Profile.postgres_like with
                Engine.Profile.name = "tight-materialization";
                max_materialized_rows = limit;
              },
              fire 0 0 per_disjunct )
      in
      Relation.to_list (Relation.dedup pre_dedup) = expected_rows
      && List.for_all
           (fun j ->
             with_jobs j @@ fun () ->
             List.for_all
               (fun (m, traced) ->
                 with_morsel m @@ fun () ->
                 fused_outcome ~traced store ucq = expected
                 &&
                 match overflow with
                 | None -> true
                 | Some (profile, failure) ->
                     fused_outcome ~profile ~traced store ucq = failure)
               [ (1, false); (1_000_000, false); (1, true) ])
           [ 1; 4 ])

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_partitioned_join_identical;
      prop_partitioned_dedup_identical;
      prop_fused_dedup_matches_reference;
    ]

let () =
  Alcotest.run "morsel"
    [
      ( "hash_join",
        [
          Alcotest.test_case "differential across jobs x morsel" `Quick
            test_join_differential;
          Alcotest.test_case "parallel path engages" `Quick
            test_join_parallel_path_engages;
          Alcotest.test_case "budget failure mid-join" `Quick
            test_join_budget_failure;
        ] );
      ("properties", qcheck_cases);
      ( "op_stats",
        [
          Alcotest.test_case "traced totals jobs=1 = jobs=4" `Quick
            test_traced_op_totals_equal;
        ] );
    ]
