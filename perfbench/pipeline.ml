(* The answering pipeline of [Rqa.Answering.answer], re-assembled from the
   layers' public functions so each call can be timed from the outside.

   The steps and their arguments are the ones [Answering] uses for a
   cache-missing reformulation strategy: cover search over an objective
   wired to the tier-1 reformulation closure, the cost model and the
   tier-2 scope; the capacity refusal; the JUCQ build; the final cost
   estimate; evaluation (through the view tier when one is installed).
   The harness checks every traced answer against an untraced
   [Answering.answer] of the same query, so the two cannot drift apart
   silently. *)

open Query
module A = Rqa.Answering

type layers = {
  system : Common.acc;  (* fresh Cache.create + Answering.make *)
  reformulation : Common.acc;  (* Cache.reformulate *)
  bound : Common.acc;  (* Reformulate.count_product_bound *)
  search : Common.acc;  (* Objective.create + Gcov/Ecov.search, self *)
  cost : Common.acc;  (* Cost_model.jucq_cost / ucq_cost *)
  build : Common.acc;  (* Jucq.make, self *)
  exec : Common.acc;  (* Executor.eval_jucq *)
  decode : Common.acc;  (* Executor.decode *)
  mutable union_terms : int;
  mutable covers : int;
  mutable operations : int;
  mutable rows : int;
}

let layers () =
  {
    system = Common.acc ();
    reformulation = Common.acc ();
    bound = Common.acc ();
    search = Common.acc ();
    cost = Common.acc ();
    build = Common.acc ();
    exec = Common.acc ();
    decode = Common.acc ();
    union_terms = 0;
    covers = 0;
    operations = 0;
    rows = 0;
  }

(* Sum of the self times that make up an answer (decode is reported on
   its own: the untraced path never decodes). *)
let attributed l =
  List.fold_left
    (fun s (a : Common.acc) -> s +. a.Common.ms)
    0.0
    [ l.system; l.reformulation; l.bound; l.search; l.cost; l.build; l.exec ]

(* The tier-2 scope [Answering.make] derives for a default system:
   profile name, paper cost oracle, uncalibrated coefficients. *)
let scope =
  String.concat "|" [ Engine.Profile.postgres_like.Engine.Profile.name; "paper"; "profile" ]

let query_key q =
  Bgp.to_string (Bgp.canonical (Bgp.dedup_body (Bgp.normalize q)))

let refuse engine terms =
  let profile = Engine.Executor.profile engine in
  raise
    (Engine.Profile.Engine_failure
       {
         engine = profile.Engine.Profile.name;
         reason =
           Engine.Profile.Union_capacity
             { terms; limit = profile.Engine.Profile.max_union_terms };
       })

type traced = {
  answers : Engine.Relation.t;
  cover : Jucq.cover;
  explored : int;
  operations : int;
}

(* One answer through the timed layers, on [sys]. *)
let answer l sys strategy q =
  let q = Bgp.normalize q in
  let cache = A.cache sys in
  let engine = A.engine sys in
  let refm = A.reformulator sys in
  let cm = A.cost_model sys in
  let capacity = (Engine.Executor.profile engine).Engine.Profile.max_union_terms in
  let reformulate cq =
    Common.region l.reformulation (fun () ->
        let u = Cache.reformulate cache cq in
        l.union_terms <- l.union_terms + Ucq.cardinal u;
        u)
  in
  let bound cq =
    Common.region l.bound (fun () ->
        Reformulation.Reformulate.count_product_bound refm cq)
  in
  let jucq_cost j = Common.region l.cost (fun () -> Rqa.Cost_model.jucq_cost cm j) in
  let ucq_cost u = Common.region l.cost (fun () -> Rqa.Cost_model.ucq_cost cm u) in
  let objective () =
    Rqa.Objective.create
      ~fragment_capacity:(fun cq -> bound cq <= capacity)
      ?shared:(Cache.tier2 cache ~scope ~query_key:(query_key q))
      ~reformulate ~jucq_cost ~ucq_cost q
  in
  let cover, explored =
    match (strategy : A.strategy) with
    | A.Scq -> (Jucq.scq_cover q, 0)
    | A.Ucq -> (Jucq.ucq_cover q, 0)
    | A.Gcov ->
        Common.region l.search (fun () ->
            let r = Rqa.Gcov.search (objective ()) in
            (r.Rqa.Gcov.cover, r.Rqa.Gcov.explored))
    | A.Ecov budget ->
        Common.region l.search (fun () ->
            let r = Rqa.Ecov.search ~budget (objective ()) in
            (r.Rqa.Ecov.cover, r.Rqa.Ecov.explored))
    | A.Saturation -> invalid_arg "Pipeline.answer: Saturation"
  in
  l.covers <- l.covers + explored;
  List.iter
    (fun f ->
      let b = bound (Jucq.cover_query q cover f) in
      if b > capacity then refuse engine b)
    cover;
  let jucq =
    Common.region l.build (fun () ->
        try Jucq.make ~reformulate q cover
        with Reformulation.Reformulate.Too_large { bound; _ } ->
          refuse engine bound)
  in
  ignore (jucq_cost jucq : float);
  let answers =
    Common.region l.exec (fun () ->
        match A.views sys with
        | None -> Engine.Executor.eval_jucq engine jucq
        | Some v ->
            Engine.Executor.eval_jucq ~views:(Cache.Views.lookup v) engine jucq)
  in
  let operations = Engine.Executor.last_operations engine in
  l.operations <- l.operations + operations;
  l.rows <- l.rows + Engine.Relation.rows answers;
  ignore
    (Common.region l.decode (fun () -> Engine.Executor.decode engine answers)
      : Rdf.Term.t list list);
  { answers; cover; explored; operations }

(* Interns what compiling the workload could add to the dictionary — the
   query constants, the schema vocabulary and [rdf:type] — without
   [Answering.warm_up]'s tier-1 fill, which on LUBM reformulates Q28
   whole (318,096 terms, seconds) for a cache the cold workloads throw
   away.  Afterwards operation totals no longer depend on which query ran
   first. *)
let intern_workload store queries =
  let dict = Store.Encoded_store.dictionary store in
  let schema = Store.Encoded_store.schema store in
  let intern c = ignore (Rdf.Dictionary.encode dict c : int) in
  intern Rdf.Vocab.rdf_type;
  Rdf.Term.Set.iter intern (Rdf.Schema.classes schema);
  Rdf.Term.Set.iter intern (Rdf.Schema.properties schema);
  let engine = Engine.Executor.create store in
  List.iter (fun q -> Engine.Executor.intern_constants engine (Bgp.normalize q)) queries
