(* The in-process workloads: lubm-plan and dblp-exec (every answer cold,
   on a fresh system) and lubm-views-rw (one long-lived system with
   materialized views, passes alternating with small writes). *)

open Common
module A = Rqa.Answering
module Es = Store.Encoded_store

type spec = {
  generate : seed:int -> Rdf.Graph.t;
  queries : (string * Query.Bgp.t) list;
  strategies : A.strategy list;
  batch : Rdf.Triple.t list;  (* the fact set writes insert and delete *)
  setups : int;  (* set-ups per run; [setup_s] is their median *)
}

let uri = Rdf.Term.uri

(* [n] new graduate students joining an existing department: the writes
   move answers of the memberOf/Person queries, not the schema *)
let lubm_facts n =
  let dept = uri "http://www.Department0.University0.edu" in
  List.concat_map
    (fun i ->
      let s = uri (Printf.sprintf "http://perfbench.example/student%d" i) in
      [
        Rdf.Triple.make s Rdf.Vocab.rdf_type (uri (Workloads.Lubm.ns ^ "GraduateStudent"));
        Rdf.Triple.make s (uri (Workloads.Lubm.ns ^ "memberOf")) dept;
      ])
    (List.init n Fun.id)

let dblp_facts n =
  List.concat_map
    (fun i ->
      let p = uri (Printf.sprintf "http://perfbench.example/pub%d" i) in
      [
        Rdf.Triple.make p Rdf.Vocab.rdf_type (uri (Workloads.Dblp.ns ^ "JournalArticle"));
        Rdf.Triple.make p (uri (Workloads.Dblp.ns ^ "year")) (Rdf.Term.literal "2015");
      ])
    (List.init n Fun.id)

(* The served and view workloads write 4 facts at a time.  The cold
   workloads time 40-fact writes between answers: a 4-fact write there
   takes under 0.1 ms, too little to time steadily. *)
let small_write = lubm_facts 2

let lubm_universities = 8
let dblp_publications = 15_000

let lubm_graph ~seed =
  Workloads.Lubm.generate_graph ~seed
    { Workloads.Lubm.universities = lubm_universities }

let ecov = A.Ecov Rqa.View_select.deterministic_ecov_budget

let lubm_plan =
  {
    generate = lubm_graph;
    queries = Workloads.Lubm.queries;
    strategies = [ A.Gcov; ecov ];
    batch = lubm_facts 20;
    setups = 9;
  }

let dblp_exec =
  {
    generate =
      (fun ~seed ->
        Workloads.Dblp.generate_graph ~seed
          { Workloads.Dblp.publications = dblp_publications });
    queries = Workloads.Dblp.queries;
    strategies = [ A.Gcov; A.Scq ];
    batch = dblp_facts 20;
    setups = 5;
  }

let lubm_views = { lubm_plan with strategies = [ A.Gcov ]; batch = small_write; setups = 2 }

(* ---- set-up ---- *)

type setup = {
  store : Es.t;
  gen_ms : float;
  load_ms : float;
  warm_ms : float;
  select_ms : float;
  total_ms : float;
  sys : A.system option;  (* the long-lived system, views workload only *)
}

let view_budget = 64 * 1024 * 1024

let setup_once spec ~seed ~views =
  let t0 = now_ms () in
  let g, gen_ms = time_ms (fun () -> spec.generate ~seed) in
  let store, load_ms = time_ms (fun () -> Es.of_graph g) in
  let (), warm_ms =
    time_ms (fun () -> Pipeline.intern_workload store (List.map snd spec.queries))
  in
  let sys, select_ms =
    if not views then (None, 0.0)
    else
      let sys = A.make store in
      Cache.set_mode (A.cache sys) Cache.Answers_off;
      let _sel, ms =
        time_ms (fun () ->
            Rqa.View_select.select_and_install ~budget:view_budget sys spec.queries)
      in
      (Some sys, ms)
  in
  { store; gen_ms; load_ms; warm_ms; select_ms; total_ms = now_ms () -. t0; sys }

(* Set-up is repeated and its median reported; the last one is kept. *)
let setup spec ~seed ~views ~times =
  let rec go n acc =
    let s = setup_once spec ~seed ~views in
    if n <= 1 then (s, List.rev (s :: acc))
    else begin
      let light = { s with sys = None; store = Es.create (Es.schema s.store) } in
      Gc.full_major ();
      go (n - 1) (light :: acc)
    end
  in
  go times []

let setup_metrics (setups : setup list) =
  let med f = median (List.map f setups) in
  ( med (fun s -> s.total_ms) /. 1000.0,
    [
      m "workloads.generate_ms" "ms" (med (fun s -> s.gen_ms));
      m "store.load_ms" "ms" (med (fun s -> s.load_ms));
      m "core.warm_up_ms" "ms" (med (fun s -> s.warm_ms));
      m "views.select_ms" "ms" (med (fun s -> s.select_ms));
    ] )

(* ---- one answered item ---- *)

type item = {
  key : string;  (* query/strategy *)
  latency_ms : float;  (* the answer call *)
  item_ms : float;  (* with the fresh system's creation, when there is one *)
  cover : string;
  explored : int;
  ops : int;
  union_terms : int;
  digest : string;  (* set digest (cold) or emitted-order digest (views) *)
}

let cover_string = function
  | Some c -> Query.Jucq.cover_to_string c
  | None -> "-"

let hex s = Digest.to_hex (Digest.string s)

let digest_items items =
  ( hex (String.concat ";" (List.map (fun i -> i.key ^ "=" ^ i.cover) items)),
    hex (String.concat ";" (List.map (fun i -> i.key ^ "=" ^ i.digest) items)) )

type tiers = { hits : int array; misses : int array; mutable evictions : int }

let tiers () = { hits = Array.make 3 0; misses = Array.make 3 0; evictions = 0 }

let add_stats t ?(minus : Cache.stats option) (s : Cache.stats) =
  let get (s : Cache.stats) =
    [| s.Cache.reformulation; s.Cache.cover; s.Cache.answer |]
  in
  let now = get s in
  let before =
    match minus with
    | Some b -> get b
    | None ->
        Array.make 3
          { Cache.hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }
  in
  for i = 0 to 2 do
    t.hits.(i) <- t.hits.(i) + now.(i).Cache.hits - before.(i).Cache.hits;
    t.misses.(i) <- t.misses.(i) + now.(i).Cache.misses - before.(i).Cache.misses;
    t.evictions <- t.evictions + now.(i).Cache.evictions - before.(i).Cache.evictions
  done

let tier_metrics t =
  let r i = ratio t.hits.(i) (t.hits.(i) + t.misses.(i)) in
  [
    m "cache.reformulation_hit_ratio" "ratio" (r 0);
    m "cache.cover_hit_ratio" "ratio" (r 1);
    m "cache.answer_hit_ratio" "ratio" (r 2);
    m "cache.evictions" "count" (float_of_int t.evictions);
  ]

let tier_counts t =
  List.concat
    (List.mapi
       (fun i name ->
         [ (name ^ "_hits", t.hits.(i)); (name ^ "_misses", t.misses.(i)) ])
       [ "cache.reformulation"; "cache.cover"; "cache.answer" ])

(* ---- passes ---- *)

type pass = {
  ms : float;
  items : item list;
  tiers : tiers;  (* cache probes of this pass (untraced passes) *)
  traced : Pipeline.layers option;
}

let merged (passes : pass list) =
  let t = tiers () in
  List.iter
    (fun p ->
      for i = 0 to 2 do
        t.hits.(i) <- t.hits.(i) + p.tiers.hits.(i);
        t.misses.(i) <- t.misses.(i) + p.tiers.misses.(i)
      done;
      t.evictions <- t.evictions + p.tiers.evictions)
    passes;
  t

(* Untraced: [Answering.answer], the path users run.  [fresh] builds a new
   system (and so an empty cache) per answer; otherwise [sys] answers. *)
let untraced_pass ?(after = ignore) spec o ~fresh ~store ~sys ~digest =
  let tiers = tiers () in
  let items =
    List.concat_map
      (fun strategy ->
        List.filter_map
          (fun (name, q) ->
            let key = name ^ "/" ^ A.strategy_name strategy in
            o.attempted <- o.attempted + 1;
            let t0 = now_ms () in
            let s = if fresh then A.make store else Option.get sys in
            let before = Cache.stats (A.cache s) in
            let t1 = now_ms () in
            match A.answer s strategy q with
            | r ->
                let t2 = now_ms () in
                add_stats tiers ?minus:(if fresh then None else Some before)
                  (Cache.stats (A.cache s));
                after ();
                sample_speed ();
                Some
                  ( t2 -. t0,
                    {
                      key;
                      latency_ms = t2 -. t1;
                      item_ms = t2 -. t0;
                      cover = cover_string r.A.cover;
                      explored = r.A.covers_explored;
                      ops = Engine.Executor.last_operations (A.engine s);
                      union_terms = r.A.union_terms;
                      digest = digest r.A.answers;
                    } )
            | exception Engine.Profile.Engine_failure { reason; _ } ->
                fail o "%s: engine failure: %s" key
                  (Engine.Profile.failure_to_string reason);
                None)
          spec.queries)
      spec.strategies
  in
  { ms = sum (List.map fst items); items = List.map snd items; tiers; traced = None }

let traced_pass spec o ~fresh ~store ~sys ~digest =
  let l = Pipeline.layers () in
  let items =
    List.concat_map
      (fun strategy ->
        List.filter_map
          (fun (name, q) ->
            let key = name ^ "/" ^ A.strategy_name strategy in
            let t0 = now_ms () in
            let decode0 = l.Pipeline.decode.ms in
            match
              let s =
                if fresh then region l.Pipeline.system (fun () -> A.make store)
                else Option.get sys
              in
              Pipeline.answer l s strategy q
            with
            | r ->
                let ms = now_ms () -. t0 -. (l.Pipeline.decode.ms -. decode0) in
                Some
                  ( ms,
                    {
                      key;
                      latency_ms = ms;
                      item_ms = ms;
                      cover = Query.Jucq.cover_to_string r.Pipeline.cover;
                      explored = r.Pipeline.explored;
                      ops = r.Pipeline.operations;
                      union_terms = 0;
                      digest = digest r.Pipeline.answers;
                    } )
            | exception Engine.Profile.Engine_failure { reason; _ } ->
                fail o "%s (traced): engine failure: %s" key
                  (Engine.Profile.failure_to_string reason);
                None)
          spec.queries)
      spec.strategies
  in
  { ms = sum (List.map fst items); items = List.map snd items; tiers = tiers (); traced = Some l }

(* The traced pipeline must choose what [Answering.answer] chose. *)
let check_same o ~what (reference : item list) (items : item list) =
  List.iter
    (fun (i : item) ->
      match List.find_opt (fun (r : item) -> r.key = i.key) reference with
      | None -> ()
      | Some r ->
          if r.cover <> i.cover || r.explored <> i.explored || r.ops <> i.ops
             || r.digest <> i.digest
          then
            fail o "%s: %s differs (cover %s/%s, explored %d/%d, ops %d/%d)"
              i.key what r.cover i.cover r.explored i.explored r.ops i.ops)
    items

(* The covers and answers of the first traced pass, which the self-test
   compares with the untraced run's [digest_items]. *)
let traced_digests (passes : pass list) =
  match List.find_opt (fun p -> p.traced <> None) passes with
  | Some p ->
      let c, a = digest_items p.items in
      [ ("traced_covers", c); ("traced_answers", a) ]
  | None -> []

(* ---- per-layer metrics from traced passes ---- *)

let layer_metrics (passes : pass list) (untraced : pass list) =
  let traced = List.filter_map (fun p -> Option.map (fun l -> (p, l)) p.traced) passes in
  let med f = median (List.map f traced) in
  let first = match traced with (_, l) :: _ -> Some l | [] -> None in
  let count f = match first with Some l -> float_of_int (f l) | None -> 0.0 in
  let ms (a : Pipeline.layers -> acc) = med (fun (_, l) -> (a l).ms) in
  let ops = count (fun l -> l.Pipeline.operations) in
  let rows = count (fun l -> l.Pipeline.rows) in
  let traced_ms = med (fun (p, _) -> p.ms) in
  let untraced_ms = median (List.map (fun (p : pass) -> p.ms) untraced) in
  [
    m "core.system_ms" "ms" (ms (fun l -> l.Pipeline.system));
    m "reformulation.ms" "ms"
      (med (fun (_, l) -> l.Pipeline.reformulation.ms +. l.Pipeline.bound.ms));
    m "reformulation.calls" "count" (count (fun l -> l.Pipeline.reformulation.calls));
    m "reformulation.union_terms" "count" (count (fun l -> l.Pipeline.union_terms));
    m "core.search_ms" "ms" (ms (fun l -> l.Pipeline.search));
    m "core.covers_explored" "count" (count (fun l -> l.Pipeline.covers));
    m "core.cost_ms" "ms" (ms (fun l -> l.Pipeline.cost));
    m "core.cost_calls" "count" (count (fun l -> l.Pipeline.cost.calls));
    m "query.jucq_build_ms" "ms" (ms (fun l -> l.Pipeline.build));
    m "engine.exec_ms" "ms" (ms (fun l -> l.Pipeline.exec));
    m "engine.operations" "count" ops;
    m "engine.rows_out" "count" rows;
    m "engine.ops_per_row" "ratio" (if rows > 0.0 then ops /. rows else 0.0);
    m "engine.decode_ms" "ms" (ms (fun l -> l.Pipeline.decode));
    m "obs.trace_overhead_ms" "ms" (traced_ms -. untraced_ms);
    m "obs.layer_sum_share" "ratio"
      (med (fun (p, l) -> if p.ms > 0.0 then Pipeline.attributed l /. p.ms else 0.0));
  ]

let layer_counts (passes : pass list) =
  match List.find_map (fun p -> p.traced) passes with
  | None -> []
  | Some l ->
      [
        ("reformulation.calls", l.Pipeline.reformulation.calls);
        ("reformulation.union_terms", l.Pipeline.union_terms);
        ("core.covers_explored", l.Pipeline.covers);
        ("core.cost_calls", l.Pipeline.cost.calls);
        ("engine.operations", l.Pipeline.operations);
        ("engine.rows_out", l.Pipeline.rows);
      ]

let zero names = List.map (fun (n, u) -> m n u 0.0) names

let server_zero =
  zero
    [
      ("server.residual_ms", "ms");
      ("server.planning_ms", "ms");
      ("server.execution_ms", "ms");
      ("server.rows_per_s", "1/s");
      ("server.write_rtt_ms", "ms");
      ("server.waiting_writers", "count");
    ]

let pass_counts (p : pass) =
  [
    ("answer.operations", List.fold_left (fun s i -> s + i.ops) 0 p.items);
    ("answer.covers_explored", List.fold_left (fun s i -> s + i.explored) 0 p.items);
    ("answer.union_terms", List.fold_left (fun s i -> s + i.union_terms) 0 p.items);
  ]

(* ---- lubm-plan, dblp-exec ---- *)

let min_samples = 100
let min_passes = 5

(* Each item's median over passes, in item order.  Item medians feed
   [pass_s] and the latency percentiles: a slow moment on a shared host
   then moves one sample of an item, not the figure, and a percentile
   falling between two items interpolates between two medians instead of
   between the extremes of two groups of samples. *)
let item_medians f (passes : pass list) =
  match passes with
  | [] -> []
  | p :: _ ->
      List.map
        (fun (i : item) ->
          median
            (List.concat_map
               (fun (q : pass) ->
                 List.filter_map
                   (fun (j : item) -> if j.key = i.key then Some (f j) else None)
                   q.items)
               passes))
        p.items

(* Passes run until the window is used and, untraced, at least
   [min_samples] answers are timed (the p90 needs ten beyond it).  Traced
   runs interleave untraced and traced passes as u t t u ..., at least
   four, so the first pass's heap growth does not land on one side of the
   tracing-overhead difference. *)
let cold spec ~seed ~seconds ~trace =
  let o = outcome () in
  let s, setup_list = setup spec ~seed ~views:false ~times:spec.setups in
  let setup_s, setup_layers = setup_metrics setup_list in
  let store = s.store in
  (* store writes, one insert-then-delete pair after each untraced answer
     (so spread over the whole window); the store returns to the measured
     contents after each pair *)
  let writes = ref [] in
  let write_pair () =
    o.attempted <- o.attempted + 1;
    let (si, di), ins = time_ms (fun () -> Es.insert_triples store spec.batch) in
    let (sd, dd), del = time_ms (fun () -> Es.delete_triples store spec.batch) in
    let n = List.length spec.batch in
    if si <> 0 || sd <> 0 || di <> n || dd <> n then
      fail o "write batch: expected %d effective changes, got +%d/-%d" n di dd;
    writes := (ins +. del) :: !writes
  in
  let start = now_ms () in
  let rec loop acc n =
    let elapsed = now_ms () -. start in
    let last = match acc with p :: _ -> p.ms | [] -> 0.0 in
    let samples = List.fold_left (fun s p -> s + List.length p.items) 0 acc in
    let more =
      if trace then n < 4 || elapsed +. last <= seconds *. 1000.0
      else
        n < min_passes || samples < min_samples || elapsed +. last <= seconds *. 1000.0
    in
    if not more then List.rev acc
    else
      let p =
        if trace && (n mod 4 = 1 || n mod 4 = 2) then
          traced_pass spec o ~fresh:true ~store ~sys:None ~digest:set_digest
        else
          untraced_pass ~after:write_pair spec o ~fresh:true ~store ~sys:None
            ~digest:set_digest
      in
      loop (p :: acc) (n + 1)
  in
  let passes = loop [] 0 in
  let peak = peak_rss_mb 0 in
  let untraced = List.filter (fun p -> p.traced = None) passes in
  let first = List.hd untraced in
  (* determinism: later passes choose the first pass's covers and counts *)
  List.iter
    (fun p ->
      check_same o ~what:(if p.traced = None then "repeat" else "traced") first.items p.items)
    (List.tl passes);
  (* q_ref(db) = q(db∞): every answer against the saturation answer *)
  let sat = A.make store in
  let reference =
    List.map
      (fun (name, q) -> (name, set_digest (A.answer sat A.Saturation q).A.answers))
      spec.queries
  in
  List.iter
    (fun p ->
      List.iter
        (fun i ->
          let name = List.hd (String.split_on_char '/' i.key) in
          if List.assoc name reference <> i.digest then
            fail o "%s: answer differs from the saturation answer" i.key)
        p.items)
    passes;
  let latencies = item_medians (fun i -> i.latency_ms) untraced in
  let answered = List.fold_left (fun s p -> s + List.length p.items) 0 untraced in
  let pass_ms = List.map (fun (p : pass) -> p.ms) untraced in
  let write_p50 = median !writes in
  let covers, answers = digest_items first.items in
  {
    outcome = o;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "pass_s" "s" (sum (item_medians (fun i -> i.item_ms) untraced) /. 1000.0);
        m "served_qps" "1/s" (float_of_int answered /. (sum pass_ms /. 1000.0));
        m "query_p50_ms" "ms" (percentile 50.0 latencies);
        m "query_p90_ms" "ms" (percentile 90.0 latencies);
        m "query_p99_ms" "ms" (percentile 99.0 latencies);
        m "write_p50_ms" "ms" write_p50;
        m "ok_share" "ratio" (1.0 -. ratio o.failed o.attempted);
        m "peak_rss_mb" "MB" peak;
      ];
    per_layer =
      setup_layers
      @ layer_metrics passes untraced
      @ tier_metrics (merged untraced)
      @ zero
          [
            ("views.hit_ratio", "ratio");
            ("views.rematerializations", "count");
            ("views.bytes", "B");
            ("views.refresh_ms", "ms");
          ]
      @ [ m "store.write_ms" "ms" write_p50 ]
      @ server_zero;
    counts = pass_counts first @ layer_counts passes @ tier_counts first.tiers;
    digests = [ ("covers", covers); ("answers", answers) ] @ traced_digests passes;
  }

(* ---- lubm-views-rw ---- *)

(* Pass i >= 1 follows write i (odd: insert the batch, even: delete it).
   A traced run traces passes 3-4, 7-8, ...: both store states, each kind
   after the same kind of write. *)
let views_rw ~seed ~seconds ~trace =
  let spec = lubm_views in
  let o = outcome () in
  let s, setup_list = setup spec ~seed ~views:true ~times:spec.setups in
  let setup_s, setup_layers = setup_metrics setup_list in
  let store = s.store and sys = s.sys in
  let v = Option.get (A.views (Option.get sys)) in
  let view_bytes = Cache.Views.bytes v in
  let hits0 = Cache.Views.hits v and misses0 = Cache.Views.misses v in
  let writes = ref [] and store_ms = ref [] and refresh_ms = ref [] in
  let remat = ref [] in
  let present = ref false in
  let write i =
    o.attempted <- o.attempted + 1;
    let r0 = Cache.Views.rematerializations v in
    let insert = i mod 2 = 1 in
    let (sc, dc), w =
      time_ms (fun () ->
          (if insert then Es.insert_triples else Es.delete_triples) store spec.batch)
    in
    let (), r = time_ms (fun () -> Cache.Views.refresh v) in
    present := insert;
    if sc <> 0 || dc <> List.length spec.batch then
      fail o "write %d: expected %d effective changes, got %d" i
        (List.length spec.batch) dc;
    writes := (w +. r) :: !writes;
    store_ms := w :: !store_ms;
    refresh_ms := r :: !refresh_ms;
    remat := (Cache.Views.rematerializations v - r0) :: !remat
  in
  let start = now_ms () in
  let rec loop acc i =
    let elapsed = now_ms () -. start in
    let samples = List.fold_left (fun s (_, p) -> s + List.length p.items) 0 acc in
    let more =
      if trace then i < 5 || elapsed <= seconds *. 1000.0
      else samples < min_samples || elapsed <= seconds *. 1000.0
    in
    if not more then List.rev acc
    else begin
      if i > 0 then write i;
      let traced = trace && i > 0 && (i - 1) / 2 mod 2 = 1 in
      let p =
        if traced then traced_pass spec o ~fresh:false ~store ~sys ~digest:order_digest
        else untraced_pass spec o ~fresh:false ~store ~sys ~digest:order_digest
      in
      loop ((!present, p) :: acc) (i + 1)
    end
  in
  let passes = loop [] 0 in
  let peak = peak_rss_mb 0 in
  let hits = Cache.Views.hits v - hits0 and misses = Cache.Views.misses v - misses0 in
  (* views on = views off: answers in emitted order and operation totals,
     in both store states, against a view-less system on the same store *)
  let reference () =
    let plain = A.make store in
    Cache.set_mode (A.cache plain) Cache.Answers_off;
    List.map
      (fun (name, q) ->
        let r = A.answer plain A.Gcov q in
        ( name,
          (order_digest r.A.answers, Engine.Executor.last_operations (A.engine plain)) ))
      spec.queries
  in
  let ref_now = reference () in
  let state_now = !present in
  ignore
    ((if state_now then Es.delete_triples else Es.insert_triples) store spec.batch
      : int * int);
  let ref_other = reference () in
  List.iter
    (fun (state, p) ->
      let refs = if state = state_now then ref_now else ref_other in
      List.iter
        (fun i ->
          let name = List.hd (String.split_on_char '/' i.key) in
          let d, ops = List.assoc name refs in
          if d <> i.digest || ops <> i.ops then
            fail o "%s (batch %b): views-on answer or ops %d differ from views-off %d"
              i.key state i.ops ops)
        p.items)
    passes;
  let untraced = List.filter_map (fun (_, p) -> if p.traced = None then Some p else None) passes in
  let all = List.map snd passes in
  (* traced passes must match the untraced pass of the same store state *)
  List.iter
    (fun (state, p) ->
      if p.traced <> None then
        match
          List.find_opt (fun (st, (q : pass)) -> st = state && q.traced = None) passes
        with
        | Some (_, u) -> check_same o ~what:"traced" u.items p.items
        | None -> ())
    passes;
  let latencies = item_medians (fun i -> i.latency_ms) untraced in
  let answered = List.fold_left (fun s p -> s + List.length p.items) 0 untraced in
  let pass_ms = List.map (fun (p : pass) -> p.ms) untraced in
  let first_state, first = List.find (fun (_, (p : pass)) -> p.traced = None) passes in
  let covers, answers = digest_items first.items in
  let remat = List.rev !remat in
  let first_two = match remat with a :: b :: _ -> a + b | l -> List.fold_left ( + ) 0 l in
  {
    outcome = o;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "pass_s" "s" (median pass_ms /. 1000.0);
        m "served_qps" "1/s" (float_of_int answered /. (sum pass_ms /. 1000.0));
        m "query_p50_ms" "ms" (percentile 50.0 latencies);
        m "query_p90_ms" "ms" (percentile 90.0 latencies);
        m "query_p99_ms" "ms" (percentile 99.0 latencies);
        m "write_p50_ms" "ms" (median !writes);
        m "ok_share" "ratio" (1.0 -. ratio o.failed o.attempted);
        m "peak_rss_mb" "MB" peak;
      ];
    per_layer =
      setup_layers
      @ layer_metrics all untraced
      @ tier_metrics (merged untraced)
      @ [
          m "views.hit_ratio" "ratio" (ratio hits (hits + misses));
          m "views.rematerializations" "count" (float_of_int first_two);
          m "views.bytes" "B" (float_of_int view_bytes);
          m "views.refresh_ms" "ms" (median !refresh_ms);
          m "store.write_ms" "ms" (median !store_ms);
        ]
      @ server_zero;
    counts =
      pass_counts first @ layer_counts all
      @ [ ("views.count", Cache.Views.count v); ("views.rematerializations_2", first_two) ];
    digests =
      [ ("covers", covers); ("answers", answers) ]
      @ traced_digests
          (List.filter_map (fun (st, p) -> if st = first_state then Some p else None) passes);
  }
