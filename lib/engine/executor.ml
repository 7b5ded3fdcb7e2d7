open Query
module Es = Store.Encoded_store

(* The plan cache (below) is keyed by the query's physical identity: a
   JUCQ/UCQ holds on to its disjunct [Bgp.t] values, so re-evaluating a
   prepared statement re-encounters the very same objects.  Equality is
   pointer equality; the hash is a deep-enough structural hash that
   same-shaped disjuncts (which share their first few words) spread over
   the buckets. *)
module Plan_key = struct
  type t = Bgp.t

  let equal = ( == )
  let hash q = Hashtbl.hash_param 64 256 q
end

module Plan_tbl = Hashtbl.Make (Plan_key)

module Ucq_key = struct
  type t = Ucq.t

  let equal = ( == )
  let hash u = Hashtbl.hash_param 16 64 u
end

module Ucq_tbl = Hashtbl.Make (Ucq_key)

type slot = V of int | K of int

type eatom = { es : slot; ep : slot; eo : slot }

type ecq = {
  nvars : int;
  head : slot array;
  atoms : eatom array;
  prop_codes : int option array;  (* constant property code per atom, if any *)
  labels : string array;  (* rendered source atoms, for traces/EXPLAIN *)
}

type plan = {
  pcq : ecq;
  porder : int array;
  pest : float array;
      (* per-depth estimated intermediate cardinality (product of the
         greedy planner's per-step scores) — the "est" column of
         EXPLAIN ANALYZE scan nodes *)
}

type t = {
  store : Es.t;
  profile : Profile.t;
  stats : Store.Statistics.t;
  mutable ops : int;
  mutable total_ops : int;  (* monotonic across statements *)
  mutable statements : int;  (* statements started (incl. failed ones) *)
  mutable last_stats : Obs.Op_stats.t option;  (* last statement's op tree *)
  plans : plan option Plan_tbl.t;
  ucq_plans : plan option array Ucq_tbl.t;  (* one entry per disjunct *)
  mutable plans_version : int;  (* store version the cached plans assume *)
  plan_lock : Mutex.t;
      (* Guards the two plan caches (and [plans_version]): concurrent
         [answer] calls on one executor — e.g. a shared system behind a
         server loop — race only on planning, never on evaluation state,
         which is per-statement.  Compilation happens under the lock; plans
         are pure reads of the store, so serializing them is safe and
         cheap (one lock per statement, not per row). *)
}

let plan_cache_limit = 65_536

let create ?(profile = Profile.postgres_like) store =
  {
    store;
    profile;
    stats = Store.Statistics.create store;
    ops = 0;
    total_ops = 0;
    statements = 0;
    last_stats = None;
    plans = Plan_tbl.create 256;
    ucq_plans = Ucq_tbl.create 64;
    plans_version = Es.data_version store;
    plan_lock = Mutex.create ();
  }

let store t = t.store
let profile t = t.profile
let statistics t = t.stats
let last_operations t = t.ops
let total_operations t = t.total_ops
let statements_run t = t.statements
let last_op_stats t = t.last_stats

(* Process-level totals (lib/metrics), accumulated across every executor in
   the process.  They observe the same events as [ops]/[total_ops] but are
   never read back by the engine: charging, budget checks and the op trees
   depend only on the mutable fields, so totals stay bit-identical whether
   metrics are on or off (tested in test_metrics.ml). *)
let m_operations =
  Metrics.counter "engine.operations" ~help:"Charged engine operations"
let m_statements =
  Metrics.counter "engine.statements" ~help:"Statements started (incl. failed)"
let m_failures =
  Metrics.counter "engine.failures" ~help:"Statements aborted by an engine-profile budget"

(* Statement prologue: reset the per-statement meter, bump the monotonic
   counters, drop the previous statement's op tree.  Charging below feeds
   [total_ops] too, so the cumulative count stays exact even when a
   statement dies mid-flight on a budget violation. *)
let begin_statement t =
  t.ops <- 0;
  t.statements <- t.statements + 1;
  Metrics.add m_statements 1;
  t.last_stats <- None

let fail t reason =
  Metrics.add m_failures 1;
  raise (Profile.Engine_failure { engine = t.profile.Profile.name; reason })

let charge t n =
  t.ops <- t.ops + n;
  t.total_ops <- t.total_ops + n;
  Metrics.add m_operations n;
  if t.ops > t.profile.Profile.max_operations then
    fail t (Profile.Operation_budget { limit = t.profile.Profile.max_operations })

(* The materialization ceiling, on a row count: a relation's, or the
   pre-dedup count of a fragment that never materializes its pre-dedup
   rows. *)
let check_rows t rows =
  if rows > t.profile.Profile.max_materialized_rows then
    fail t
      (Profile.Materialization_overflow
         { rows; limit = t.profile.Profile.max_materialized_rows })

let check_materialization t rel = check_rows t (Relation.rows rel)

(* ---- charge logs (record-and-replay) ----

   Determinism is a hard contract: with [--jobs N] the answers, the charge
   totals and the failure points must be bit-identical to sequential
   execution.  The scheme, shared by the disjunct fan-out and the
   intra-operator morsel paths: worker domains run against a {e charge
   log} — a run-length-encoded record of every [charge] call — and a
   local relation; the coordinating domain then merges the results in
   canonical (sequential) order, replaying each log through the real
   [charge].  Budget failures therefore fire on the same charge call,
   with the same [ops]/[total_ops], as they would sequentially.  A worker
   whose local charge sum alone exceeds the budget stops early
   ([Charge_overrun]): since the coordinator's cumulative count at that
   work unit is at least the worker's local count, the replay of the
   truncated log is guaranteed to raise before running off its end, so
   truncation is unobservable. *)

exception Charge_overrun

type charge_log = {
  cvals : Store.Intvec.t;  (* RLE: distinct consecutive charge amounts *)
  ccounts : Store.Intvec.t;  (* RLE: repeat count per amount *)
  mutable clast : int;
  mutable cacc : int;  (* local sum, for the early-stop bound *)
  climit : int;
}

let charge_log limit =
  {
    cvals = Store.Intvec.create ();
    ccounts = Store.Intvec.create ();
    clast = min_int;
    cacc = 0;
    climit = limit;
  }

let record log n =
  if n = log.clast then begin
    let i = Store.Intvec.length log.ccounts - 1 in
    Store.Intvec.set log.ccounts i (Store.Intvec.get log.ccounts i + 1)
  end
  else begin
    Store.Intvec.push log.cvals n;
    Store.Intvec.push log.ccounts 1;
    log.clast <- n
  end;
  log.cacc <- log.cacc + n;
  if log.cacc > log.climit then raise Charge_overrun

(* Replays every recorded charge call individually (not merged): [ops]
   crosses the budget on exactly the call where sequential execution would
   have raised, with the identical [total_ops] at that point. *)
let replay t log =
  for i = 0 to Store.Intvec.length log.cvals - 1 do
    let v = Store.Intvec.get log.cvals i in
    for _ = 1 to Store.Intvec.get log.ccounts i do
      charge t v
    done
  done

(* ---- CQ compilation ---- *)

exception Unsatisfiable  (* a query constant absent from the dictionary *)

let atom_label (a : Bgp.atom) =
  let pt = function
    | Bgp.Var v -> "?" ^ v
    | Bgp.Const c -> Rdf.Term.to_string c
  in
  Printf.sprintf "[%s %s %s]" (pt a.s) (pt a.p) (pt a.o)

let compile t (q : Bgp.t) : ecq =
  let q = Bgp.normalize q in
  let vars = Bgp.vars q in
  let index v =
    let rec go i = function
      | [] -> assert false
      | x :: _ when String.equal x v -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 vars
  in
  let slot = function
    | Bgp.Var v -> V (index v)
    | Bgp.Const c -> (
        match Es.encode_term t.store c with
        | Some code -> K code
        | None -> raise Unsatisfiable)
  in
  (* Head constants are output values, not selections: a schema class that
     never occurs in the data (e.g. an instantiated [q(x, Person)] head)
     must still be producible, so it is encoded on demand. *)
  let head_slot = function
    | Bgp.Var v -> V (index v)
    | Bgp.Const c -> K (Rdf.Dictionary.encode (Es.dictionary t.store) c)
  in
  let atoms =
    Array.of_list
      (List.map
         (fun (a : Bgp.atom) -> { es = slot a.s; ep = slot a.p; eo = slot a.o })
         q.body)
  in
  let prop_codes =
    Array.map (fun a -> match a.ep with K c -> Some c | V _ -> None) atoms
  in
  {
    nvars = List.length vars;
    head = Array.of_list (List.map head_slot q.head);
    atoms;
    prop_codes;
    labels = Array.of_list (List.map atom_label q.body);
  }

(* Interning is idempotent and append-only: terms already in the data keep
   their codes, absent ones get fresh codes that match no triple — answers
   are unaffected, but compilation stops depending on which query ran
   first (an absent body constant now compiles to an empty selection
   instead of [Unsatisfiable], the same charges every run). *)
let intern_constants t (q : Bgp.t) =
  let dict = Es.dictionary t.store in
  let intern = function
    | Bgp.Var _ -> ()
    | Bgp.Const c -> ignore (Rdf.Dictionary.encode dict c)
  in
  List.iter intern q.head;
  List.iter
    (fun (a : Bgp.atom) ->
      intern a.s;
      intern a.p;
      intern a.o)
    q.body

(* ---- atom ordering (greedy selectivity) ---- *)

(* The access-path code of a slot under the current bindings: a constant's
   code, a bound variable's value, or -1 (the store's wildcard sentinel)
   for an unbound variable — which is exactly the unbound marker in
   [bindings], so no option is ever allocated on the probe path. *)
let slot_code bindings = function K c -> c | V v -> bindings.(v)

(* Planning-time estimate of an atom's output given which variables are
   already bound: the exact count for the constant positions, discounted by
   per-property NDV for each bound variable position. *)
let plan_estimate t (cq : ecq) i (bound : bool array) =
  let a = cq.atoms.(i) in
  let const_only = function K c -> c | V _ -> -1 in
  let base =
    float_of_int
      (Es.count_codes t.store ~s:(const_only a.es) ~p:(const_only a.ep)
         ~o:(const_only a.eo))
  in
  let bound_var = function V v -> bound.(v) | K _ -> false in
  let discount pos =
    if not (bound_var (match pos with `S -> a.es | `O -> a.eo)) then 1.0
    else
      match cq.prop_codes.(i) with
      | Some p ->
          float_of_int
            (Store.Statistics.ndv t.stats ~prop:p
               (match pos with `S -> `Subject | `O -> `Object))
      | None -> 8.0
  in
  let prop_discount = if bound_var a.ep then 16.0 else 1.0 in
  base /. (discount `S *. discount `O *. prop_discount)

let order_atoms t (cq : ecq) =
  let n = Array.length cq.atoms in
  let used = Array.make n false in
  let bound = Array.make cq.nvars false in
  let bind_atom i =
    let mark = function V v -> bound.(v) <- true | K _ -> () in
    mark cq.atoms.(i).es;
    mark cq.atoms.(i).ep;
    mark cq.atoms.(i).eo
  in
  let connected i =
    let has = function V v -> bound.(v) | K _ -> false in
    has cq.atoms.(i).es || has cq.atoms.(i).ep || has cq.atoms.(i).eo
  in
  let order = Array.make n 0 in
  (* Cumulative product of the per-step selectivity estimates: the greedy
     planner's own guess at the size of each intermediate result, recorded
     so EXPLAIN ANALYZE can show estimated next to actual per scan depth. *)
  let est = Array.make n 0.0 in
  let cum = ref 1.0 in
  for step = 0 to n - 1 do
    let best = ref (-1) in
    let best_score = ref infinity in
    for i = 0 to n - 1 do
      if not used.(i) then begin
        (* Prefer atoms connected to the bound prefix (avoid products). *)
        let penalty = if step > 0 && not (connected i) then 1e12 else 1.0 in
        let score = plan_estimate t cq i bound *. penalty in
        if score < !best_score then begin
          best_score := score;
          best := i
        end
      end
    done;
    cum := !cum *. plan_estimate t cq !best bound;
    est.(step) <- !cum;
    order.(step) <- !best;
    used.(!best) <- true;
    bind_atom !best
  done;
  (order, est)

(* ---- CQ execution: index nested loops ---- *)

(* Unifies one atom position against a stored value.  A constant must
   equal it; an unbound variable binds, recording its index in
   [undo.(upos)] so the caller can roll back; a bound variable must agree.
   Top-level on purpose: no closure is allocated per probed triple. *)
let unify bindings undo upos slot value =
  match slot with
  | K c -> c = value
  | V v ->
      if Array.unsafe_get bindings v = -1 then begin
        Array.unsafe_set bindings v value;
        undo.(upos) <- v;
        true
      end
      else Array.unsafe_get bindings v = value

(* Optional per-depth scan counters, allocated only while tracing: index
   lookups, ids visited and rows advanced per pipeline level, turned into
   the [IndexScan] chain of the statement's op-stats tree.  The disabled
   path costs one [tr] test per index lookup and per advanced row — no
   allocation, no charge difference (counters never call {!charge}). *)
type cq_counters = {
  probes : int array;  (* index lookups issued at depth k *)
  scanned : int array;  (* candidate ids visited at depth k *)
  advanced : int array;  (* rows depth k passed down to depth k+1 *)
  mutable cq_morsels : int;  (* top-scan morsels dispatched; 0 = sequential *)
  mutable cq_max_morsel_rows : int;  (* largest per-morsel emitted row count *)
}

let fresh_counters natoms =
  {
    probes = Array.make natoms 0;
    scanned = Array.make natoms 0;
    advanced = Array.make natoms 0;
    cq_morsels = 0;
    cq_max_morsel_rows = 0;
  }

(* [?charge] lets the parallel layer substitute a recording sink for the
   engine's budget meter: a worker domain evaluates a disjunct against a
   local charge log (above) instead of the shared executor counters.  The
   default is the real [charge t] — the sequential path pays one indirect
   call per charge and nothing else.

   [?range] restricts the {e driving} (depth-0) selection to the candidate
   indexes [lo, hi) — a morsel of the top scan.  The caller has already
   charged and counted the whole top-level selection exactly once, so a
   ranged run skips the depth-0 select charge and probe/scanned counters;
   everything below depth 0 behaves as usual. *)
let exec_cq t ?counters ?charge:charge_sink ?range (p : plan)
    ~(emit : int array -> unit) =
  let ch = match charge_sink with Some f -> f | None -> charge t in
  let cq = p.pcq in
  let bindings = Array.make (max 1 cq.nvars) (-1) in
  let order = p.porder in
  let natoms = Array.length order in
  let head_buf = Array.make (Array.length cq.head) 0 in
  let tr = counters <> None in
  let ctr =
    match counters with Some c -> c | None -> fresh_counters 0
  in
  (* Per-depth rollback slots: level [k] records at most the three
     variables its atom bound in [undo.(3k) .. undo.(3k+2)] (-1 = none).
     Preallocated once — the per-row path allocates nothing. *)
  let undo = Array.make (max 1 (3 * natoms)) (-1) in
  let rec step k =
    if tr && k > 0 then ctr.advanced.(k - 1) <- ctr.advanced.(k - 1) + 1;
    if k = natoms then begin
      for j = 0 to Array.length cq.head - 1 do
        head_buf.(j) <-
          (match Array.unsafe_get cq.head j with
          | K c -> c
          | V v -> Array.unsafe_get bindings v)
      done;
      ch 1;
      emit head_buf
    end
    else begin
      let a = cq.atoms.(order.(k)) in
      let s = slot_code bindings a.es
      and p = slot_code bindings a.ep
      and o = slot_code bindings a.eo in
      (* One index lookup serves both the charge (the per-access unit of
         [max 1 (n/64)] plus one unit per visited id, batched — same total
         as charging ids one by one, so the operation budget trips on the
         same statements) and the iteration. *)
      let sel = Es.select t.store ~s ~p ~o in
      let n = Es.selected_count sel in
      let ranged = k = 0 && range <> None in
      if not ranged then begin
        ch (max 1 (n / 64) + n);
        if tr then begin
          ctr.probes.(k) <- ctr.probes.(k) + 1;
          ctr.scanned.(k) <- ctr.scanned.(k) + n
        end
      end;
      let base = 3 * k in
      let probe id =
        let ts = Es.unsafe_subject t.store id
        and tp = Es.unsafe_property t.store id
        and tob = Es.unsafe_obj t.store id in
        if
          unify bindings undo base a.es ts
          && unify bindings undo (base + 1) a.ep tp
          && unify bindings undo (base + 2) a.eo tob
        then step (k + 1);
        for j = base to base + 2 do
          let v = undo.(j) in
          if v >= 0 then begin
            bindings.(v) <- -1;
            undo.(j) <- -1
          end
        done
      in
      match sel with
      | Es.Miss -> ()
      | Es.Hit _ ->
          (* Every position is bound and the triple is stored: the match
             is already proved, no reads or unification needed. *)
          step (k + 1)
      | Es.Ids v ->
          let lo, hi =
            match range with
            | Some (lo, hi) when ranged -> (lo, min n hi)
            | _ -> (0, n)
          in
          for idx = lo to hi - 1 do
            probe (Store.Intvec.unsafe_get v idx)
          done
      | Es.All n ->
          let lo, hi =
            match range with
            | Some (lo, hi) when ranged -> (lo, min n hi)
            | _ -> (0, n)
          in
          for id = lo to hi - 1 do
            probe id
          done
    end
  in
  step 0

(* ---- morsel-partitioned top-level scan ---- *)

(* Splits the driving (depth-0) index selection of a CQ pipeline into
   fixed-size morsels dispatched over the pool's atomic chunk counter.
   Each worker runs the whole nested-loop pipeline over its sub-range of
   the top selection into a private relation and charge log (plus private
   scan counters when tracing); the coordinator then, in morsel-index
   order, replays each log through the real budget meter and re-emits
   each private relation's rows.  The emitted row order, every charge
   value and any budget-failure point are therefore bit-identical to the
   sequential scan.  The coordinator itself accounts for the top-level
   selection — one charge of [max 1 (n/64) + n], one probe — exactly
   once, as the sequential path does. *)
let exec_cq_morsel t pool ?counters ~msize ~n (p : plan) ~emit =
  let cq = p.pcq in
  let natoms = Array.length p.porder in
  let tr = counters <> None in
  let w = Array.length cq.head in
  charge t (max 1 (n / 64) + n);
  (match counters with
  | Some c ->
      c.probes.(0) <- c.probes.(0) + 1;
      c.scanned.(0) <- c.scanned.(0) + n
  | None -> ());
  let nmorsels = (n + msize - 1) / msize in
  let results =
    Par.parallel_map pool
      (fun m ->
        let lo = m * msize in
        let hi = min n (lo + msize) in
        let rel = Relation.create ~cols:w in
        let log = charge_log t.profile.Profile.max_operations in
        let ctr = if tr then Some (fresh_counters (max 1 natoms)) else None in
        (try
           exec_cq t ?counters:ctr ~charge:(record log) ~range:(lo, hi) p
             ~emit:(fun row -> Relation.append rel row)
         with Charge_overrun -> ());
        (rel, log, ctr))
      (Array.init nmorsels Fun.id)
  in
  (* Counter totals merge before the replays: a replay that dies on the
     budget then still leaves honest (if not call-exact) partial scan
     counters, and successful statements get exactly the sequential
     totals — the morsel ranges partition the top selection. *)
  (match counters with
  | Some tot ->
      tot.cq_morsels <- tot.cq_morsels + nmorsels;
      Array.iter
        (fun (rel, _, ctr) ->
          (match ctr with
          | Some c ->
              for k = 0 to max 1 natoms - 1 do
                tot.probes.(k) <- tot.probes.(k) + c.probes.(k);
                tot.scanned.(k) <- tot.scanned.(k) + c.scanned.(k);
                tot.advanced.(k) <- tot.advanced.(k) + c.advanced.(k)
              done
          | None -> ());
          tot.cq_max_morsel_rows <-
            max tot.cq_max_morsel_rows (Relation.rows rel))
        results
  | None -> ());
  let buf = Array.make w 0 in
  Array.iter
    (fun (rel, log, _) ->
      replay t log;
      Relation.iteri_flat
        (fun _ data off ->
          Store.Intvec.blit_ints data off buf 0 w;
          emit buf)
        rel)
    results

(* Statement-level CQ execution: morsel-parallel when the pool is wide and
   idle and the driving selection is big enough to split; the sequential
   [exec_cq] otherwise (which is bit-identical by construction).  Worker-
   side disjunct evaluation never lands here — it records into a charge
   log and runs while the pool is busy with the disjunct fan-out. *)
let exec_cq_auto t ?counters (p : plan) ~emit =
  let pool = Par.get () in
  if Par.jobs pool <= 1 || Par.is_busy pool || Array.length p.porder = 0 then
    exec_cq t ?counters p ~emit
  else begin
    let msize = Profile.morsel_size t.profile in
    let a = p.pcq.atoms.(p.porder.(0)) in
    let code = function K c -> c | V _ -> -1 in
    match Es.select t.store ~s:(code a.es) ~p:(code a.ep) ~o:(code a.eo) with
    | (Es.Ids _ | Es.All _) as sel when Es.selected_count sel > msize ->
        exec_cq_morsel t pool ?counters ~msize ~n:(Es.selected_count sel) p
          ~emit
    | _ -> exec_cq t ?counters p ~emit
  end

(* Plans (compile + atom order) are pure reads of the store and its
   statistics — neither phase calls [charge] — so memoizing them changes
   nothing about which statements fail or why.  The cache is keyed by the
   query's physical identity (a prepared UCQ/JUCQ re-presents the same
   disjunct objects on every evaluation) and is dropped wholesale when the
   store's data version moves, since statistics-driven atom orders may
   shift; schema-only changes touch no facts and keep the plans valid. *)
let flush_stale_plans t =
  let v = Es.data_version t.store in
  if v <> t.plans_version then begin
    Plan_tbl.reset t.plans;
    Ucq_tbl.reset t.ucq_plans;
    t.plans_version <- v
  end

let compile_plan t (q : Bgp.t) =
  match compile t q with
  | exception Unsatisfiable -> None
  | cq ->
      let porder, pest = order_atoms t cq in
      Some { pcq = cq; porder; pest }

let with_plan_lock t f =
  Mutex.lock t.plan_lock;
  match f () with
  | v ->
      Mutex.unlock t.plan_lock;
      v
  | exception e ->
      Mutex.unlock t.plan_lock;
      raise e

let plan_of t (q : Bgp.t) =
  with_plan_lock t @@ fun () ->
  flush_stale_plans t;
  match Plan_tbl.find_opt t.plans q with
  | Some p -> p
  | None ->
      let p = compile_plan t q in
      if Plan_tbl.length t.plans < plan_cache_limit then Plan_tbl.add t.plans q p;
      p

(* UCQ-level plan memoization: one cache probe per fragment evaluation
   covers every disjunct, instead of one structural hash per disjunct.
   Always called on the coordinating domain, before any fan-out: workers
   receive compiled plans and never touch the caches, the statistics or
   the dictionary. *)
let ucq_plans t (u : Ucq.t) =
  with_plan_lock t @@ fun () ->
  flush_stale_plans t;
  match Ucq_tbl.find_opt t.ucq_plans u with
  | Some ps -> ps
  | None ->
      let ps =
        Array.of_list (List.map (compile_plan t) (Ucq.disjuncts u))
      in
      if Ucq_tbl.length t.ucq_plans < plan_cache_limit then
        Ucq_tbl.add t.ucq_plans u ps;
      ps

(* ---- static cost oracle ----

   Everything {!Analysis.Cost_verify} needs to know about this engine's
   compiled plans, packaged store-agnostically: per atom of the planned
   join order, the exact store count of its constant positions and
   whether its variable positions are pairwise distinct.  Reads only the
   plan caches and the store's count indexes — never charges. *)
let static_cq_info t (q : Bgp.t) =
  match plan_of t q with
  | None -> Analysis.Cost_verify.Unsat
  | Some p ->
      let const_only = function K c -> c | V _ -> -1 in
      Analysis.Cost_verify.Atoms
        (Array.init (Array.length p.porder) (fun k ->
             let a = p.pcq.atoms.(p.porder.(k)) in
             let count =
               Es.count_codes t.store ~s:(const_only a.es)
                 ~p:(const_only a.ep) ~o:(const_only a.eo)
             in
             let vs =
               List.filter_map
                 (function V v -> Some v | K _ -> None)
                 [ a.es; a.ep; a.eo ]
             in
             {
               Analysis.Cost_verify.atom_count = count;
               distinct_vars =
                 List.length vs = List.length (List.sort_uniq Int.compare vs);
             }))

let cost_oracle t =
  {
    Analysis.Cost_verify.cq_info = static_cq_info t;
    join =
      (match t.profile.Profile.fragment_join with
      | Profile.Hash_join -> Analysis.Cost_verify.Hash
      | Profile.Block_nested_loop -> Analysis.Cost_verify.Block_nested_loop);
    max_union_terms = t.profile.Profile.max_union_terms;
    max_materialized_rows = t.profile.Profile.max_materialized_rows;
    max_operations = t.profile.Profile.max_operations;
  }

(* The pre-execution admission gate: when cost verification is enabled
   (RDFQA_VERIFY_COST / [Cost_verify.set_enabled]), statements whose
   static analysis proves a failure are rejected before any charge. *)
let admit ?budget ~context t stmt =
  Analysis.Cost_verify.check_exn (fun () ->
      Analysis.Cost_verify.admission (cost_oracle t) ?budget ~context stmt)

(* Builds the [IndexScan] chain of a finished CQ pipeline under [parent]:
   the driving scan on top, each probed atom nested below it, estimated
   cardinalities from the greedy planner's own per-step scores. *)
let attach_scan_chain (p : plan) ctr parent =
  (* Parallelism degree of the pipeline's driving scan, surfaced on the
     CQ node: morsels dispatched and the largest per-morsel output. *)
  parent.Obs.Op_stats.morsels <- parent.Obs.Op_stats.morsels + ctr.cq_morsels;
  parent.Obs.Op_stats.max_worker_rows <-
    max parent.Obs.Op_stats.max_worker_rows ctr.cq_max_morsel_rows;
  let natoms = Array.length p.porder in
  let rec build k =
    if k >= natoms then None
    else begin
      let node =
        Obs.Op_stats.make
          ~label:p.pcq.labels.(p.porder.(k))
          ~est_rows:p.pest.(k) Obs.Op_stats.Index_scan
      in
      node.Obs.Op_stats.rows_in <- ctr.scanned.(k);
      node.Obs.Op_stats.index_probes <- ctr.probes.(k);
      node.Obs.Op_stats.rows_out <- ctr.advanced.(k);
      (match build (k + 1) with
      | Some child -> Obs.Op_stats.add_child node child
      | None -> ());
      Some node
    end
  in
  match build 0 with
  | Some n -> Obs.Op_stats.add_child parent n
  | None -> ()

(* [exec_cq] with the scan chain attached under [stats] — even when the
   statement dies mid-pipeline, so failed statements keep a partial
   EXPLAIN.  With [stats = None] this is exactly [exec_cq]. *)
let exec_cq_traced t ?stats p ~emit =
  match stats with
  | None -> exec_cq_auto t p ~emit
  | Some parent ->
      let ctr = fresh_counters (max 1 (Array.length p.porder)) in
      Fun.protect
        ~finally:(fun () -> attach_scan_chain p ctr parent)
        (fun () -> exec_cq_auto t ~counters:ctr p ~emit)

(* ---- fused duplicate elimination ----

   A statement that ends in set semantics never materializes its pre-dedup
   rows: each emitted row goes straight into one {!Rowtable} (grown from a
   small capacity), the pre-dedup row count is a plain int, and the
   table's key array — distinct rows in first-occurrence order — becomes
   the result relation without a copy ({!Relation.of_rowtable}).  The
   charges, materialization checks and op-stats values that used to read
   the pre-dedup relation's row count read the int at the same points. *)
type dedup_sink = { tbl : Rowtable.t; mutable pre : int }

let dedup_sink ~cols = { tbl = Rowtable.create ~width:cols (); pre = 0 }

let sink_emit d row =
  d.pre <- d.pre + 1;
  ignore (Rowtable.add_if_absent d.tbl row 0)

(* Adds [rows] pre-dedup rows whose distinct ones, in first-occurrence
   order, are [rel] — a worker's already-deduplicated disjunct output. *)
let sink_merge d ~rows rel =
  d.pre <- d.pre + rows;
  Relation.iteri_flat
    (fun _ data off -> ignore (Rowtable.add_if_absent d.tbl data off))
    rel

(* ---- materialized fragment snapshots (the view tier's execution half) ----

   A {e fragment snapshot} is the record-and-replay image of one fragment
   UCQ evaluation: per-disjunct charge logs, the cumulative pre-dedup row
   counts the per-disjunct materialization checks observe, and the
   deduplicated result relation.  Recording never touches the recording
   engine's meters (charges go to private, unbounded logs); replaying
   through the real {!charge} on a using engine reproduces, observable
   for observable, what {!eval_ucq_fragment} would have done for a
   structurally identical UCQ on the same store state — the same charge
   stream, the same budget-failure point, the same materialization
   checks, the same rows in the same order.  This is what lets a
   materialized view stand in for a fragment's reformulate+scan pipeline
   without perturbing any engine-profile semantics: charges depend only
   on the store's selections and the statistics-driven plan order, never
   on the profile, so one snapshot serves every profile (each applies its
   own limits at replay time). *)

type fragment_snapshot = {
  fs_terms : int;  (* [Ucq.cardinal] at record time *)
  fs_arity : int;
  fs_logs : charge_log array;  (* one untruncated log per disjunct *)
  fs_cum : int array;  (* accumulated pre-dedup rows after each disjunct *)
  fs_pre : int;  (* total pre-dedup rows *)
  fs_rel : Relation.t;  (* deduplicated result; never mutated *)
}

let snapshot_rows s = Relation.rows s.fs_rel
let snapshot_terms s = s.fs_terms
let snapshot_arity s = s.fs_arity

let snapshot_bytes s =
  let log_words =
    Array.fold_left
      (fun acc l -> acc + (2 * Store.Intvec.length l.cvals) + 4)
      0 s.fs_logs
  in
  8
  * ((Relation.rows s.fs_rel * Relation.cols s.fs_rel)
    + log_words + Array.length s.fs_cum + 8)

(* Forces plan compilation for a fragment, including the on-demand
   dictionary encoding of reformulation-head constants [compile] performs.
   Charge-free.  The view layer calls this for {e every} candidate
   fragment before recording any snapshot: compile-time encodes grow the
   dictionary, and a body constant that is absent compiles to no plan
   (zero charges) while the same constant present-but-empty scans one
   empty selection (one charge) — so recorded charge streams are only
   stable once all such encodes have happened. *)
let prepare_fragment t (u : Ucq.t) = ignore (ucq_plans t u)

(* Materializes one fragment UCQ into a snapshot.  Sequential on purpose:
   the plain [exec_cq] per disjunct is the canonical charge stream the
   morsel and fan-out paths are bit-identical to.  The recording engine's
   own counters are untouched — materialization is charge-invisible, so a
   workload's operation totals are identical with the view tier on or
   off. *)
let record_fragment t (u : Ucq.t) =
  let plans = ucq_plans t u in
  let n = Array.length plans in
  let sink = dedup_sink ~cols:(Ucq.arity u) in
  let logs = Array.init n (fun _ -> charge_log max_int) in
  let cum = Array.make n 0 in
  Array.iteri
    (fun i p ->
      (match p with
      | None -> ()
      | Some p -> exec_cq t ~charge:(record logs.(i)) p ~emit:(sink_emit sink));
      cum.(i) <- sink.pre)
    plans;
  {
    fs_terms = Ucq.cardinal u;
    fs_arity = Ucq.arity u;
    fs_logs = logs;
    fs_cum = cum;
    fs_pre = sink.pre;
    fs_rel = Relation.of_rowtable sink.tbl;
  }

(* Replays a snapshot on a using engine, mirroring [eval_ucq_fragment]
   observable for observable: the union-capacity pre-check with the using
   profile, each disjunct's charges followed by the cumulative
   materialization check, the epilogue's pre-dedup bulk charge, and the
   post-dedup ceiling check. *)
let replay_fragment_snapshot t (s : fragment_snapshot) =
  if s.fs_terms > t.profile.Profile.max_union_terms then
    fail t
      (Profile.Union_capacity
         { terms = s.fs_terms; limit = t.profile.Profile.max_union_terms });
  Array.iteri
    (fun i log ->
      replay t log;
      check_rows t s.fs_cum.(i))
    s.fs_logs;
  charge t s.fs_pre;
  check_rows t (Relation.rows s.fs_rel);
  s.fs_rel

let eval_cq t (q : Bgp.t) =
  begin_statement t;
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_cq ~context:"executor/cq" q);
  admit ~context:"executor/cq" t (Analysis.Cost_verify.Cq q);
  Obs.Span.with_ "exec.cq" @@ fun sp ->
  let tr = Obs.enabled () in
  let sink = dedup_sink ~cols:(List.length q.Bgp.head) in
  let root =
    if tr then
      Some (Obs.Op_stats.make ~label:(Bgp.to_string q) Obs.Op_stats.Cq)
    else None
  in
  (match plan_of t q with
  | None -> ()
  | Some p -> exec_cq_traced t ?stats:root p ~emit:(sink_emit sink));
  let pre = sink.pre in
  let result = Relation.of_rowtable sink.tbl in
  charge t pre;
  (match root with
  | None -> ()
  | Some node ->
      let est = Store.Statistics.cq_cardinality t.stats q in
      let rows = Relation.rows result in
      node.Obs.Op_stats.rows_out <- pre;
      node.Obs.Op_stats.est_rows <- est;
      let dedup =
        Obs.Op_stats.make ~label:"set semantics" Obs.Op_stats.Dedup
      in
      dedup.Obs.Op_stats.est_rows <- est;
      dedup.Obs.Op_stats.rows_in <- pre;
      dedup.Obs.Op_stats.rows_out <- rows;
      dedup.Obs.Op_stats.work_units <- pre;
      Obs.Op_stats.add_child dedup node;
      Obs.record_estimate ~label:"cq" ~est ~actual:(float_of_int rows);
      t.last_stats <- Some dedup;
      Obs.Span.set sp "rows" (string_of_int rows);
      Obs.Span.set sp "ops" (string_of_int t.ops));
  result

(* ---- UCQ execution ---- *)

(* Shared epilogue of the sequential and parallel fragment paths: charge
   one unit per accumulated pre-dedup row, adopt the sink's table as the
   result, enforce the materialization ceiling, and (when tracing) close
   the fragment's op-stats subtree — a Dedup root over the Union node. *)
let fragment_epilogue t ~label (u : Ucq.t) union_node sink =
  let pre = sink.pre in
  charge t pre;
  let result = Relation.of_rowtable sink.tbl in
  check_materialization t result;
  match union_node with
  | None -> (result, None)
  | Some un ->
      let est = Store.Statistics.ucq_cardinality t.stats u in
      let rows = Relation.rows result in
      un.Obs.Op_stats.rows_out <- pre;
      un.Obs.Op_stats.est_rows <- est;
      let dd =
        Obs.Op_stats.make
          ~label:(if label = "" then "set semantics" else label)
          Obs.Op_stats.Dedup
      in
      dd.Obs.Op_stats.est_rows <- est;
      dd.Obs.Op_stats.rows_in <- pre;
      dd.Obs.Op_stats.rows_out <- rows;
      dd.Obs.Op_stats.work_units <- pre;
      Obs.Op_stats.add_child dd un;
      Obs.record_estimate
        ~label:(if label = "" then "ucq" else label)
        ~est ~actual:(float_of_int rows);
      (result, Some dd)

(* Evaluates one fragment UCQ; when tracing, also returns the fragment's
   op-stats subtree (Dedup over Union over per-disjunct CQ pipelines),
   labelled [label].  The charge sequence is byte-for-byte that of the
   untraced path: tracing only reads counters, it never charges. *)
let eval_ucq_fragment t ?(label = "") (u : Ucq.t) =
  let terms = Ucq.cardinal u in
  if terms > t.profile.Profile.max_union_terms then
    fail t
      (Profile.Union_capacity
         { terms; limit = t.profile.Profile.max_union_terms });
  let tr = Obs.enabled () in
  let sink = dedup_sink ~cols:(Ucq.arity u) in
  let emit = sink_emit sink in
  let union_node =
    if tr then
      Some
        (Obs.Op_stats.make
           ~label:(Printf.sprintf "%d disjuncts" terms)
           Obs.Op_stats.Union)
    else None
  in
  let disjuncts = if tr then Array.of_list (Ucq.disjuncts u) else [||] in
  Array.iteri
    (fun i p ->
      (match p with
      | None -> ()
      | Some p -> (
          match union_node with
          | None -> exec_cq_auto t p ~emit
          | Some un ->
              let before = sink.pre in
              let cq = disjuncts.(i) in
              let est = Store.Statistics.cq_cardinality t.stats cq in
              let cqn =
                Obs.Op_stats.make ~label:(Bgp.to_string cq) ~est_rows:est
                  Obs.Op_stats.Cq
              in
              Obs.Op_stats.add_child un cqn;
              exec_cq_traced t ~stats:cqn p ~emit;
              cqn.Obs.Op_stats.rows_out <- sink.pre - before;
              Obs.record_estimate ~label:"cq" ~est
                ~actual:(float_of_int cqn.Obs.Op_stats.rows_out)));
      check_rows t sink.pre)
    (ucq_plans t u);
  fragment_epilogue t ~label u union_node sink

(* ---- parallel UCQ/JUCQ evaluation ----

   Disjunct fan-out over the pool, under the record-and-replay scheme
   documented at the charge-log machinery above. *)

type disjunct_result = {
  drel : Relation.t;  (* the disjunct's distinct rows, first occurrences in
                         emission order *)
  dpre : int;  (* the disjunct's emitted (pre-dedup) row count *)
  dlog : charge_log;
  dctr : cq_counters option;  (* scan counters, when tracing *)
}

(* The worker-side task: pure with respect to the executor (only immutable
   snapshot reads of the store; charges go to the local log, rows to a
   local dedup sink, scan counters to a local record).  Runs on any
   domain.  Dropping a disjunct's own repeats early changes nothing the
   coordinator observes: a row repeated within one disjunct is never a
   first occurrence of the fragment, and the pre-dedup count travels as
   an int. *)
let eval_disjunct t ~cols ~tracing (p : plan option) =
  let sink = dedup_sink ~cols in
  let log = charge_log t.profile.Profile.max_operations in
  let ctr =
    match (tracing, p) with
    | true, Some p -> Some (fresh_counters (max 1 (Array.length p.porder)))
    | _ -> None
  in
  (match p with
  | None -> ()
  | Some p -> (
      try
        exec_cq t ?counters:ctr ~charge:(record log) p ~emit:(sink_emit sink)
      with Charge_overrun -> ()));
  {
    drel = Relation.of_rowtable sink.tbl;
    dpre = sink.pre;
    dlog = log;
    dctr = ctr;
  }

(* Coordinator-side merge of pre-evaluated disjuncts, in canonical
   (sequential) order.  Mirrors [eval_ucq_fragment] observable-for-
   observable: replayed charges, per-disjunct materialization checks, the
   op-stats tree and the estimate stream all happen in the same order with
   the same values. *)
let merge_fragment t ?(label = "") (u : Ucq.t) (plans : plan option array)
    (results : disjunct_result array) =
  let tr = Obs.enabled () in
  let sink = dedup_sink ~cols:(Ucq.arity u) in
  let union_node =
    if tr then
      Some
        (Obs.Op_stats.make
           ~label:(Printf.sprintf "%d disjuncts" (Ucq.cardinal u))
           Obs.Op_stats.Union)
    else None
  in
  let disjuncts = if tr then Array.of_list (Ucq.disjuncts u) else [||] in
  Array.iteri
    (fun i p ->
      (match p with
      | None -> ()
      | Some plan -> (
          let d = results.(i) in
          match union_node with
          | None ->
              replay t d.dlog;
              sink_merge sink ~rows:d.dpre d.drel
          | Some un ->
              let cq = disjuncts.(i) in
              let est = Store.Statistics.cq_cardinality t.stats cq in
              let cqn =
                Obs.Op_stats.make ~label:(Bgp.to_string cq) ~est_rows:est
                  Obs.Op_stats.Cq
              in
              Obs.Op_stats.add_child un cqn;
              (* As in the sequential traced path, the scan chain is
                 attached even when the replay dies on the budget — failed
                 statements keep a partial EXPLAIN. *)
              Fun.protect
                ~finally:(fun () ->
                  match d.dctr with
                  | Some ctr -> attach_scan_chain plan ctr cqn
                  | None -> ())
                (fun () -> replay t d.dlog);
              sink_merge sink ~rows:d.dpre d.drel;
              cqn.Obs.Op_stats.rows_out <- d.dpre;
              Obs.record_estimate ~label:"cq" ~est
                ~actual:(float_of_int d.dpre)));
      check_rows t sink.pre)
    plans;
  fragment_epilogue t ~label u union_node sink

(* Parallel counterpart of [eval_ucq_fragment]: compile on the coordinator,
   fan the disjuncts out over the pool, merge in order. *)
let eval_ucq_fragment_par t pool ?(label = "") (u : Ucq.t) =
  let terms = Ucq.cardinal u in
  if terms > t.profile.Profile.max_union_terms then
    fail t
      (Profile.Union_capacity
         { terms; limit = t.profile.Profile.max_union_terms });
  let plans = ucq_plans t u in
  let tr = Obs.enabled () in
  let cols = Ucq.arity u in
  let results =
    Par.parallel_map pool (eval_disjunct t ~cols ~tracing:tr) plans
  in
  merge_fragment t ~label u plans results

let eval_ucq t u =
  begin_statement t;
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_ucq ~context:"executor/ucq" u);
  admit ~context:"executor/ucq" t (Analysis.Cost_verify.Ucq u);
  Obs.Span.with_ "exec.ucq" @@ fun sp ->
  let pool = Par.get () in
  let result, tree =
    if Par.jobs pool <= 1 || Ucq.cardinal u <= 1 then
      eval_ucq_fragment t ~label:"ucq" u
    else eval_ucq_fragment_par t pool ~label:"ucq" u
  in
  (match tree with
  | None -> ()
  | Some dd ->
      t.last_stats <- Some dd;
      Obs.Span.set sp "union_terms" (string_of_int (Ucq.cardinal u));
      Obs.Span.set sp "rows" (string_of_int (Relation.rows result));
      Obs.Span.set sp "ops" (string_of_int t.ops));
  result

(* ---- joins ---- *)

type named_rel = { columns : string list; rel : Relation.t }

let positions columns names =
  List.map
    (fun v ->
      let rec go i = function
        | [] -> assert false
        | c :: _ when String.equal c v -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 columns)
    names

(* Hash join on the shared columns.  The hash table is built on the
   {e smaller} input and probed with the larger — the accumulated
   multi-fragment join result is usually the larger side, and building on
   it was a classic build-side inversion.  Distinct keys are entries of a
   specialized {!Rowtable}; the build rows sharing a key are chained
   through a [next] array by row index (the entry's payload int is the
   chain head).  Whatever the orientation, the output schema stays
   [a.columns @ b_only] and the work accounting is unchanged: one unit per
   input row on either side plus one per output row — exactly the charges
   of the always-build-on-[b] implementation, so engine-failure behaviour
   is preserved. *)
let hash_join ?stats t a b =
  let shared = List.filter (fun v -> List.mem v b.columns) a.columns in
  let b_only = List.filter (fun v -> not (List.mem v shared)) b.columns in
  let key_a = Array.of_list (positions a.columns shared)
  and key_b = Array.of_list (positions b.columns shared)
  and pay_b = Array.of_list (positions b.columns b_only) in
  let na_cols = List.length a.columns in
  let npay = Array.length pay_b in
  let nkeys = Array.length key_a in
  let out = Relation.create ~cols:(na_cols + npay) in
  let adata = Relation.unsafe_data a.rel
  and bdata = Relation.unsafe_data b.rel in
  let bcols = Relation.cols b.rel in
  let build_on_b = Relation.rows b.rel <= Relation.rows a.rel in
  let build_rel, build_key, build_data, build_cols =
    if build_on_b then (b.rel, key_b, bdata, bcols)
    else (a.rel, key_a, adata, na_cols)
  in
  let nbuild = Relation.rows build_rel in
  let probe_rel, probe_key =
    if build_on_b then (a.rel, key_a) else (b.rel, key_b)
  in
  let nprobe = Relation.rows probe_rel in
  (* Projects one (probe offset, build row) match into a row of [dst]. *)
  let emit_pair dst buf poff i =
    let aoff, boff =
      if build_on_b then (poff, i * bcols) else (i * na_cols, poff)
    in
    Store.Intvec.blit_ints adata aoff buf 0 na_cols;
    for j = 0 to npay - 1 do
      buf.(na_cols + j) <- bdata.(boff + Array.unsafe_get pay_b j)
    done;
    Relation.append dst buf
  in
  let pool = Par.get () in
  let msize = Profile.morsel_size t.profile in
  if Par.jobs pool > 1 && (not (Par.is_busy pool)) && nprobe > msize
     && nbuild > 0
  then begin
    (* ---- partitioned path ----
       (a) The build side's budget charges, issued exactly as the
       sequential build loop issues them — they are its only observable
       effects, so a budget trip mid-build fires at the identical call. *)
    for _ = 1 to nbuild do
      charge t 1
    done;
    (* (b) Radix-partitioned build: worker [pid] scans every build row in
       global order and inserts those whose key hashes to its partition,
       so each key's bucket chain is exactly the sequential chain (LIFO by
       global build-row index).  [next] is shared — a row index is written
       by the one partition owning its key, so writes are disjoint and the
       fan-out barrier publishes them.  Per-partition insert/collision
       counts sum to the sequential totals: each distinct key lives in
       exactly one partition. *)
    let parts = Par.jobs pool in
    let next = Array.make (max 1 nbuild) (-1) in
    let builds =
      Par.parallel_map pool
        (fun pid ->
          let tbl =
            Rowtable.create ~width:nkeys
              ~capacity:(max 16 (nbuild / parts))
              ()
          in
          let kbuf = Array.make (max 1 nkeys) 0 in
          let inserts = ref 0 and collisions = ref 0 in
          for i = 0 to nbuild - 1 do
            let off = i * build_cols in
            for j = 0 to nkeys - 1 do
              kbuf.(j) <- build_data.(off + Array.unsafe_get build_key j)
            done;
            if Morsel.partition_of ~width:nkeys ~parts kbuf 0 = pid then begin
              let before = Rowtable.length tbl in
              let e = Rowtable.find_or_add tbl kbuf 0 in
              if Rowtable.length tbl > before then incr inserts
              else incr collisions;
              next.(i) <- Rowtable.value tbl e;
              Rowtable.set_value tbl e i
            end
          done;
          (tbl, !inserts, !collisions))
        (Array.init parts Fun.id)
    in
    (match stats with
    | Some node ->
        Array.iter
          (fun (_, ins, coll) ->
            node.Obs.Op_stats.hash_inserts <-
              node.Obs.Op_stats.hash_inserts + ins;
            node.Obs.Op_stats.hash_collisions <-
              node.Obs.Op_stats.hash_collisions + coll)
          builds
    | None -> ());
    (* (c) Probe morsels: each worker routes its probe rows to their
       partitions' (now read-only) tables, chases the chains into a
       private relation, and records the per-row charges; the coordinator
       replays log then rows in morsel-index order — identical output
       order, charge stream and failure point as the sequential probe
       loop. *)
    let nmorsels = (nprobe + msize - 1) / msize in
    let pcols = Relation.cols probe_rel in
    let pdata = Relation.unsafe_data probe_rel in
    let probes =
      Par.parallel_map pool
        (fun m ->
          let lo = m * msize in
          let hi = min nprobe (lo + msize) in
          let rel = Relation.create ~cols:(na_cols + npay) in
          let log = charge_log t.profile.Profile.max_operations in
          let kbuf = Array.make (max 1 nkeys) 0 in
          let buf = Array.make (na_cols + npay) 0 in
          (try
             for r = lo to hi - 1 do
               let poff = r * pcols in
               record log 1;
               for j = 0 to nkeys - 1 do
                 kbuf.(j) <- pdata.(poff + Array.unsafe_get probe_key j)
               done;
               let tbl, _, _ =
                 builds.(Morsel.partition_of ~width:nkeys ~parts kbuf 0)
               in
               let e = Rowtable.find tbl kbuf 0 in
               if e >= 0 then begin
                 let rec chase i =
                   if i >= 0 then begin
                     record log 1;
                     emit_pair rel buf poff i;
                     chase next.(i)
                   end
                 in
                 chase (Rowtable.value tbl e)
               end
             done
           with Charge_overrun -> ());
          (rel, log))
        (Array.init nmorsels Fun.id)
    in
    (match stats with
    | Some node ->
        node.Obs.Op_stats.morsels <- node.Obs.Op_stats.morsels + nmorsels;
        Array.iter
          (fun (rel, _) ->
            node.Obs.Op_stats.max_worker_rows <-
              max node.Obs.Op_stats.max_worker_rows (Relation.rows rel))
          probes
    | None -> ());
    Array.iter
      (fun (rel, log) ->
        replay t log;
        Relation.append_all out rel)
      probes
  end
  else begin
    (* ---- sequential path ---- *)
    let tbl = Rowtable.create ~width:nkeys ~capacity:(max 16 nbuild) () in
    let next = Array.make (max 1 nbuild) (-1) in
    let kbuf = Array.make (max 1 nkeys) 0 in
    let buf = Array.make (na_cols + npay) 0 in
    for i = 0 to nbuild - 1 do
      charge t 1;
      let off = i * build_cols in
      for j = 0 to nkeys - 1 do
        kbuf.(j) <- build_data.(off + Array.unsafe_get build_key j)
      done;
      let e =
        match stats with
        | None -> Rowtable.find_or_add tbl kbuf 0
        | Some node ->
            let before = Rowtable.length tbl in
            let e = Rowtable.find_or_add tbl kbuf 0 in
            if Rowtable.length tbl > before then
              node.Obs.Op_stats.hash_inserts <-
                node.Obs.Op_stats.hash_inserts + 1
            else
              node.Obs.Op_stats.hash_collisions <-
                node.Obs.Op_stats.hash_collisions + 1;
            e
      in
      next.(i) <- Rowtable.value tbl e;
      Rowtable.set_value tbl e i
    done;
    Relation.iteri_flat
      (fun _ pdata poff ->
        charge t 1;
        for j = 0 to nkeys - 1 do
          kbuf.(j) <- pdata.(poff + Array.unsafe_get probe_key j)
        done;
        let e = Rowtable.find tbl kbuf 0 in
        if e >= 0 then begin
          let rec chase i =
            if i >= 0 then begin
              charge t 1;
              emit_pair out buf poff i;
              chase next.(i)
            end
          in
          chase (Rowtable.value tbl e)
        end)
      probe_rel
  end;
  check_materialization t out;
  (match stats with
  | None -> ()
  | Some node ->
      let na = Relation.rows a.rel and nb = Relation.rows b.rel in
      node.Obs.Op_stats.rows_in <- na + nb;
      node.Obs.Op_stats.index_probes <-
        nprobe + node.Obs.Op_stats.index_probes;
      node.Obs.Op_stats.rows_out <- Relation.rows out;
      node.Obs.Op_stats.work_units <- na + nb + Relation.rows out);
  { columns = a.columns @ b_only; rel = out }

let block_nested_loop_join ?stats t a b =
  let shared = List.filter (fun v -> List.mem v b.columns) a.columns in
  let b_only = List.filter (fun v -> not (List.mem v shared)) b.columns in
  let key_a = Array.of_list (positions a.columns shared)
  and key_b = Array.of_list (positions b.columns shared)
  and pay_b = Array.of_list (positions b.columns b_only) in
  let na_cols = List.length a.columns in
  let out = Relation.create ~cols:(na_cols + Array.length pay_b) in
  let nb = Relation.rows b.rel in
  (* the quadratic rescan of the inner relation is the point of this
     profile; it runs on the flat backing array, no row materialization *)
  let bdata = Relation.unsafe_data b.rel in
  let bcols = Relation.cols b.rel in
  let nkeys = Array.length key_a in
  let npay = Array.length pay_b in
  let buf = Array.make (na_cols + npay) 0 in
  Relation.iteri_flat
    (fun _ adata aoff ->
      charge t nb;
      for i = 0 to nb - 1 do
        let boff = i * bcols in
        let rec matches k =
          k >= nkeys
          || adata.(aoff + Array.unsafe_get key_a k)
             = bdata.(boff + Array.unsafe_get key_b k)
             && matches (k + 1)
        in
        if matches 0 then begin
          Store.Intvec.blit_ints adata aoff buf 0 na_cols;
          for j = 0 to npay - 1 do
            buf.(na_cols + j) <- bdata.(boff + Array.unsafe_get pay_b j)
          done;
          Relation.append out buf
        end
      done)
    a.rel;
  check_materialization t out;
  (match stats with
  | None -> ()
  | Some node ->
      let na = Relation.rows a.rel in
      node.Obs.Op_stats.rows_in <- na + nb;
      node.Obs.Op_stats.rows_out <- Relation.rows out;
      node.Obs.Op_stats.work_units <- na * nb);
  { columns = a.columns @ b_only; rel = out }

let join ?stats t a b =
  match t.profile.Profile.fragment_join with
  | Profile.Hash_join -> hash_join ?stats t a b
  | Profile.Block_nested_loop -> block_nested_loop_join ?stats t a b

(* ---- JUCQ execution ---- *)

(* A fragment (or partial join result) threaded through the greedy join
   order, carrying what tracing needs: the cover-query atoms it answers
   (for join-output cardinality estimates) and its op-stats subtree. *)
type jinput = {
  jnr : named_rel;
  jatoms : Bgp.atom list;  (* [] when tracing is off *)
  jtree : Obs.Op_stats.t option;
}

(* §4.1-style estimate for an intermediate join result: the cardinality of
   the CQ whose body is the union of the joined fragments' cover-query
   atoms, projected on the result columns. *)
let join_estimate t columns atoms =
  match atoms with
  | [] -> -1.0
  | _ ->
      let avars =
        List.concat_map (fun a -> Bgp.atom_vars a) atoms
        |> List.sort_uniq String.compare
      in
      let head =
        List.filter_map
          (fun v -> if List.mem v avars then Some (Bgp.Var v) else None)
          columns
      in
      (match head with
      | [] -> 1.0
      | _ -> Store.Statistics.cq_cardinality t.stats (Bgp.make head atoms))

(* Mirrors {!Core.Cost_model.final_result_estimate}: the JUCQ result equals
   the original query's answer, estimated from the union of all fragment
   bodies. *)
let jucq_final_estimate t (j : Jucq.t) =
  let atoms =
    List.concat_map (fun ((cq : Bgp.t), _) -> cq.Bgp.body) j.Jucq.fragments
    |> List.sort_uniq Bgp.atom_compare
  in
  let head_vars =
    List.filter_map
      (function Bgp.Var v -> Some (Bgp.Var v) | Bgp.Const _ -> None)
      j.Jucq.head
  in
  match head_vars with
  | [] -> 1.0
  | _ -> Store.Statistics.cq_cardinality t.stats (Bgp.make head_vars atoms)

let eval_jucq ?views t (j : Jucq.t) =
  begin_statement t;
  (* Static plan verification (test/debug builds and RDFQA_VERIFY=1): a
     schema or arity violation in a compiled plan must reject the
     statement, not silently produce wrong answers. *)
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_jucq ~context:"executor/jucq" j);
  admit ~context:"executor/jucq" t (Analysis.Cost_verify.Jucq j);
  (* Pre-check the engine's union capacity over all fragments: an RDBMS
     parses the whole statement before executing any of it. *)
  List.iter
    (fun (_, u) ->
      let terms = Ucq.cardinal u in
      if terms > t.profile.Profile.max_union_terms then
        fail t
          (Profile.Union_capacity
             { terms; limit = t.profile.Profile.max_union_terms }))
    j.Jucq.fragments;
  Obs.Span.with_ "exec.jucq" @@ fun sp ->
  let tr = Obs.enabled () in
  let pool = Par.get () in
  (* View probes are bypassed while tracing: a snapshot carries no
     per-disjunct op-stats, and the charge contract makes the fallback
     evaluation bit-identical anyway — traced statements just show the
     real pipeline. *)
  let lookup : Bgp.t * Ucq.t -> fragment_snapshot option =
    match views with Some f when not tr -> f | _ -> fun _ -> None
  in
  let hit_input (cq : Bgp.t) snap =
    let rel = replay_fragment_snapshot t snap in
    { jnr = { columns = Bgp.head_vars cq; rel }; jatoms = []; jtree = None }
  in
  let fragments =
    if Par.jobs pool <= 1 then
      List.map
        (fun ((cq : Bgp.t), u) ->
          match lookup (cq, u) with
          | Some snap -> hit_input cq snap
          | None ->
              let label = if tr then "fragment " ^ Bgp.to_string cq else "" in
              let rel, tree = eval_ucq_fragment t ~label u in
              {
                jnr = { columns = Bgp.head_vars cq; rel };
                jatoms = (if tr then cq.Bgp.body else []);
                jtree = tree;
              })
        j.Jucq.fragments
    else begin
      (* Materialize every fragment concurrently: compile all plans on the
         coordinator, flatten (fragment, disjunct) into one task batch so
         small fragments do not serialize behind large ones, then merge
         fragment by fragment in list order — the charge stream is exactly
         the sequential one.  View-served fragments never enter the task
         batch: their logs replay on the coordinator at merge position,
         exactly where the sequential path replays them. *)
      let frags =
        List.map
          (fun ((cq, u) : Bgp.t * Ucq.t) ->
            match lookup (cq, u) with
            | Some snap -> ((cq, u), `Snap snap)
            | None -> ((cq, u), `Plans (ucq_plans t u)))
          j.Jucq.fragments
      in
      let tasks =
        Array.of_list
          (List.concat_map
             (fun ((_, u), how) ->
               match how with
               | `Snap _ -> []
               | `Plans plans ->
                   let cols = Ucq.arity u in
                   Array.to_list (Array.map (fun p -> (cols, p)) plans))
             frags)
      in
      let results =
        Par.parallel_map pool
          (fun (cols, p) -> eval_disjunct t ~cols ~tracing:tr p)
          tasks
      in
      let off = ref 0 in
      List.map
        (fun (((cq : Bgp.t), u), how) ->
          match how with
          | `Snap snap -> hit_input cq snap
          | `Plans plans ->
              let k = Array.length plans in
              let slice = Array.sub results !off k in
              off := !off + k;
              let label = if tr then "fragment " ^ Bgp.to_string cq else "" in
              let rel, tree = merge_fragment t ~label u plans slice in
              {
                jnr = { columns = Bgp.head_vars cq; rel };
                jatoms = (if tr then cq.Bgp.body else []);
                jtree = tree;
              })
        frags
    end
  in
  (* Greedy join order: start from the smallest fragment, then repeatedly
     join the smallest fragment sharing a column with the accumulated
     result — what an RDBMS optimizer does to avoid cartesian products.
     Only when no remaining fragment connects (which a valid cover's join
     graph rules out except through intermediate disconnections) is a true
     product taken. *)
  let join_step acc pick =
    let stats =
      if tr then begin
        let kind =
          match t.profile.Profile.fragment_join with
          | Profile.Hash_join -> Obs.Op_stats.Hash_join
          | Profile.Block_nested_loop -> Obs.Op_stats.Bnl_join
        in
        let shared =
          List.filter (fun v -> List.mem v pick.jnr.columns) acc.jnr.columns
        in
        let node =
          Obs.Op_stats.make
            ~label:
              (match shared with
              | [] -> "cartesian product"
              | _ -> "on " ^ String.concat ", " shared)
            kind
        in
        (match acc.jtree with
        | Some x -> Obs.Op_stats.add_child node x
        | None -> ());
        (match pick.jtree with
        | Some x -> Obs.Op_stats.add_child node x
        | None -> ());
        Some node
      end
      else None
    in
    let nr = join ?stats t acc.jnr pick.jnr in
    let atoms =
      if tr then List.sort_uniq Bgp.atom_compare (acc.jatoms @ pick.jatoms)
      else []
    in
    (match stats with
    | None -> ()
    | Some node ->
        let est = join_estimate t nr.columns atoms in
        node.Obs.Op_stats.est_rows <- est;
        if est >= 0.0 then
          Obs.record_estimate ~label:"join" ~est
            ~actual:(float_of_int (Relation.rows nr.rel)));
    { jnr = nr; jatoms = atoms; jtree = stats }
  in
  let joined =
    match
      List.sort
        (fun a b ->
          Int.compare (Relation.rows a.jnr.rel) (Relation.rows b.jnr.rel))
        fragments
    with
    | [] -> invalid_arg "Executor.eval_jucq: no fragments"
    | first :: rest ->
        let connected acc f =
          List.exists (fun c -> List.mem c acc.jnr.columns) f.jnr.columns
        in
        let rec fold acc remaining =
          match remaining with
          | [] -> acc
          | _ ->
              let candidates =
                List.filter (connected acc) remaining
              in
              let pick =
                match candidates with
                | [] -> List.hd remaining
                | c :: cs ->
                    List.fold_left
                      (fun best x ->
                        if Relation.rows x.jnr.rel < Relation.rows best.jnr.rel
                        then x
                        else best)
                      c cs
              in
              let remaining' = List.filter (fun f -> f != pick) remaining in
              fold (join_step acc pick) remaining'
        in
        fold first rest
  in
  let joined, jtree = (joined.jnr, joined.jtree) in
  (* Project the original head, then deduplicate. *)
  let head_cols =
    List.map
      (function
        | Bgp.Var v -> `Col (List.hd (positions joined.columns [ v ]))
        | Bgp.Const c -> (
            match Es.encode_term t.store c with
            | Some code -> `Const code
            | None ->
                (* Constants in reformulated heads come from the schema, so
                   they are always in the dictionary; encode defensively. *)
                `Const (Rdf.Dictionary.encode (Es.dictionary t.store) c)))
      j.Jucq.head
  in
  (* Head projection fused with duplicate elimination: each joined row is
     projected into [buf] and offered to one {!Rowtable}, whose key array
     is the result ({!Relation.of_rowtable}).  The work
     accounting is that of the former materialize-then-dedup pipeline (one
     unit per joined row, then one per pre-dedup projected row — the same
     count), so the same statements fail for the same reasons.

     On a wide, non-busy pool with more joined rows than one morsel the
     projection fans out instead: the per-row charges are issued up front
     (they are the fused loop's only observable effects besides the output
     itself), morsels project into private relations that are concatenated
     in morsel order, and [Morsel.dedup] reproduces the fused loop's
     first-occurrence order exactly. *)
  let head_cols = Array.of_list head_cols in
  let nhead = Array.length head_cols in
  let njoined = Relation.rows joined.rel in
  let pool = Par.get () in
  let msize = Profile.morsel_size t.profile in
  let proj_morsels = ref 0 and proj_max = ref 0 in
  let out =
    if Par.jobs pool > 1 && (not (Par.is_busy pool)) && njoined > msize
       && nhead > 0
    then begin
      for _ = 1 to njoined do
        charge t 1
      done;
      let jdata = Relation.unsafe_data joined.rel in
      let jcols = Relation.cols joined.rel in
      let nmorsels = (njoined + msize - 1) / msize in
      let pieces =
        Par.parallel_map pool
          (fun m ->
            let lo = m * msize in
            let hi = min njoined (lo + msize) in
            let rel = Relation.create ~cols:nhead in
            let buf = Array.make nhead 0 in
            for r = lo to hi - 1 do
              let off = r * jcols in
              for i = 0 to nhead - 1 do
                buf.(i) <-
                  (match Array.unsafe_get head_cols i with
                  | `Col j' -> jdata.(off + j')
                  | `Const code -> code)
              done;
              Relation.append rel buf
            done;
            rel)
          (Array.init nmorsels Fun.id)
      in
      proj_morsels := nmorsels;
      let projected = Relation.create ~cols:nhead in
      Array.iter
        (fun rel ->
          proj_max := max !proj_max (Relation.rows rel);
          Relation.append_all projected rel)
        pieces;
      Morsel.dedup pool ~morsel:msize projected
    end
    else begin
      let buf = Array.make nhead 0 in
      let seen = Rowtable.create ~width:nhead () in
      Relation.iteri_flat
        (fun _ data off ->
          charge t 1;
          for i = 0 to nhead - 1 do
            buf.(i) <-
              (match Array.unsafe_get head_cols i with
              | `Col j' -> data.(off + j')
              | `Const code -> code)
          done;
          ignore (Rowtable.add_if_absent seen buf 0))
        joined.rel;
      Relation.of_rowtable seen
    end
  in
  charge t njoined;
  check_materialization t out;
  if tr then begin
    let pt = function
      | Bgp.Var v -> "?" ^ v
      | Bgp.Const c -> Rdf.Term.to_string c
    in
    let proj_est =
      match jtree with Some n -> n.Obs.Op_stats.est_rows | None -> -1.0
    in
    let proj =
      Obs.Op_stats.make
        ~label:(String.concat ", " (List.map pt j.Jucq.head))
        ~est_rows:proj_est Obs.Op_stats.Project
    in
    proj.Obs.Op_stats.rows_in <- njoined;
    proj.Obs.Op_stats.rows_out <- njoined;
    proj.Obs.Op_stats.work_units <- njoined;
    proj.Obs.Op_stats.morsels <- !proj_morsels;
    proj.Obs.Op_stats.max_worker_rows <- !proj_max;
    (match jtree with
    | Some x -> Obs.Op_stats.add_child proj x
    | None -> ());
    let est_final = jucq_final_estimate t j in
    let rows = Relation.rows out in
    let root =
      Obs.Op_stats.make ~label:"result" ~est_rows:est_final
        Obs.Op_stats.Result
    in
    root.Obs.Op_stats.rows_in <- njoined;
    root.Obs.Op_stats.rows_out <- rows;
    root.Obs.Op_stats.work_units <- njoined;
    Obs.Op_stats.add_child root proj;
    Obs.record_estimate ~label:"result" ~est:est_final
      ~actual:(float_of_int rows);
    t.last_stats <- Some root;
    Obs.Span.set sp "fragments"
      (string_of_int (List.length j.Jucq.fragments));
    Obs.Span.set sp "rows" (string_of_int rows);
    Obs.Span.set sp "ops" (string_of_int t.ops)
  end;
  out

(* ---- decoding ---- *)

let decode t rel =
  let d = Rdf.Dictionary.decoder (Es.dictionary t.store) in
  Relation.to_list rel
  |> List.map (fun row -> List.map d (Array.to_list row))
  |> List.sort_uniq (List.compare Rdf.Term.compare)

(* ---- engine-internal cost estimation (the EXPLAIN analogue) ---- *)

let explain_cost t (j : Jucq.t) =
  let p = t.profile in
  let cq_cost (cq : Bgp.t) =
    (* Bottom-up: every atom is an index probe per intermediate row. *)
    let card = Store.Statistics.cq_cardinality t.stats cq in
    let natoms = float_of_int (List.length cq.Bgp.body) in
    (0.05 *. natoms) +. (card *. p.Profile.c_t *. natoms)
  in
  let frag_cost (_, u) =
    let disjuncts = Ucq.disjuncts u in
    let cost = List.fold_left (fun acc cq -> acc +. cq_cost cq) 0.0 disjuncts in
    let card = Store.Statistics.ucq_cardinality t.stats u in
    cost +. (card *. (p.Profile.c_l +. p.Profile.c_m))
  in
  let frag_cards =
    List.map (fun (_, u) -> Store.Statistics.ucq_cardinality t.stats u)
      j.Jucq.fragments
  in
  let join_cost =
    match t.profile.Profile.fragment_join with
    | Profile.Hash_join ->
        List.fold_left ( +. ) 0.0 frag_cards *. p.Profile.c_j
    | Profile.Block_nested_loop ->
        (* quadratic in the two largest inputs, pairwise *)
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a *. b *. p.Profile.c_j /. 64.0) +. pairs rest
          | [ _ ] | [] -> 0.0
        in
        pairs (List.sort compare frag_cards)
  in
  p.Profile.c_db
  +. List.fold_left (fun acc f -> acc +. frag_cost f) 0.0 j.Jucq.fragments
  +. join_cost
