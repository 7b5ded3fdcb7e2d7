(* lubm-serve: an [rdfqa serve] child over LUBM-8, driven over TCP by one
   reader and one writer connection (closed loop), checked afterwards
   against an in-process replica that replays the same writes. *)

open Common
module A = Rqa.Answering
module Es = Store.Encoded_store
module P = Server.Protocol

(* ---- the child process ---- *)

let children = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid : int * Unix.process_status)
      with Unix.Unix_error _ -> ())
    !children;
  children := []

let () = at_exit kill_children

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.02;
        wait_exit pid deadline
      end
  | _, status -> Some status

(* Whether the kernel lists a SIGTERM handler for [pid] (bit 15 of the
   SigCgt mask in /proc/PID/status). *)
let sigterm_caught pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | text ->
      List.exists
        (fun l ->
          match Scanf.sscanf l "SigCgt: %Lx" Fun.id with
          | mask -> Int64.logand mask 0x4000L <> 0L
          | exception _ -> false)
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> false

(* SIGTERM drains the server; it must exit 0.  [rdfqa serve] writes its
   port file before it installs its SIGTERM handler, and a SIGTERM in
   between kills it (a set-up server is stopped right after it boots), so
   the signal waits for the handler. *)
let stop pid =
  let deadline = Unix.gettimeofday () +. 20.0 in
  while (not (sigterm_caught pid)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status =
    match wait_exit pid (Unix.gettimeofday () +. 20.0) with
    | Some s -> s
    | None ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
  in
  children := List.filter (( <> ) pid) !children;
  status = Unix.WEXITED 0

let read_port file =
  match In_channel.with_open_text file In_channel.input_all with
  | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
      int_of_string_opt (String.trim s)
  | _ -> None
  | exception Sys_error _ -> None

(* Boots the server; returns (pid, port) once it listens. *)
let boot ~rdfqa ~workdir ~data =
  let port_file = Filename.concat workdir "port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat workdir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process rdfqa
      [|
        rdfqa; "serve"; "-d"; data; "-w"; "lubm"; "-s"; "gcov"; "--cache"; "on";
        "--jobs"; "1"; "--port-file"; port_file;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec poll () =
    match read_port port_file with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "rdfqa serve exited during boot (see server.log)");
        if Unix.gettimeofday () > deadline then failwith "rdfqa serve did not boot";
        Unix.sleepf 0.005;
        poll ()
  in
  (pid, poll ())

(* ---- the wire ---- *)

type conn = { ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc (P.request_to_line line);
  output_char c.oc '\n';
  flush c.oc

(* Status line and payload (unstuffed lines, each newline-terminated). *)
let receive c =
  let status = input_line c.ic in
  let b = Buffer.create 4096 in
  let rec loop n =
    let line = input_line c.ic in
    if line = P.terminator then n
    else begin
      Buffer.add_string b (P.unstuff line);
      Buffer.add_char b '\n';
      loop (n + 1)
    end
  in
  let n = loop 0 in
  (status, b, n)

(* [k=v] fields of an [OK ...] status line. *)
let field status key =
  List.find_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.sub kv 0 i = key ->
          Some (String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> None)
    (String.split_on_char ' ' status)

let ok status = String.length status >= 2 && String.sub status 0 2 = "OK"
let float_field s k = Option.fold ~none:0.0 ~some:float_of_string (field s k)
let int_field s k = Option.fold ~none:(-1) ~some:int_of_string (field s k)

(* ---- the traffic ---- *)

(* Q06 (?x a Person . ?x memberOf ?o) travels with every write: the read
   the writer has to drain.  It is kept out of the read segments, so tier 3 never
   holds it when a write arrives and every write drains the same cold
   evaluation. *)
let probe = "Q06"

(* The reads of one cycle: Q05 and then the other queries in paper order
   get Zipf counts round(120 / rank^2), at least one each (202 reads, 59%
   of them Q05), dealt round-robin into [writes_per_cycle] segments.  The
   hot query returns 960 rows, so its round trip is decode, encode and
   wire work; a smaller one's would be a sub-millisecond wake-up, which on
   a shared host swings 2.5x between runs.  A write (with its probe)
   follows each segment, so a query's first read in a segment misses tier
   3, which the write flushed, and its repeats hit.  The seed only shuffles
   reads within a segment: the mix, which reads miss, and so the cycle's
   cost are the same for every seed. *)
let hot = "Q05"
let writes_per_cycle = 4

let segments names =
  let reads =
    List.concat
      (List.mapi
         (fun i n ->
           let c = Float.round (120.0 /. float_of_int ((i + 1) * (i + 1))) in
           List.init (max 1 (int_of_float c)) (fun _ -> n))
         (hot :: List.filter (fun n -> n <> probe && n <> hot) names))
  in
  List.init writes_per_cycle (fun k ->
      List.filteri (fun j _ -> j mod writes_per_cycle = k) reads)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type read = {
  query : string;
  rtt_ms : float;
  status : string;
  rows : int;
  payload : string;  (* digest of the payload *)
}

type write = { insert : bool; wrtt_ms : float; wstatus : string }

let min_reads = 1000
let boots = 2

let sparql_line q = String.map (function '\n' | '\r' -> ' ' | c -> c) (Query.Sparql.to_sparql q)

let lubm_serve ~rdfqa ~workdir ~seed ~seconds ~trace =
  let o = outcome () in
  let data = Filename.concat workdir "lubm.nt" in
  let facts = Filename.concat workdir "facts.nt" in
  Rdf.Ntriples.save_file facts (Rdf.Graph.make Rdf.Schema.empty Inproc.small_write);
  (* set-up: generate, write the data file, boot; repeated, the last
     server is the one measured *)
  let boot_once () =
    let t0 = now_ms () in
    let g, gen_ms = time_ms (fun () -> Inproc.lubm_graph ~seed) in
    Rdf.Ntriples.save_file data g;
    let pid, port = boot ~rdfqa ~workdir ~data in
    (pid, port, (now_ms () -. t0) /. 1000.0, gen_ms)
  in
  let rec boots_loop n acc =
    let (pid, port, s, gen) = boot_once () in
    if n <= 1 then ((pid, port), List.rev ((s, gen) :: acc))
    else begin
      if not (stop pid) then fail o "server boot %d did not drain cleanly" n;
      boots_loop (n - 1) ((s, gen) :: acc)
    end
  in
  let (pid, port), setups = boots_loop boots [] in
  let texts =
    List.map (fun (n, q) -> (n, sparql_line q)) Workloads.Lubm.queries
  in
  let text n = List.assoc n texts in
  let base_segments = segments (List.map fst texts) in
  let reader = connect port and writer = connect port in
  let lock = Mutex.create () and cond = Condition.create () in
  let go = ref false and done_ = ref false and quit = ref false in
  let writes = ref [] and stats = ref [] in
  let writer_main () =
    let rec loop insert =
      Mutex.lock lock;
      while not (!go || !quit) do Condition.wait cond lock done;
      let stop_now = !quit && not !go in
      go := false;
      Mutex.unlock lock;
      if not stop_now then begin
        let t0 = now_ms () in
        send writer (if insert then P.Insert facts else P.Delete facts);
        let status, _, _ = receive writer in
        let w = { insert; wrtt_ms = now_ms () -. t0; wstatus = status } in
        if trace then begin
          let t1 = now_ms () in
          send writer P.Stats;
          let st, payload, _ = receive writer in
          if ok st then stats := (now_ms () -. t1, Buffer.contents payload) :: !stats
        end;
        Mutex.lock lock;
        writes := w :: !writes;
        done_ := true;
        Condition.broadcast cond;
        Mutex.unlock lock;
        loop (not insert)
      end
    in
    loop true
  in
  let wthread = Thread.create writer_main () in
  let st = Random.State.make [| seed |] in
  let reads = ref [] and cycles = ref [] in
  let finish_read query t0 =
    let status, payload, rows = receive reader in
    let rtt = now_ms () -. t0 in
    let digest = Digest.to_hex (Digest.string (Buffer.contents payload)) in
    reads := { query; rtt_ms = rtt; status; rows; payload = digest } :: !reads
  in
  let start = now_ms () in
  let yardstick = ref 0.0 and write_waits = ref [] in
  (* the probe read is in flight when the write arrives *)
  let write_with_probe () =
    let t0 = now_ms () in
    send reader (P.Query { strategy = None; text = text probe });
    Mutex.lock lock;
    go := true;
    done_ := false;
    Condition.broadcast cond;
    Mutex.unlock lock;
    finish_read probe t0;
    let t1 = now_ms () in
    Mutex.lock lock;
    while not !done_ do Condition.wait cond lock done;
    Mutex.unlock lock;
    write_waits := (now_ms () -. t1) :: !write_waits;
    let t = now_ms () in
    sample_speed ();
    yardstick := !yardstick +. (now_ms () -. t)
  in
  let rec cycle () =
    let c0 = now_ms () and y0 = !yardstick in
    List.iter
      (fun segment ->
        List.iter
          (fun n ->
            let t0 = now_ms () in
            send reader (P.Query { strategy = None; text = text n });
            finish_read n t0)
          (shuffle st segment);
        write_with_probe ())
      base_segments;
    cycles := (now_ms () -. c0 -. (!yardstick -. y0)) :: !cycles;
    if List.length !reads < min_reads || now_ms () -. start < seconds *. 1000.0 then
      cycle ()
  in
  cycle ();
  let window_s = (now_ms () -. start -. !yardstick) /. 1000.0 in
  Mutex.lock lock;
  quit := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  Thread.join wthread;
  send writer P.Stats;
  let final_stats, final_payload, _ = receive writer in
  let peak = peak_rss_mb pid in
  send reader P.Quit;
  send writer P.Quit;
  if not (stop pid) then fail o "server did not drain cleanly on SIGTERM";
  let reads = List.rev !reads and writes = List.rev !writes in
  (* ---- correctness: an in-process replica of the same store receives
     the same writes; every read's rows must equal the replica's answer
     in the state the read saw (data version from its status line) ---- *)
  let replica, load_ms =
    time_ms (fun () ->
        let g = Rdf.Ntriples.load_file data in
        Es.of_graph (Rdf.Graph.make Workloads.Lubm.schema (Rdf.Graph.fact_list g)))
  in
  let rsys = A.make replica in
  let warm_ms =
    if trace then snd (time_ms (fun () -> A.warm_up rsys (List.map snd Workloads.Lubm.queries)))
    else 0.0
  in
  let fact_triples =
    let g = Rdf.Ntriples.load_file facts in
    Rdf.Graph.fact_list g
  in
  (* data version after each write, as the server reported it *)
  let applied = ref 0 and store_ms = ref [] in
  let writes_arr = Array.of_list writes in
  let advance_to dv =
    while
      !applied < Array.length writes_arr
      && int_field writes_arr.(!applied).wstatus "dv" <= dv
    do
      let w = writes_arr.(!applied) in
      let _, ms =
        time_ms (fun () ->
            (if w.insert then Es.insert_triples else Es.delete_triples) replica fact_triples)
      in
      store_ms := ms :: !store_ms;
      if Es.data_version replica <> int_field w.wstatus "dv" then
        fail o "replica data version %d after write %d, server reported %s"
          (Es.data_version replica) !applied w.wstatus;
      incr applied
    done
  in
  let expected = Hashtbl.create 64 in
  let expect n =
    let key = (n, !applied mod 2) in
    match Hashtbl.find_opt expected key with
    | Some d -> d
    | None ->
        let q = Query.Sparql.parse (text n) in
        let rows = A.answer_terms rsys A.Gcov q in
        let b = Buffer.create 4096 in
        List.iter
          (fun row ->
            Buffer.add_string b (P.encode_row (List.map Rdf.Term.to_string row));
            Buffer.add_char b '\n')
          rows;
        let d = Digest.to_hex (Digest.string (Buffer.contents b)) in
        Hashtbl.replace expected key d;
        d
  in
  let by_dv =
    List.stable_sort
      (fun a b -> compare (int_field a.status "dv") (int_field b.status "dv"))
      reads
  in
  List.iter
    (fun r ->
      o.attempted <- o.attempted + 1;
      if not (ok r.status) then fail o "%s: %s" r.query r.status
      else begin
        advance_to (int_field r.status "dv");
        if Es.data_version replica <> int_field r.status "dv" then
          fail o "%s: read at dv %d, replica at %d" r.query
            (int_field r.status "dv") (Es.data_version replica)
        else if expect r.query <> r.payload then
          fail o "%s: rows differ from the replica at dv %d" r.query
            (Es.data_version replica)
      end)
    by_dv;
  List.iter
    (fun w ->
      o.attempted <- o.attempted + 1;
      if not (ok w.wstatus) then fail o "write: %s" w.wstatus)
    writes;
  if not (ok final_stats) then fail o "STATS: %s" final_stats;
  (* ---- metrics ---- *)
  let rtts = List.map (fun r -> r.rtt_ms) reads in
  let planning = List.map (fun r -> float_field r.status "planning_ms") reads in
  let execution = List.map (fun r -> float_field r.status "execution_ms") reads in
  let residual = List.map2 (fun r (p, e) -> r -. p -. e) rtts (List.combine planning execution) in
  let rows = List.fold_left (fun s r -> s + r.rows) 0 reads in
  let write_rtts = List.map (fun w -> w.wrtt_ms) writes in
  let stat_lines payload = String.split_on_char '\n' payload in
  let stat payload key =
    List.find_map
      (fun l ->
        match String.index_opt l '=' with
        | Some i when String.sub l 0 i = key ->
            Some (String.sub l (i + 1) (String.length l - i - 1))
        | _ -> None)
      (stat_lines payload)
  in
  (* the [cache=] line renders each tier as
     "<name> <hits>/<lookups> hits (<entries> entries[, <n> B][, <n> evicted])" *)
  let tier payload name =
    let parse part =
      match Scanf.sscanf (String.trim part) "%s %d/%d hits" (fun n h l -> (n, h, l)) with
      | n, h, l when n = name ->
          let evicted =
            List.find_map
              (fun s -> try Some (Scanf.sscanf s " %d evicted" Fun.id) with _ -> None)
              (String.split_on_char ',' part)
          in
          Some (h, l, Option.value ~default:0 evicted)
      | _ -> None
      | exception _ -> None
    in
    Option.value ~default:(0, 0, 0)
      (Option.bind (stat payload "cache") (fun line ->
           List.find_map parse (String.split_on_char ';' line)))
  in
  let final = Buffer.contents final_payload in
  let hit_ratio name = let h, l, _ = tier final name in ratio h l in
  let evictions =
    List.fold_left (fun s n -> let _, _, e = tier final n in s + e) 0
      [ "reformulation"; "cover"; "answers" ]
  in
  let waiting =
    List.fold_left
      (fun s (_, p) ->
        max s (Option.fold ~none:0 ~some:int_of_string (stat p "waiting_writers")))
      0 !stats
  in
  let stats_ms = sum (List.map fst !stats) in
  let n_reads = List.length reads in
  let setup_s = median (List.map fst setups) in
  let counts =
    [
      ("server.reads", n_reads);
      ("server.writes", List.length writes);
      ("server.rows", rows);
      ("server.epoch_writes",
        Option.fold ~none:(-1) ~some:int_of_string (stat final "writes"));
    ]
  in
  let zero = Inproc.zero in
  {
    outcome = o;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "pass_s" "s" (median !cycles /. 1000.0);
        m "served_qps" "1/s" (float_of_int n_reads /. window_s);
        m "query_p50_ms" "ms" (percentile 50.0 rtts);
        m "query_p90_ms" "ms" (percentile 90.0 rtts);
        m "query_p99_ms" "ms" (percentile 99.0 rtts);
        m "write_p50_ms" "ms" (median write_rtts);
        m "ok_share" "ratio" (1.0 -. ratio o.failed o.attempted);
        m "peak_rss_mb" "MB" peak;
      ];
    per_layer =
      [
        m "workloads.generate_ms" "ms" (median (List.map snd setups));
        m "store.load_ms" "ms" load_ms;
        m "core.warm_up_ms" "ms" warm_ms;
        m "views.select_ms" "ms" 0.0;
      ]
      @ zero
          [
            ("core.system_ms", "ms");
            ("reformulation.ms", "ms");
            ("reformulation.calls", "count");
            ("reformulation.union_terms", "count");
            ("core.search_ms", "ms");
            ("core.covers_explored", "count");
            ("core.cost_ms", "ms");
            ("core.cost_calls", "count");
            ("query.jucq_build_ms", "ms");
            ("engine.exec_ms", "ms");
            ("engine.operations", "count");
            ("engine.rows_out", "count");
            ("engine.ops_per_row", "ratio");
            ("engine.decode_ms", "ms");
          ]
      @ [
          m "obs.trace_overhead_ms" "ms"
            (if !cycles = [] then 0.0 else stats_ms /. float_of_int (List.length !cycles));
          (* the reader's time in read round trips or waiting for the
             write after its probe returned, over its cycle time; the
             rest is client-side work between requests *)
          m "obs.layer_sum_share" "ratio"
            (let s = sum !cycles in
             if s > 0.0 then (sum rtts +. sum !write_waits) /. s else 0.0);
          m "cache.reformulation_hit_ratio" "ratio" (hit_ratio "reformulation");
          m "cache.cover_hit_ratio" "ratio" (hit_ratio "cover");
          m "cache.answer_hit_ratio" "ratio" (hit_ratio "answers");
          m "cache.evictions" "count" (float_of_int evictions);
        ]
      @ zero
          [
            ("views.hit_ratio", "ratio");
            ("views.rematerializations", "count");
            ("views.bytes", "B");
            ("views.refresh_ms", "ms");
          ]
      @ [
          m "store.write_ms" "ms" (median !store_ms);
          m "server.residual_ms" "ms" (mean residual);
          m "server.planning_ms" "ms" (mean planning);
          m "server.execution_ms" "ms" (mean execution);
          m "server.rows_per_s" "1/s" (float_of_int rows /. (sum rtts /. 1000.0));
          m "server.write_rtt_ms" "ms" (median write_rtts);
          m "server.waiting_writers" "count" (float_of_int waiting);
        ];
    counts;
    digests = [];
  }
