(* Shared harness plumbing: clocks, sample statistics, self-time
   accounting, correctness bookkeeping and the result line. *)

let now_ms () = Unix.gettimeofday () *. 1000.0

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* ---- sample statistics ---- *)

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile of a fixed sample set is a pure function of it. *)
let percentile p samples =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = p /. 100.0 *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median samples = percentile 50.0 samples
let sum = List.fold_left ( +. ) 0.0
let mean = function [] -> 0.0 | l -> sum l /. float_of_int (List.length l)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---- self-time accounting ----

   A region's self time is its duration minus the time spent in regions
   opened inside it.  [inner] carries the inclusive time of the direct
   children of the region currently open, so nested callbacks (the
   reformulation and cost closures cover search calls back into) are
   charged to their own layer only. *)

type acc = { mutable ms : float; mutable calls : int }

let acc () = { ms = 0.0; calls = 0 }
let inner = ref 0.0

let region a f =
  let outer = !inner in
  inner := 0.0;
  let t0 = now_ms () in
  let finish () =
    let dt = now_ms () -. t0 in
    a.ms <- a.ms +. dt -. !inner;
    a.calls <- a.calls + 1;
    inner := outer +. dt
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* ---- host speed ----

   On a shared host the speed a run gets drifts by 20-30% from one minute
   to the next, so identical work timed in two runs differs by more than
   the regressions the bounds are meant to catch.  Each run therefore
   samples a fixed yardstick between answers (after writes on the served
   workload) and reports its end-to-end times divided by the run's
   speed index: the yardstick's median time over [nominal_yardstick_ms],
   its typical time on the host the bounds were set on.  The yardstick is
   yardstick.exe, a child process that links nothing of the system, so
   the divisor measures the host and cannot be moved by the code under
   test.  Raw times are printed next to the normalized ones. *)

let nominal_yardstick_ms = 0.85

(* The child process, started by [start_yardstick] before the workload
   builds its heap, so the fork copies little. *)
let yardstick : (in_channel * out_channel) option ref = ref None

let start_yardstick path =
  yardstick := Some (Unix.open_process_args path [| path |])

let stop_yardstick () =
  Option.iter
    (fun p ->
      yardstick := None;
      match Unix.close_process p with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith "yardstick process failed")
    !yardstick

let yardstick_samples = ref []

(* Samples are taken at most every [sample_every_ms], so how often the
   yardstick runs does not depend on how fast the answers are. *)
let sample_every_ms = 100.0
let last_sample = ref neg_infinity

(* Blocks while the child times one sample (about 4 ms); the harness is
   idle meanwhile. *)
let sample_speed () =
  match !yardstick with
  | None -> failwith "yardstick process not started"
  | Some (ic, oc) ->
      if now_ms () -. !last_sample >= sample_every_ms then begin
        output_char oc '\n';
        flush oc;
        yardstick_samples := float_of_string (input_line ic) :: !yardstick_samples;
        last_sample := now_ms ()
      end

let speed_index () =
  match !yardstick_samples with [] -> 1.0 | l -> median l /. nominal_yardstick_ms

(* ---- answers ---- *)

(* An order-independent digest of a relation's rows: the row count plus
   the sum and the xor of a 62-bit mix of each row.  Relations are
   deduplicated, so equal digests mean the same set of code rows whatever
   order the plans emitted them in; comparing codes is comparing terms
   because every store the harness compares (raw, saturated copy, view
   snapshots) shares one dictionary. *)
let set_digest rel =
  let cols = Engine.Relation.cols rel in
  let mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 29)
  in
  let total = ref 0 and xored = ref 0 in
  Engine.Relation.iteri_flat
    (fun _ data off ->
      let h = ref 0xcbf29ce484222 in
      for j = off to off + cols - 1 do
        h := mix !h data.(j)
      done;
      let h = mix !h cols in
      total := !total + h;
      xored := !xored lxor h)
    rel;
  Printf.sprintf "%d:%x:%x" (Engine.Relation.rows rel) !total !xored

(* A digest of the rows in emitted order, for bit-identity checks
   (views on versus off). *)
let order_digest rel =
  let b = Buffer.create (Engine.Relation.rows rel * 16) in
  Engine.Relation.iter
    (fun row ->
      Array.iter
        (fun c ->
          Buffer.add_string b (string_of_int c);
          Buffer.add_char b ',')
        row;
      Buffer.add_char b '\n')
    rel;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- correctness bookkeeping ---- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* the first few failures, for the log *)
}

let outcome () = { attempted = 0; failed = 0; notes = [] }

let fail o fmt =
  Printf.ksprintf
    (fun s ->
      o.failed <- o.failed + 1;
      if List.length o.notes < 10 then o.notes <- s :: o.notes)
    fmt

(* ---- process memory ---- *)

(* VmHWM (peak resident set) of a process, in MB; [pid] 0 is this one. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  let text = In_channel.with_open_text path In_channel.input_all in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
    (fun kb -> float_of_int kb /. 1024.0)

(* ---- result ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  outcome : outcome;
  end_to_end : metric list;
  per_layer : metric list;
  counts : (string * int) list;  (* exact counts, compared across runs *)
  digests : (string * string) list;  (* covers and answers, per pass *)
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* End-to-end times at the nominal host speed; counts, shares and memory
   pass through. *)
let normalize x =
  match x.unit_ with
  | "s" | "ms" -> { x with value = x.value /. speed_index () }
  | "1/s" -> { x with value = x.value *. speed_index () }
  | _ -> x

(* Human-readable report lines first, then the machine line last. *)
let print_result ~workload ~seed ~trace r =
  let o = r.outcome in
  Printf.printf "# workload=%s seed=%d trace=%d attempted=%d failed=%d\n"
    workload seed (if trace then 1 else 0) o.attempted o.failed;
  List.iter (fun n -> Printf.printf "# FAIL %s\n" n) (List.rev o.notes);
  let shown =
    if trace then r.per_layer @ [ m "obs.speed_index" "ratio" (speed_index ()) ]
    else List.map normalize r.end_to_end
  in
  if not trace then begin
    Printf.printf "# speed index %.4f (yardstick median %.4f ms over %d samples); raw:\n"
      (speed_index ()) (median !yardstick_samples) (List.length !yardstick_samples);
    List.iter
      (fun x -> Printf.printf "#   raw %-30s %16.4f %s\n" x.name x.value x.unit_)
      r.end_to_end
  end;
  List.iter
    (fun x -> Printf.printf "# %-34s %16.4f %s\n" x.name x.value x.unit_)
    shown;
  Printf.printf "counts %s\n"
    (json_object
       (("seed", string_of_int seed)
       :: List.map (fun (k, v) -> (k, string_of_int v)) r.counts));
  Printf.printf "digests %s\n"
    (json_object (List.map (fun (k, v) -> (k, json_string v)) r.digests));
  let metrics =
    json_object
      (List.map
         (fun x ->
           ( x.name,
             json_object
               [ ("value", json_number x.value); ("unit", json_string x.unit_) ]
           ))
         shown)
  in
  print_endline
    (json_object
       [
         ("correct", if o.failed = 0 then "true" else "false");
         ("attempted", string_of_int o.attempted);
         ("failed", string_of_int o.failed);
         ("metrics", metrics);
       ])
