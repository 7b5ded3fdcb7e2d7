(* The host-speed yardstick, in a process of its own: it links none of the
   repository's libraries, so nothing the benchmarked system does to its
   heap or its GC settings changes the yardstick's cost.  For each line
   read on stdin it times one sample and writes its time in ms; it exits
   at end of input.  See "Host-speed normalization" in README.md. *)

let loop_ms () =
  (* settle the pending minor heap first, so the timed loop pays only for
     its own allocation *)
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  let l = ref [] in
  for i = 1 to 200_000 do
    l := (i, i) :: (if i land 255 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l);
  (Unix.gettimeofday () -. t0) *. 1000.0

(* The first loop after a wake-up runs on caches the harness has just
   evicted, so it depends on what the harness did; the sample is the
   median of the loops after it. *)
let sample_ms () =
  ignore (loop_ms ());
  let t = List.sort compare (List.init 4 (fun _ -> loop_ms ())) in
  (List.nth t 1 +. List.nth t 2) /. 2.0

let () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.6f\n%!" (sample_ms ())
    done
  with End_of_file -> ()
