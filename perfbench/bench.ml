(* perfbench: runs one workload for one seed and prints its metrics.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--rdfqa PATH] [--workdir DIR]

   With --trace 0 the last line carries the end-to-end metrics, with
   --trace 1 the per-layer ones.  Lines before it are for people ("# ..."),
   plus the exact counts and cover/answer digests that perfbench/test.py
   compares between runs.  See perfbench/README.md. *)

let workloads = [ "lubm-plan"; "dblp-exec"; "lubm-serve"; "lubm-views-rw" ]

let () =
  let workload = ref "" and seed = ref 2015 and seconds = ref 10.0 in
  let trace = ref 0 and rdfqa = ref "" and workdir = ref ".bench_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measurement window");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics");
      ("--rdfqa", Arg.Set_string rdfqa, " rdfqa executable (lubm-serve)");
      ("--workdir", Arg.Set_string workdir, " working directory for data files (lubm-serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  (* one domain: the load is this single process *)
  Par.set_jobs 1;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  Common.start_yardstick
    (Filename.concat (Filename.dirname Sys.executable_name) "yardstick.exe");
  let result =
    match !workload with
    | "lubm-plan" -> Inproc.cold Inproc.lubm_plan ~seed ~seconds ~trace
    | "dblp-exec" -> Inproc.cold Inproc.dblp_exec ~seed ~seconds ~trace
    | "lubm-views-rw" -> Inproc.views_rw ~seed ~seconds ~trace
    | _ ->
        let workdir =
          if Filename.is_relative !workdir then Filename.concat (Sys.getcwd ()) !workdir
          else !workdir
        in
        (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Served.lubm_serve ~rdfqa:!rdfqa ~workdir ~seed ~seconds ~trace
  in
  Common.stop_yardstick ();
  Common.print_result ~workload:!workload ~seed ~trace result
