(* The simulator's benchmark: one workload per run, end-to-end metrics
   untraced, per-layer metrics in a traced run.

     perfbench --workload calls-baseline|calls-camouflage|campaign
               [--seed N] [--seconds S] [--trace 0|1]

   Every input derives from the seed. Standard output ends with one
   JSON line: {"correct", "attempted", "failed", "metrics"}; the exit
   code is 1 when a correctness check failed. *)

let workloads = [ "calls-baseline"; "calls-camouflage"; "campaign" ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let r = Report.create () in
  let seconds = float_of_int !seconds and trace = !trace = 1 in
  let t0 = Measure.now () in
  (match !workload with
  | "calls-baseline" -> Calls_bench.run r `Baseline ~seed:!seed ~seconds ~trace
  | "calls-camouflage" -> Calls_bench.run r `Camouflage ~seed:!seed ~seconds ~trace
  | _ -> Campaign_bench.run r ~seed:!seed ~seconds ~trace);
  Metrics.check r ~trace;
  if trace then Spans.print_table ~wall:(Measure.now () -. t0);
  Printf.printf "\nworkload %s, seed %d, %s\n" !workload !seed
    (if trace then "traced" else "untraced");
  Report.print r;
  exit (if Report.correct r then 0 else 1)
