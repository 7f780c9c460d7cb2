(* Per-layer metrics shared by the workloads: exact counts read from
   the stats the layers expose, the slow-trial tail, fleet balance,
   the tracing overhead and the share-of-wall table. *)

module R = Report

let ratio a b = if b = 0.0 then 0.0 else a /. b

let icache r (s : Aarch64.Icache.stats) =
  let fetches = s.Aarch64.Icache.fetch_hits + s.Aarch64.Icache.fetch_misses in
  R.float r "icache.hit_rate" "ratio"
    (ratio (float_of_int s.Aarch64.Icache.fetch_hits) (float_of_int fetches));
  R.int r "icache.fills" "count" s.Aarch64.Icache.fills;
  R.int r "icache.invalidations" "count" s.Aarch64.Icache.invalidations

(* [None] on a core without a trace cache: the layer is bypassed. *)
let traces r (s : Aarch64.Traces.stats option) ~insns =
  let open Aarch64.Traces in
  let s =
    Option.value s
      ~default:
        {
          compiled = 0;
          executed = 0;
          block_insns = 0;
          invalidations = 0;
          flushes = 0;
          chain_links = 0;
          chain_follows = 0;
          blacklisted = 0;
        }
  in
  R.int r "traces.dispatches" "count" s.executed;
  R.float r "traces.insns_per_dispatch" "insns"
    (ratio (float_of_int s.block_insns) (float_of_int s.executed));
  R.float r "traces.block_insn_share" "ratio" (ratio (float_of_int s.block_insns) insns);
  R.int r "traces.compiled" "count" s.compiled

(* Counts from a telemetry-attached run. [wall] is the untraced host
   time of the same work, so [pac.cipher_share] is the share of it the
   cipher alone would take at the probed cost per encrypt. *)
let counted r (c : Telemetry.Counters.snapshot) ~enc_s ~wall ~syscalls =
  let pac_ops =
    Int64.to_int (Int64.add (Telemetry.Counters.pac_ops c) (Telemetry.Counters.aut_ops c))
  in
  R.int r "pac.ops" "count" pac_ops;
  R.float r "pac.cipher_share" "ratio" (ratio (float_of_int pac_ops *. enc_s) wall);
  R.int r "mmu.walks" "count" (Int64.to_int c.Telemetry.Counters.mmu_walks);
  R.int r "kernel.syscalls" "count" syscalls;
  R.int r "kernel.key_installs" "count" (Int64.to_int c.Telemetry.Counters.key_installs);
  R.int r "cpu.retired" "insns" (Int64.to_int c.Telemetry.Counters.retired)

(* The slowest 1% of trials (at least one): their share of all trial
   time; the median and the slowest trial. *)
let faultinj r trial_secs =
  let a = Measure.sorted trial_secs in
  let n = Array.length a in
  let k = max 1 ((n + 99) / 100) in
  let tail = ref 0.0 in
  for i = n - k to n - 1 do
    tail := !tail +. a.(i)
  done;
  R.float r "faultinj.tail_share" "ratio" (ratio !tail (Measure.sum trial_secs));
  R.float r "faultinj.trial_ms_p50" "ms" (1000. *. Measure.median trial_secs);
  R.float r "faultinj.trial_ms_max" "ms" (1000. *. a.(n - 1))

(* [jobs] holds the worker domain and host seconds of each two-worker
   job. *)
let fleet r ~wall_1w ~wall_2w ~(stats : Fleet.Pool.stats) ~jobs =
  R.float r "fleet.speedup_2w" "x" (ratio wall_1w wall_2w);
  R.int r "fleet.steals" "count" (Array.fold_left ( + ) 0 stats.Fleet.Pool.steals);
  let busy =
    List.map
      (fun d -> Measure.sum (List.map snd (List.filter (fun (d', _) -> d' = d) jobs)))
      (List.sort_uniq compare (List.map fst jobs))
  in
  let mean = Measure.sum busy /. float_of_int (List.length busy) in
  R.float r "fleet.imbalance" "x" (ratio (List.fold_left Float.max 0.0 busy) mean)

(* Tracing overhead: every end-to-end metric of the traced pass against
   the untraced one, and the throughput loss as a per-layer metric. *)
let overhead r ~(plain : R.t) ~(traced : R.t) =
  let value q name = Option.get (R.value q name) in
  Printf.printf "\ntracing overhead (end-to-end metrics, untraced vs traced pass)\n";
  Printf.printf "%-24s %14s %14s %9s\n" "metric" "untraced" "traced" "ratio";
  List.iter
    (fun (name, _, unit_) ->
      let p = value plain name and t = value traced name in
      Printf.printf "%-24s %14.6g %14.6g %9.4f  %s\n" name p t (ratio t p) unit_)
    (List.rev plain.R.metrics);
  R.float r "trace.overhead" "ratio"
    (1.0 -. ratio (value traced "trials_per_s") (value plain "trials_per_s"))

(* Where the host time of [wall] seconds of work went, by layer: each
   row is an exact operation count times the probed cost of one
   operation. Layers nest (a syscall installs keys and signs), so the
   rows are estimates that may overlap; the remainder is printed as
   the decode/dispatch/scheduling time nobody probed. *)
let shares r ~wall ~rows =
  let value name = Option.get (R.value r name) in
  Printf.printf "\nper-layer share of %.3f s wall (count x probed cost)\n" wall;
  Printf.printf "%-10s %14s %14s %12s %8s\n" "layer" "count" "ns/op" "ms" "share";
  let covered =
    List.fold_left
      (fun acc (layer, count_metric, ns_metric) ->
        let count = value count_metric and ns = value ns_metric in
        let secs = count *. ns /. 1e9 in
        Printf.printf "%-10s %14.0f %14.1f %12.1f %7.1f%%\n" layer count ns
          (1000. *. secs) (100. *. ratio secs wall);
        acc +. secs)
      0.0 rows
  in
  Printf.printf "%-10s %14s %14s %12.1f %7.1f%%\n" "rest" "" ""
    (1000. *. (wall -. covered)) (100. *. ratio (wall -. covered) wall)
