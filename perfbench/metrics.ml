(* The metric names each mode must print, in BENCHMARK.json's order.
   A run whose report names differ fails its correctness check, so a
   workload cannot silently drop a metric. *)

let end_to_end =
  [
    "setup_s";
    "mips_interp";
    "mips_icache";
    "mips_traces";
    "sim_cycles_per_call";
    "trials_per_s";
    "trial_ms_p90";
    "heap_peak_mb";
  ]

let per_layer =
  [
    "trace.overhead";
    "icache.hit_rate";
    "icache.fills";
    "icache.invalidations";
    "traces.dispatches";
    "traces.insns_per_dispatch";
    "traces.block_insn_share";
    "traces.compiled";
    "qarma.encrypt_ns";
    "qarma.encrypt_words";
    "pac.compute_ns";
    "pac.auth_ns";
    "mmu.translate_ns";
    "kernel.syscall_ns";
    "snapshot.restore_ns";
    "snapshot.dirty_frames";
    "pac.ops";
    "pac.cipher_share";
    "mmu.walks";
    "kernel.syscalls";
    "kernel.key_installs";
    "cpu.retired";
    "snapshot.restores";
    "faultinj.tail_share";
    "faultinj.trial_ms_p50";
    "faultinj.trial_ms_max";
    "faultinj.hung_trials";
    "fleet.speedup_2w";
    "fleet.steals";
    "fleet.imbalance";
    "gc.minor_words_per_insn";
    "gc.minor_collections";
    "gc.major_collections";
    "gc.minor_words_per_insn_interp";
    "gc.minor_words_per_insn_icache";
    "gc.minor_words_per_insn_traces";
  ]

let check (r : Report.t) ~trace =
  let expected = if trace then per_layer else end_to_end in
  let got = List.map (fun (n, _, _) -> n) r.Report.metrics in
  let missing = List.filter (fun n -> not (List.mem n got)) expected in
  let extra = List.filter (fun n -> not (List.mem n expected)) got in
  Report.check r (missing = [] && extra = [])
    (Printf.sprintf "metric set mismatch: missing [%s], unexpected [%s]"
       (String.concat " " missing) (String.concat " " extra))
