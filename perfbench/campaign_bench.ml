(* Fault-injection campaigns ([Fleet.Campaign], [Config.full], default
   tier), every trial timed on its worker through the campaign's job
   hook and progress callback. A trial the pool quarantines is a failed
   operation.

   The timed campaign is the reference draw: campaign seed 42, 128
   trials, on one worker, repeated until the time is up. Two choices
   keep its numbers about the code rather than the input or the host:
   - A trial whose fault keeps a task from finishing runs until the
     kernel's slice budget is spent (two to four seconds against a
     ~10 ms median). How many such hangs a draw holds (one to five per
     128 trials) depends on the campaign seed alone, and moves the
     wall time of 128 trials over 4x across seeds.
   - On two workers the same 128 trials took 7.7 to 11.5 s from one
     campaign to the next on a 2-core host, against 12.0 to 12.5 s on
     one worker: both domains stop for every minor collection, so
     two-worker time follows whatever else the host runs.
   The two-worker campaign runs in the traced run, where it gives the
   fleet.* metrics, and in the check below. The seeded part of the
   workload is everything else: the session set-up, the golden runs per
   tier, and a 32-trial campaign of the workload seed that must give
   byte-identical reports on one and two workers. *)

module FC = Faultinj.Campaign
module FL = Fleet.Campaign
module R = Report

let reference_seed = 42L
let reference_trials = 128
let seeded_trials = 32

(* More than this many golden makespans means the slice budget ran
   out: the trial hung. *)
let hang_factor = 100L

type timed = {
  result : FL.result;
  wall : float;
  secs : float array;  (** per trial index, the last attempt *)
  domain : int array;  (** worker domain per trial index *)
  gc : Measure.gc;  (** allocation and collections during the run *)
}

let current_trial : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let campaign r ?(telemetry = false) ~workers ~seed ~trials () =
  let start = Array.make trials nan
  and secs = Array.make trials nan
  and domain = Array.make trials 0
  and toks = Array.make trials Spans.Off in
  let parent = Spans.current_id () in
  let job_hook i =
    (* a retried job: close the failed attempt's span first *)
    Spans.stop toks.(i);
    Domain.DLS.set current_trial i;
    toks.(i) <- Spans.start ~parent "trial";
    start.(i) <- Measure.now ()
  in
  let progress () =
    let i = Domain.DLS.get current_trial in
    secs.(i) <- Measure.now () -. start.(i);
    domain.(i) <- (Domain.self () :> int);
    Spans.stop toks.(i);
    toks.(i) <- Spans.Off
  in
  let gc0 = Measure.gc_now () in
  let result, wall =
    Spans.with_span "Fleet.Campaign.run" (fun () ->
        Measure.time (fun () ->
            FL.run ~telemetry ~workers ~job_hook ~progress ~seed ~trials ()))
  in
  let gc = Measure.gc_delta ~before:gc0 ~after:(Measure.gc_now ()) in
  let result = Option.get result (* no [should_stop]: never cancelled *) in
  let failures = List.length result.FL.failures in
  r.R.attempted <- r.R.attempted + trials;
  r.R.failed <- r.R.failed + failures;
  R.check r
    (List.length result.FL.report.FC.trial_list + failures = trials)
    "campaign report lost a trial that was not quarantined";
  { result; wall; secs; domain; gc }

let reference r ?telemetry ~workers () =
  campaign r ?telemetry ~workers ~seed:reference_seed ~trials:reference_trials ()

let json t = FC.report_to_json t.result.FL.report
let failed_indices t = List.map (fun f -> f.Fleet.Pool.job) t.result.FL.failures

(* The same campaign on one worker must give the same report bytes and
   quarantine the same trials. *)
let check_workers r ~one ~two =
  R.check r (json one = json two) "campaign report differs between 1 and 2 workers";
  R.check r
    (failed_indices one = failed_indices two)
    "1 and 2 workers quarantined different trials"

(* Indices of the reported (not quarantined) trials that hung, and of
   those that did not. *)
let hang_split t =
  let limit = Int64.mul hang_factor t.result.FL.report.FC.golden_makespan in
  let hung, bounded =
    List.partition (fun tr -> tr.FC.makespan > limit) t.result.FL.report.FC.trial_list
  in
  let indices = List.map (fun tr -> tr.FC.index) in
  (indices hung, indices bounded)

let trial_secs ts = List.concat_map (fun t -> Array.to_list t.secs) ts

(* Reference campaigns on one worker until [until], at least [min]. *)
let reference_loop r ~min ~until =
  let rec go acc =
    if List.length acc >= min && Measure.now () >= until then List.rev acc
    else go (reference r ~workers:1 () :: acc)
  in
  go []

let end_to_end r ts =
  let all = trial_secs ts in
  R.float r "trials_per_s" "1/s"
    (float_of_int (List.length all) /. Measure.sum (List.map (fun t -> t.wall) ts));
  R.float r "trial_ms_p90" "ms" (1000. *. Measure.quantile 0.9 all);
  R.float r "heap_peak_mb" "MB" (Measure.heap_peak_mb ())

(* Set-up: a campaign session (boot, workload, golden run, snapshot),
   each from a collected heap. A run times seven before anything else
   and one after every round of golden runs, so that the set-up time
   sees the host's slow phases like the rest of the run does. *)
let setup_once ~seed times =
  Gc.full_major ();
  let ses, secs =
    Spans.with_span "setup" (fun () -> Measure.time (fun () -> FC.create_session ~seed ()))
  in
  times := secs :: !times;
  ses

(* The fault-free campaign workload on every tier: the session's
   set-up (boot, map the workload, spawn its tasks, snapshot), then
   golden runs restored from the snapshot, one per tier per round,
   until [seconds] have passed. Gives guest MIPS per tier and simulated
   cycles per workload system call (a write and a getpid per round and
   task) over the golden makespan; returns the minor words allocated
   per instruction on each tier. Every tier must retire the same
   instructions, and take the makespan and print the console output
   of the campaign's own golden run. [between] runs after every round. *)
let tasks = 4
let rounds = 8

let golden_tiers r ~seed ~seconds ~(golden : FC.golden) ~between =
  let module K = Kernel.System in
  let machines =
    List.map
      (fun tier ->
        let sys = K.boot ~config:Camouflage.Config.full ~seed ~cpus:2 ~tier () in
        let layout = K.map_user_program sys (FC.workload_program ~rounds) in
        let entry = Aarch64.Asm.symbol layout "main" in
        let spawned = List.init tasks (fun _ -> K.spawn_user_task sys ~entry) in
        (tier, (sys, spawned, K.snapshot sys)))
      Aarch64.Cpu.all_tiers
  in
  let retired sys =
    List.fold_left
      (fun acc c -> Int64.add acc (Aarch64.Cpu.insns_retired c))
      0L
      (Aarch64.Machine.cores (K.machine sys))
  in
  let reference = ref None and samples = Hashtbl.create 3 and words = Hashtbl.create 3 in
  let golden_once tier (sys, spawned, base) =
    let name = Aarch64.Cpu.tier_name tier in
    K.restore sys base;
    let i0 = retired sys and w0 = Gc.minor_words () in
    let stats, secs =
      Spans.with_span ("golden " ^ name) (fun () ->
          Measure.time (fun () ->
              K.run_smp ~quantum:400 ~max_slices:(64 * (tasks + 1)) sys ~tasks:spawned))
    in
    let insns = Int64.sub (retired sys) i0 in
    Hashtbl.replace words tier
      (((Gc.minor_words () -. w0) /. Int64.to_float insns)
      :: Option.value (Hashtbl.find_opt words tier) ~default:[]);
    R.check r
      (stats.K.makespan = golden.FC.g_makespan && K.console_output sys = golden.FC.g_console)
      ("golden run on " ^ name ^ " differs from the campaign's");
    (match !reference with
    | None -> reference := Some insns
    | Some i ->
        R.check r (insns = i)
          (Printf.sprintf "golden run on %s retired %Ld insns, reference %Ld" name insns i));
    Hashtbl.replace samples tier
      ((Int64.to_float insns /. secs /. 1e6)
      :: Option.value (Hashtbl.find_opt samples tier) ~default:[])
  in
  let t_end = Measure.now () +. seconds in
  let n = ref 0 in
  while !n < 3 || Measure.now () < t_end do
    List.iter (fun (tier, m) -> golden_once tier m) machines;
    between ();
    incr n
  done;
  List.iter
    (fun tier ->
      R.float r ("mips_" ^ Aarch64.Cpu.tier_name tier) "MIPS"
        (Measure.sustained (Hashtbl.find samples tier)))
    Aarch64.Cpu.all_tiers;
  R.float r "sim_cycles_per_call" "cycles"
    (Int64.to_float golden.FC.g_makespan /. float_of_int (tasks * rounds * 2));
  List.map
    (fun tier -> (tier, Measure.median (Hashtbl.find words tier)))
    Aarch64.Cpu.all_tiers

let run r ~seed ~seconds ~trace =
  let t0 = Measure.now () in
  let seed = Int64.of_int seed in
  let setup_times = ref [] in
  let ses = List.hd (List.init 7 (fun _ -> setup_once ~seed setup_times)) in
  let between () = ignore (setup_once ~seed setup_times) in
  let golden = FC.session_golden ses in
  let setup_s () = Measure.sustained_time !setup_times in
  let e2e ts =
    let q = R.create () in
    R.float q "setup_s" "s" (setup_s ());
    end_to_end q ts;
    q
  in
  (* the seeded campaign: worker-count determinism *)
  let seeded () =
    let one = campaign r ~workers:1 ~seed ~trials:seeded_trials () in
    let two = campaign r ~workers:2 ~seed ~trials:seeded_trials () in
    check_workers r ~one ~two;
    two
  in
  (* each timed phase starts from a collected heap, so the garbage of
     the one before does not land in it *)
  Gc.full_major ();
  if not trace then begin
    ignore (golden_tiers r ~seed ~seconds:(Float.min 4.0 (seconds /. 5.)) ~golden ~between);
    R.float r "setup_s" "s" (setup_s ());
    Gc.full_major ();
    end_to_end r (reference_loop r ~min:2 ~until:(t0 +. seconds));
    ignore (seeded ())
  end
  else begin
    let scratch = R.create () in
    let words = golden_tiers scratch ~seed ~seconds:1.0 ~golden ~between in
    r.R.errors <- scratch.R.errors @ r.R.errors;
    List.iter
      (fun (tier, w) ->
        R.float r ("gc.minor_words_per_insn_" ^ Aarch64.Cpu.tier_name tier) "words" w)
      words;
    Gc.full_major ();
    let plain = reference_loop r ~min:1 ~until:(Measure.now () +. (seconds /. 2.)) in
    Spans.enabled := true;
    let traced = reference_loop r ~min:1 ~until:(Measure.now () +. (seconds /. 2.)) in
    Layers.overhead r ~plain:(e2e plain) ~traced:(e2e traced);
    let one = List.hd plain in
    let two = reference r ~workers:2 () in
    check_workers r ~one ~two;
    let counted = reference r ~telemetry:true ~workers:2 () in
    R.check r (json counted = json one) "attaching telemetry changed the campaign report";
    let summary = Option.get counted.result.FL.telemetry in
    let syscalls =
      Telemetry.Hist.count (List.assoc Telemetry.Span.Syscall summary.FL.hists)
    in
    (* probes: fixed work on the seeded session, its bounded trials *)
    let sys = FC.session_system ses in
    let probe_trials =
      Array.of_list (List.filteri (fun i _ -> i < 16) (snd (hang_split (seeded ()))))
    in
    let trial i =
      ignore
        (Spans.with_span "trial probe" (fun () ->
             FC.run_random_trial_in ses ~index:probe_trials.(i) ()))
    in
    let icache () =
      Aarch64.Icache.stats (Aarch64.Machine.icache (Kernel.System.machine sys))
    in
    let ic0 = icache () in
    Array.iteri (fun i _ -> trial i) probe_trials;
    let ic1 = icache () in
    Layers.icache r
      Aarch64.Icache.
        {
          ic1 with
          fetch_hits = ic1.fetch_hits - ic0.fetch_hits;
          fetch_misses = ic1.fetch_misses - ic0.fetch_misses;
          fills = ic1.fills - ic0.fills;
          invalidations = ic1.invalidations - ic0.invalidations;
        };
    let cpu = Kernel.System.cpu sys in
    Layers.traces r (Aarch64.Cpu.trace_stats cpu) ~insns:1.0;
    let enc_s, _ =
      Probes.cipher_and_mmu r ~cpu ~el:Aarch64.El.El1
        ~ptr:(Kernel.System.kernel_symbol sys "work_counter")
        ~modifier:(Aarch64.Cpu.sp_of cpu Aarch64.El.El1)
    in
    Probes.kernel_and_snapshot r ~sys ~restores:(Array.length probe_trials) ~dirty:trial;
    let wall = one.wall in
    Layers.counted r summary.FL.counters ~enc_s ~wall ~syscalls:(Int64.to_int syscalls);
    R.int r "snapshot.restores" "count" reference_trials;
    Layers.faultinj r (trial_secs plain);
    R.int r "faultinj.hung_trials" "count" (List.length (fst (hang_split one)));
    Layers.fleet r ~wall_1w:one.wall ~wall_2w:two.wall ~stats:two.result.FL.stats
      ~jobs:(Array.to_list (Array.map2 (fun d s -> (d, s)) two.domain two.secs));
    Probes.gc r two.gc
      ~insns:(Int64.to_float summary.FL.counters.Telemetry.Counters.retired);
    Layers.shares r ~wall
      ~rows:
        [
          ("cipher", "pac.ops", "qarma.encrypt_ns");
          ("kernel", "kernel.syscalls", "kernel.syscall_ns");
          ("mmu", "mmu.walks", "mmu.translate_ns");
          ("snapshot", "snapshot.restores", "snapshot.restore_ns");
        ]
  end
