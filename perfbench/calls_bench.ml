(* The E2 call probe ([Workloads.Calls.calls_object]) on a bare
   machine, one machine per execution tier. A round runs one
   [Bare.call] batch of the caller on every tier; rounds repeat until
   the time is up, and each tier's guest MIPS is the rate its batches
   sustain ([Measure.sustained]). The batches double as the correctness oracle: every batch
   must return to the host sentinel, and every tier must retire the
   same instructions and cycles per batch. *)

open Aarch64
module R = Report
module C = Camouflage

type spec = { config : C.Config.t; calls : int }

let spec_of = function
  | `Baseline -> { config = C.Config.none; calls = 40_000 }
  | `Camouflage -> { config = C.Config.backward_only; calls = 600 }

(* Bare-machine keys derive from the workload seed; the tiers of one
   run share it, so their PAC values agree. *)
let build spec ~seed tier =
  let cpu = Bare.machine ~seed ~tier () in
  let obj = Workloads.Calls.calls_object spec.config ~calls:spec.calls in
  let prog = Asm.create () in
  List.iter
    (fun (name, items) -> Asm.add_function prog ~name items)
    obj.Kelf.Object_file.functions;
  (cpu, Bare.load cpu prog)

type batch = { ok : bool; insns : int64; cycles : int64; secs : float }

let batch (cpu, layout) =
  let i0 = Cpu.insns_retired cpu and c0 = Cpu.cycles cpu in
  let stop, secs =
    Measure.time (fun () -> Bare.call ~max_insns:100_000_000 cpu layout "caller")
  in
  {
    ok = stop = Cpu.Sentinel_return;
    insns = Int64.sub (Cpu.insns_retired cpu) i0;
    cycles = Int64.sub (Cpu.cycles cpu) c0;
    secs;
  }

let tiers = Cpu.all_tiers

(* Set-up: build and load all three tiers' machines. One set takes
   ~30 us, near the clock's 1 us step, so set-ups are timed in blocks
   of ten, each block from a collected heap. A run times 21 blocks
   before its rounds and one after every round, so that the set-up
   time sees the host's slow phases like the rounds do. *)
type setup = { spec : spec; seed : int64; mutable blocks : float list }

let setup_block st =
  Gc.full_major ();
  let machines, secs =
    Spans.with_span "setup" (fun () ->
        Measure.time (fun () ->
            List.init 10 (fun _ ->
                List.map (fun t -> (t, build st.spec ~seed:st.seed t)) tiers)))
  in
  st.blocks <- (secs /. 10.) :: st.blocks;
  List.hd machines

let setup spec ~seed =
  let st = { spec; seed; blocks = [] } in
  for _ = 1 to 20 do
    ignore (setup_block st)
  done;
  (st, setup_block st)

(* The timed loop: [rounds] of one batch per tier, until [seconds] have
   passed (at least three rounds). Returns per-tier batches, per-round
   seconds and the minor words allocated per tier. *)
type loop = {
  per_tier : (Cpu.tier * batch list) list;
  round_secs : float list;
  words : (Cpu.tier * float) list;
}

let run_loop spec ~seconds ~machines ~setup r =
  let reference = ref None in
  let record tier b =
    R.check r b.ok
      (Printf.sprintf "%s batch did not return to the sentinel" (Cpu.tier_name tier));
    r.R.attempted <- r.R.attempted + spec.calls;
    if not b.ok then r.R.failed <- r.R.failed + spec.calls;
    match !reference with
    | None -> reference := Some (b.insns, b.cycles)
    | Some (i, c) ->
        R.check r (b.insns = i && b.cycles = c)
          (Printf.sprintf
             "%s batch retired %Ld insns / %Ld cycles, reference %Ld / %Ld"
             (Cpu.tier_name tier) b.insns b.cycles i c)
  in
  let batches = Hashtbl.create 3 and words = Hashtbl.create 3 in
  let t_end = Measure.now () +. seconds in
  let rounds = ref 0 and round_secs = ref [] in
  while !rounds < 3 || Measure.now () < t_end do
    let rtok = Spans.start "round" in
    let t0 = Measure.now () in
    List.iter
      (fun tier ->
        let w0 = Gc.minor_words () in
        let b =
          Spans.with_span ("Bare.call " ^ Cpu.tier_name tier) (fun () ->
              batch (List.assoc tier machines))
        in
        let w = Gc.minor_words () -. w0 in
        record tier b;
        Hashtbl.replace batches tier
          (b :: Option.value (Hashtbl.find_opt batches tier) ~default:[]);
        Hashtbl.replace words tier
          (w +. Option.value (Hashtbl.find_opt words tier) ~default:0.0))
      tiers;
    round_secs := (Measure.now () -. t0) :: !round_secs;
    Spans.stop rtok;
    ignore (setup_block setup);
    incr rounds
  done;
  {
    per_tier = List.map (fun t -> (t, Hashtbl.find batches t)) tiers;
    round_secs = !round_secs;
    words = List.map (fun t -> (t, Hashtbl.find words t)) tiers;
  }

let mips bs =
  Measure.sustained (List.map (fun b -> Int64.to_float b.insns /. b.secs /. 1e6) bs)

(* End-to-end metrics of one timed loop. A trial here is one round. *)
let end_to_end r spec loop ~setup =
  R.float r "setup_s" "s" (Measure.sustained_time setup.blocks);
  List.iter
    (fun (tier, bs) -> R.float r ("mips_" ^ Cpu.tier_name tier) "MIPS" (mips bs))
    loop.per_tier;
  let b = List.hd (List.assoc Cpu.Interp loop.per_tier) in
  R.float r "sim_cycles_per_call" "cycles"
    (Int64.to_float b.cycles /. float_of_int spec.calls);
  R.float r "trials_per_s" "1/s"
    (Measure.sustained (List.map (fun s -> 1.0 /. s) loop.round_secs));
  R.float r "trial_ms_p90" "ms" (1000. *. Measure.quantile 0.9 loop.round_secs);
  R.float r "heap_peak_mb" "MB" (Measure.heap_peak_mb ())

(* Warm every tier (icache fills, trace compilation) before timing. *)
let warm r machines =
  List.iter
    (fun (tier, m) ->
      R.check r (batch m).ok
        (Printf.sprintf "%s warm-up batch did not return" (Cpu.tier_name tier)))
    machines

(* Pool jobs of the probe (a fresh traces-tier machine, a warm-up
   batch and a timed one) on one and on two workers. *)
let fleet r spec ~seed =
  let jobs = 8 in
  let go workers =
    let busy = Array.make jobs (0, 0.0) in
    let parent = Spans.current_id () in
    let outcome, wall =
      Measure.time (fun () ->
          Fleet.Pool.run ~workers ~retries:0 ~jobs (fun i ->
              let tok = Spans.start ~parent "pool job" in
              let ok, secs =
                Measure.time (fun () ->
                    let m = build spec ~seed Cpu.Traces in
                    ignore (batch m);
                    (batch m).ok)
              in
              Spans.stop tok;
              busy.(i) <- ((Domain.self () :> int), secs);
              ok))
    in
    R.check r
      (Array.for_all (( = ) (Some true)) outcome.Fleet.Pool.results)
      "a pool job of the call probe failed";
    (outcome.Fleet.Pool.stats, wall, busy)
  in
  let _, wall_1w, _ = go 1 in
  let stats, wall_2w, jobs = go 2 in
  Layers.fleet r ~wall_1w ~wall_2w ~stats ~jobs:(Array.to_list jobs)

let run r which ~seed ~seconds ~trace =
  let spec = spec_of which in
  let seed = Int64.of_int seed in
  let setup, machines = setup spec ~seed in
  warm r machines;
  if not trace then end_to_end r spec (run_loop spec ~seconds ~machines ~setup r) ~setup
  else begin
    (* untraced, then traced: the difference is the tracing overhead *)
    let plain = run_loop spec ~seconds:(seconds /. 2.) ~machines ~setup r in
    Spans.enabled := true;
    let traced = run_loop spec ~seconds:(seconds /. 2.) ~machines ~setup r in
    let e2e loop =
      let q = R.create () in
      end_to_end q spec loop ~setup;
      q
    in
    Layers.overhead r ~plain:(e2e plain) ~traced:(e2e traced);
    let per_batch = (List.hd (List.assoc Cpu.Interp plain.per_tier)).insns in
    (* Exact counts come from fixed work on fresh machines: a warm-up
       and a measured batch per tier, then one telemetry-attached batch
       (telemetry forces the stepped path, so it is never timed). *)
    let fresh =
      List.map
        (fun tier -> (tier, Spans.with_span "setup" (fun () -> build spec ~seed tier)))
        tiers
    in
    (* from an empty heap, so the collection counts repeat exactly *)
    Gc.full_major ();
    let gc0 = Measure.gc_now () in
    List.iter
      (fun (_, m) ->
        for _ = 1 to 2 do
          ignore (Spans.with_span "Bare.call fixed" (fun () -> batch m))
        done)
      fresh;
    let gc = Measure.gc_delta ~before:gc0 ~after:(Measure.gc_now ()) in
    let fresh = List.map (fun (tier, (cpu, _)) -> (tier, cpu)) fresh in
    let counted = build spec ~seed Cpu.Icache in
    let sink = Telemetry.Sink.create ~cpu:0 () in
    Cpu.attach_telemetry (fst counted) sink;
    R.check r
      (Spans.with_span "Bare.call telemetry" (fun () -> batch counted)).ok
      "telemetry-attached batch did not return";
    let counters = Telemetry.Counters.snapshot (Telemetry.Sink.counters sink) in
    Layers.icache r (Icache.stats (Cpu.icache (List.assoc Cpu.Icache fresh)));
    Layers.traces r
      (Cpu.trace_stats (List.assoc Cpu.Traces fresh))
      ~insns:(2. *. Int64.to_float per_batch);
    (* The counts come from the stepped path, so the shares divide by
       the batch time of the interp tier, which is that path. *)
    let ((cpu, layout) as interp) = List.assoc Cpu.Interp machines in
    let enc_s, wall =
      Probes.cipher_and_mmu r ~cpu ~el:El.El1
        ~ptr:(Asm.symbol layout "victim") ~modifier:Bare.stack_top
        ~alongside:(fun () ->
          Spans.with_span "Bare.call interp" (fun () -> (batch interp).secs))
    in
    let sys =
      Spans.with_span "setup kernel" (fun () ->
          Kernel.System.boot ~config:spec.config ~seed ())
    in
    Probes.kernel_and_snapshot r ~sys ~restores:16 ~dirty:(fun _ ->
        for _ = 1 to 8 do
          ignore (Kernel.System.syscall sys ~nr:Kernel.Kbuild.sys_getpid ~args:[])
        done);
    Layers.counted r counters ~enc_s ~wall ~syscalls:0;
    Layers.faultinj r plain.round_secs;
    R.int r "faultinj.hung_trials" "count" 0;
    R.int r "snapshot.restores" "count" 0;
    fleet r spec ~seed;
    Probes.gc r gc ~insns:(6. *. Int64.to_float per_batch);
    List.iter
      (fun (tier, w) ->
        let n = List.length (List.assoc tier plain.per_tier) in
        R.float r ("gc.minor_words_per_insn_" ^ Cpu.tier_name tier) "words"
          (w /. (float_of_int n *. Int64.to_float per_batch)))
      plain.words;
    Layers.shares r ~wall
      ~rows:
        [
          ("cipher", "pac.ops", "qarma.encrypt_ns");
          ("mmu", "mmu.walks", "mmu.translate_ns");
        ]
  end
