(* Direct layer probes: time one public function of a layer in a
   fixed-count loop, with inputs taken from the workload's own machine
   (its keys, its code addresses, its kernel configuration). Each probe
   runs inside a span and first checks the function's result. *)

open Aarch64
module K = Kernel
module R = Report

let reps = 7

(* QARMA, PAC compute/auth and the MMU walk, on [cpu]'s cipher, IB key
   and translation tables: [ptr] is a code address the workload
   executes, [modifier] a stack pointer it signs against. Returns the
   seconds per encrypt and the median seconds of [alongside]. *)
let cipher_and_mmu ?(alongside = fun () -> 0.0) r ~cpu ~el ~ptr ~modifier =
  let cipher = Cpu.cipher cpu in
  let key = Cpu.pac_key cpu Sysreg.IB in
  let qkey = Qarma.Block.key_of_pair (key.Pac.hi, key.Pac.lo) in
  let cfg = Cpu.pointer_cfg cpu ptr in
  let signed = Pac.compute ~cipher ~key ~cfg ~modifier ptr in
  R.check r
    (Pac.auth ~cipher ~key ~cfg ~modifier signed = Ok ptr)
    "Pac.auth does not accept the pointer Pac.compute signed";
  let mmu = Cpu.mmu cpu in
  R.check r
    (Result.is_ok (Mmu.translate mmu ~el ~access:Mmu.Exec ptr))
    "Mmu.translate faults on the workload's code address";
  let probe ?(reps = reps) name n f =
    Spans.with_span name (fun () -> Measure.per_call ~reps ~n f)
  in
  let encrypt () =
    ignore (Sys.opaque_identity (Qarma.Block.encrypt cipher ~key:qkey ~tweak:modifier ptr))
  in
  (* Host speed drifts over a run, so the encrypt timings alternate
     with timings of one unit of the workload, [alongside]: the cipher
     share compares the two medians. *)
  let pairs =
    List.init reps (fun _ ->
        let enc = probe ~reps:1 "probe Qarma.Block.encrypt" 400 encrypt in
        (enc, alongside ()))
  in
  let enc_s = Measure.median (List.map fst pairs) in
  R.float r "qarma.encrypt_ns" "ns" (1e9 *. enc_s);
  R.float r "qarma.encrypt_words" "words" (Measure.words_per_call ~n:50 encrypt);
  let compute_s =
    probe "probe Pac.compute" 200 (fun () ->
        ignore (Sys.opaque_identity (Pac.compute ~cipher ~key ~cfg ~modifier ptr)))
  in
  R.float r "pac.compute_ns" "ns" (1e9 *. compute_s);
  let auth_s =
    probe "probe Pac.auth" 200 (fun () ->
        ignore (Sys.opaque_identity (Pac.auth ~cipher ~key ~cfg ~modifier signed)))
  in
  R.float r "pac.auth_ns" "ns" (1e9 *. auth_s);
  let translate_s =
    probe "probe Mmu.translate" 20_000 (fun () ->
        ignore (Sys.opaque_identity (Mmu.translate mmu ~el ~access:Mmu.Exec ptr)))
  in
  R.float r "mmu.translate_ns" "ns" (1e9 *. translate_s);
  (enc_s, Measure.median (List.map snd pairs))

(* [K.System.syscall] (getpid) on a booted system, then
   [K.System.restore] after [dirty i] has run work on it. Returns the
   system to the state it had on entry. *)
let kernel_and_snapshot r ~sys ~dirty ~restores =
  let base = K.System.snapshot sys in
  let getpid () = K.System.syscall sys ~nr:K.Kbuild.sys_getpid ~args:[] in
  R.check r
    (match getpid () with K.System.Ok _ -> true | _ -> false)
    "getpid from the host does not return";
  let syscall_s =
    Spans.with_span "probe K.System.syscall" (fun () ->
        Measure.per_call ~reps ~n:100 (fun () -> ignore (getpid ())))
  in
  R.float r "kernel.syscall_ns" "ns" (1e9 *. syscall_s);
  K.System.restore sys base;
  let restore_times =
    List.init restores (fun i ->
        dirty i;
        Spans.with_span "restore" (fun () ->
            snd (Measure.time (fun () -> K.System.restore sys base))))
  in
  R.float r "snapshot.restore_ns" "ns" (1e9 *. Measure.median restore_times);
  (* Dirty frames need a memory snapshot of their own, whose write hook
     stays behind: count them after the timed restores. *)
  let mem = Machine.mem (K.System.machine sys) in
  let dirty_frames =
    List.init restores (fun i ->
        let ms = Mem.snapshot mem in
        dirty i;
        let d = Mem.snapshot_dirty ms in
        K.System.restore sys base;
        float_of_int d)
  in
  R.float r "snapshot.dirty_frames" "count" (Measure.median dirty_frames)

let gc r (d : Measure.gc) ~insns =
  R.float r "gc.minor_words_per_insn" "words" (d.Measure.minor_words /. insns);
  R.int r "gc.minor_collections" "count" d.Measure.minor_collections;
  R.int r "gc.major_collections" "count" d.Measure.major_collections
