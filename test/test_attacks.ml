(* Attack-harness tests: every paper attack must succeed against the
   right unprotected build and be detected by the right protection
   (Section 6.2), under machine execution. *)

module C = Camouflage
module K = Kernel

let boot ?(config = C.Config.full) ?(threshold = 1000) ?(cpus = 1) () =
  K.System.boot ~config:{ config with C.Config.bruteforce_threshold = threshold } ~seed:55L
    ~cpus ()

let test_primitives () =
  let sys = boot () in
  let cell = K.System.kernel_symbol sys "work_counter_cell" in
  (match Attacks.Primitives.kwrite sys cell 1234L with
  | Result.Ok () -> ()
  | Result.Error m -> Alcotest.failf "kwrite: %s" m);
  (match Attacks.Primitives.kread sys cell with
  | Result.Ok v -> Alcotest.(check int64) "kread" 1234L v
  | Result.Error m -> Alcotest.failf "kread: %s" m);
  match Attacks.Primitives.spray_words sys ~words:[ 0xaaL; 0xbbL ] with
  | Result.Ok addr ->
      Alcotest.(check int64) "sprayed word 0" 0xaaL
        (K.Kmem.read64 (K.System.cpu sys) addr);
      Alcotest.(check int64) "sprayed word 1" 0xbbL
        (K.Kmem.read64 (K.System.cpu sys) (Int64.add addr 8L))
  | Result.Error m -> Alcotest.failf "spray: %s" m

let test_fops_hijack_matrix () =
  let expect_hijacked config label =
    match Attacks.Fptr_hijack.run (boot ~config ()) with
    | Attacks.Fptr_hijack.Hijacked _ -> ()
    | other -> Alcotest.failf "%s: %s" label (Attacks.Fptr_hijack.outcome_to_string other)
  in
  let expect_detected config label =
    match Attacks.Fptr_hijack.run (boot ~config ()) with
    | Attacks.Fptr_hijack.Detected -> ()
    | other -> Alcotest.failf "%s: %s" label (Attacks.Fptr_hijack.outcome_to_string other)
  in
  expect_hijacked C.Config.none "none";
  expect_hijacked C.Config.backward_only "backward-only";
  expect_detected C.Config.full "full";
  expect_detected C.Config.compat "compat"

let test_rop_matrix () =
  (match Attacks.Rop.run (boot ~config:C.Config.none ()) with
  | Attacks.Rop.Diverted _ -> ()
  | other -> Alcotest.failf "none: %s" (Attacks.Rop.outcome_to_string other));
  List.iter
    (fun (label, config) ->
      match Attacks.Rop.run (boot ~config ()) with
      | Attacks.Rop.Detected -> ()
      | other -> Alcotest.failf "%s: %s" label (Attacks.Rop.outcome_to_string other))
    [
      ("sp-only", { C.Config.backward_only with scheme = C.Modifier.Sp_only });
      ("parts", { C.Config.backward_only with scheme = C.Modifier.Parts 9L });
      ("camouflage", C.Config.full);
      ("compat", C.Config.compat);
    ]

let test_replay_matrix () =
  let run config =
    Attacks.Replay.cross_task_switch_frame (boot ~config ())
  in
  (match run { C.Config.full with scheme = C.Modifier.Parts 9L } with
  | Attacks.Replay.Accepted _ -> ()
  | other -> Alcotest.failf "parts: %s" (Attacks.Replay.outcome_to_string other));
  (match run C.Config.full with
  | Attacks.Replay.Rejected -> ()
  | other -> Alcotest.failf "camouflage: %s" (Attacks.Replay.outcome_to_string other));
  match run { C.Config.full with scheme = C.Modifier.Sp_only } with
  | Attacks.Replay.Rejected -> ()
  | other -> Alcotest.failf "sp-only: %s" (Attacks.Replay.outcome_to_string other)

let test_collision_ordering () =
  let samples = 50_000 in
  let f scheme = Attacks.Replay.collision_fraction scheme ~samples ~seed:7L in
  let sp = f C.Modifier.Sp_only in
  let parts = f (C.Modifier.Parts 1L) in
  let camo = f C.Modifier.Camouflage in
  Alcotest.(check bool) "parts collides most" true (parts > sp);
  Alcotest.(check bool) "camouflage collides least" true (camo <= sp);
  Alcotest.(check (float 1e-9)) "camouflage: none observed" 0.0 camo

let test_bruteforce_bounded () =
  let sys = boot ~threshold:5 () in
  let report = Attacks.Bruteforce_attack.run sys ~attempts:50 ~seed:1L in
  Alcotest.(check bool) "stopped by panic" true report.Attacks.Bruteforce_attack.panicked;
  Alcotest.(check int) "bounded attempts" 5 report.Attacks.Bruteforce_attack.detected;
  Alcotest.(check int) "no successes" 0 report.Attacks.Bruteforce_attack.successes

let test_bruteforce_unprotected_kernel () =
  (* Without PAuth the extension bits are meaningful address bits:
     scribbling them just breaks the pointer outright, producing plain
     oopses — crucially these do NOT count toward the PAC-failure
     threshold, so no panic escalation happens. *)
  let sys = boot ~config:C.Config.none ~threshold:3 () in
  let report = Attacks.Bruteforce_attack.run sys ~attempts:5 ~seed:1L in
  Alcotest.(check int) "forgeries corrupt, never authenticate" 0
    report.Attacks.Bruteforce_attack.successes;
  Alcotest.(check bool) "oopses do not trip the PAC threshold" false
    report.Attacks.Bruteforce_attack.panicked;
  Alcotest.(check int) "no PAC failures recorded" 0
    (C.Bruteforce.failures (K.System.bruteforce sys))

let test_failures_logged () =
  (* Section 6.2.3: all failures are logged so vulnerable paths can be
     found. *)
  let sys = boot ~threshold:3 () in
  let _ = Attacks.Bruteforce_attack.run sys ~attempts:10 ~seed:2L in
  let log = K.System.log sys in
  let pac_lines =
    List.filter
      (fun l -> String.length l >= 3 && String.sub l 0 3 = "PAC")
      log
  in
  Alcotest.(check int) "every failure logged" 3 (List.length pac_lines);
  Alcotest.(check bool) "panic logged" true
    (List.exists
       (fun l ->
         String.length l >= 12 && String.sub l 0 12 = "kernel panic")
       log)

let suite =
  [
    Alcotest.test_case "attacker primitives (read/write/spray)" `Quick test_primitives;
    Alcotest.test_case "f_ops hijack across builds" `Slow test_fops_hijack_matrix;
    Alcotest.test_case "kernel ROP across builds" `Slow test_rop_matrix;
    Alcotest.test_case "cross-task replay across schemes" `Slow test_replay_matrix;
    Alcotest.test_case "collision-rate ordering" `Quick test_collision_ordering;
    Alcotest.test_case "brute force bounded by threshold" `Quick test_bruteforce_bounded;
    Alcotest.test_case "harness sanity on unprotected kernel" `Quick
      test_bruteforce_unprotected_kernel;
    Alcotest.test_case "PAC failures are logged (oracle defense)" `Quick
      test_failures_logged;
  ]

let test_cred_hijack_matrix () =
  let run config variant = Attacks.Cred_hijack.run (boot ~config ()) variant in
  (match run C.Config.none Attacks.Cred_hijack.Raw with
  | Attacks.Cred_hijack.Escalated { uid } -> Alcotest.(check int64) "root" 0L uid
  | other -> Alcotest.failf "none/raw: %s" (Attacks.Cred_hijack.outcome_to_string other));
  (match run C.Config.full Attacks.Cred_hijack.Raw with
  | Attacks.Cred_hijack.Detected -> ()
  | other -> Alcotest.failf "full/raw: %s" (Attacks.Cred_hijack.outcome_to_string other));
  (* the replayed variant plants a LEGITIMATELY signed pointer: only the
     address-bound modifier stops it *)
  match run C.Config.full Attacks.Cred_hijack.Replayed with
  | Attacks.Cred_hijack.Detected -> ()
  | other -> Alcotest.failf "full/replay: %s" (Attacks.Cred_hijack.outcome_to_string other)

let test_getuid_baseline () =
  let sys = boot () in
  match K.System.syscall sys ~nr:K.Kbuild.sys_getuid ~args:[] with
  | K.System.Ok v -> Alcotest.(check int64) "init is root" 0L v
  | K.System.Killed m | K.System.Panicked m -> Alcotest.failf "getuid: %s" m

let suite =
  suite
  @ [
      Alcotest.test_case "getuid via signed cred pointer" `Quick test_getuid_baseline;
      Alcotest.test_case "cred hijack: raw + replayed variants" `Slow
        test_cred_hijack_matrix;
    ]

let test_context_tamper_matrix () =
  (* register-spill attack (Section 8): saved-PC rewrite of a preempted
     task diverts control without the X7 MAC, is detected with it — on
     one core and on two *)
  List.iter
    (fun cpus ->
      (match Attacks.Context_tamper.run (boot ~cpus ()) ~protect:false with
      | Attacks.Context_tamper.Diverted { exit_code } ->
          Alcotest.(check int64) "landed in evil" 0x666L exit_code
      | other ->
          Alcotest.failf "%d cpus, unprotected: %s" cpus
            (Attacks.Context_tamper.outcome_to_string other));
      match Attacks.Context_tamper.run (boot ~cpus ()) ~protect:true with
      | Attacks.Context_tamper.Detected -> ()
      | other ->
          Alcotest.failf "%d cpus, protected: %s" cpus
            (Attacks.Context_tamper.outcome_to_string other))
    [ 1; 2 ]

let suite =
  suite
  @ [
      Alcotest.test_case "context tamper: divert vs X7 detection" `Quick
        test_context_tamper_matrix;
    ]

let test_oracle_sweep () =
  let verdicts = Attacks.Oracle.sweep () in
  Alcotest.(check int) "eight surfaces" 8 (List.length verdicts);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v.Attacks.Oracle.surface ^ " fatal") true
        v.Attacks.Oracle.fatal;
      Alcotest.(check bool) (v.Attacks.Oracle.surface ^ " logged") true
        v.Attacks.Oracle.logged)
    verdicts;
  Alcotest.(check bool) "no oracle" true (Attacks.Oracle.all_closed verdicts)

let suite =
  suite
  @ [ Alcotest.test_case "oracle sweep: every surface fails closed" `Slow test_oracle_sweep ]
