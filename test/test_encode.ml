(* Encode/decode round-trip: every encodable instruction must decode back
   to itself, and junk words must decode to None rather than garbage. *)

open Aarch64

let pc = 0xffff000000010000L

let sample_regs = [ Insn.R 0; Insn.R 7; Insn.R 16; Insn.R 29; Insn.R 30; Insn.SP; Insn.XZR ]
let sample_keys = Sysreg.[ IA; IB; DA; DB; GA ]

let sample_insns =
  let r0 = Insn.R 0 and r1 = Insn.R 1 and r2 = Insn.R 2 in
  let near = Int64.add pc 64L and far = Int64.sub pc 4096L in
  [
    Insn.Nop;
    Insn.Movz (r0, 0xbeef, 16);
    Insn.Movk (r1, 0xffff, 48);
    Insn.Mov (Insn.SP, r0);
    Insn.Mov (r0, Insn.SP);
    Insn.Add_imm (r0, r1, 4095);
    Insn.Sub_imm (Insn.SP, Insn.SP, 16);
    Insn.Add_reg (r0, r1, r2);
    Insn.Sub_reg (r0, r1, Insn.XZR);
    Insn.Subs_reg (Insn.XZR, r0, r1);
    Insn.Subs_imm (Insn.XZR, r0, -17);
    Insn.And_reg (r0, r1, r2);
    Insn.Orr_reg (r0, r1, r2);
    Insn.Eor_reg (r0, r0, r0);
    Insn.Lsl_imm (r0, r1, 63);
    Insn.Lsr_imm (r0, r1, 1);
    Insn.Bfi (r0, r1, 32, 32);
    Insn.Ubfx (r0, r1, 12, 16);
    Insn.Adr (r0, near);
    Insn.Ldr (r0, Insn.Off (Insn.SP, 40));
    Insn.Str (r0, Insn.Pre (Insn.SP, -16));
    Insn.Ldrb (r0, Insn.Post (r1, 1));
    Insn.Strb (r0, Insn.Off (r1, -255));
    Insn.Ldp (Insn.R 29, Insn.R 30, Insn.Post (Insn.SP, 16));
    Insn.Stp (Insn.R 29, Insn.R 30, Insn.Pre (Insn.SP, -16));
    Insn.B far;
    Insn.Bl near;
    Insn.Br (Insn.R 8);
    Insn.Blr (Insn.R 8);
    Insn.Ret;
    Insn.Cbz (r0, near);
    Insn.Cbnz (r0, far);
    Insn.Bcond (Insn.Eq, near);
    Insn.Bcond (Insn.Le, far);
    Insn.Xpac r0;
    Insn.Pacga (r0, r1, r2);
    Insn.Mrs (r0, Sysreg.SCTLR_EL1);
    Insn.Mrs (r0, Sysreg.APIBKeyLo_EL1);
    Insn.Msr (Sysreg.APIAKeyHi_EL1, r1);
    Insn.Svc 0;
    Insn.Svc 42;
    Insn.Eret;
    Insn.Isb;
    Insn.Brk 3;
    Insn.Hlt 0xdead;
  ]
  @ List.concat_map
      (fun k ->
        [
          Insn.Pac (k, Insn.R 30, Insn.SP);
          Insn.Aut (k, Insn.R 30, Insn.SP);
          Insn.Blra (k, Insn.R 8, Insn.R 9);
          Insn.Bra (k, Insn.R 8, Insn.R 9);
          Insn.Reta k;
        ])
      sample_keys
  @ List.concat_map
      (fun k -> [ Insn.Pac1716 k; Insn.Aut1716 k ])
      sample_keys
  @ List.map (fun r -> Insn.Mov (r, Insn.R 3)) sample_regs

let test_roundtrip () =
  List.iter
    (fun insn ->
      let word = Encode.encode ~pc insn in
      match Encode.decode ~pc word with
      | None ->
          Alcotest.failf "decode returned None for %s (0x%08lx)" (Insn.to_string insn) word
      | Some insn' ->
          Alcotest.(check string) "roundtrip" (Insn.to_string insn) (Insn.to_string insn'))
    sample_insns

let test_zero_word_invalid () =
  Alcotest.(check bool) "zero word is undefined" true (Encode.decode ~pc 0l = None)

let test_out_of_range_branch () =
  let too_far = Int64.add pc 0x40000000L in
  Alcotest.check_raises "unencodable branch"
    (Encode.Unencodable "b immediate 268435456 out of range [-33554432, 33554431]")
    (fun () -> ignore (Encode.encode ~pc (Insn.B too_far)))

let test_sysreg_scan_property () =
  (* The property the paper's verifier relies on: an MRS of a key register
     is identifiable from the word alone. *)
  List.iter
    (fun sr ->
      let word = Encode.encode ~pc (Insn.Mrs (Insn.R 5, sr)) in
      match Encode.decode ~pc word with
      | Some (Insn.Mrs (_, sr')) ->
          Alcotest.(check bool) "same sysreg" true (sr = sr')
      | Some other -> Alcotest.failf "decoded %s" (Insn.to_string other)
      | None -> Alcotest.fail "undecodable")
    Sysreg.all

let prop_junk_decode_total =
  QCheck2.Test.make ~name:"decode never raises on junk words" ~count:2000
    QCheck2.Gen.(map Int32.of_int int)
    (fun word ->
      match Encode.decode ~pc word with
      | Some _ | None -> true)

(* A bitfield word whose field is empty or runs past bit 63 is not an
   instruction: it decodes to None and executing it is an undefined-
   instruction fault on every tier, not a host exception. *)
let bitfield_word ~op ~lsb ~width =
  (* rd = x0, rn = x1 *)
  Int32.of_int ((op lsl 26) lor (1 lsl 14) lor (lsb lsl 8) lor (width lsl 1))

let bad_bitfields = [ (0, 0); (63, 0); (1, 64); (32, 33); (63, 2); (0, 127) ]

let test_bad_bitfield_undefined () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "in-range field decodes" true
        (Encode.decode ~pc (bitfield_word ~op ~lsb:0 ~width:64) <> None);
      List.iter
        (fun (lsb, width) ->
          let word = bitfield_word ~op ~lsb ~width in
          Alcotest.(check bool)
            (Printf.sprintf "op %d lsb %d width %d is undefined" op lsb width)
            true
            (Encode.decode ~pc word = None);
          List.iter
            (fun tier ->
              let cpu = Bare.machine ~tier () in
              Mem.write32 (Cpu.mem cpu) (Bare.pa_of_va Bare.code_base) word;
              let expected =
                Cpu.Fault { fault = Cpu.Undefined_instruction word; pc = Bare.code_base }
              in
              Alcotest.(check string)
                (Printf.sprintf "%s: op %d lsb %d width %d faults" (Cpu.tier_name tier)
                   op lsb width)
                (Cpu.stop_to_string expected)
                (Cpu.stop_to_string (Cpu.call cpu Bare.code_base)))
            Cpu.all_tiers)
        bad_bitfields)
    [ 15; 16 ];
  Alcotest.check_raises "unencodable bitfield"
    (Encode.Unencodable "bitfield lsb 60 width 8")
    (fun () -> ignore (Encode.encode ~pc (Insn.Ubfx (Insn.R 0, Insn.R 1, 60, 8))))

let suite =
  [
    Alcotest.test_case "roundtrip all instruction forms" `Quick test_roundtrip;
    Alcotest.test_case "zero word invalid" `Quick test_zero_word_invalid;
    Alcotest.test_case "branch range check" `Quick test_out_of_range_branch;
    Alcotest.test_case "sysreg scan property" `Quick test_sysreg_scan_property;
    QCheck_alcotest.to_alcotest prop_junk_decode_total;
    Alcotest.test_case "out-of-range bitfield is undefined on every tier" `Quick
      test_bad_bitfield_undefined;
  ]
