(* Syscall-sequence fuzzing.

   Random sequences of benign syscalls drive two strong properties:

   - transparency: the fully protected kernel returns exactly the same
     values as the unprotected kernel for every benign sequence (the
     protection must never change semantics, R3/R5);
   - determinism: the same seed yields the same cycle count;
   - resilience: no benign sequence can panic the kernel, and the
     system survives garbage arguments with error returns or process
     kills, never host exceptions. *)

module C = Camouflage
module K = Kernel

type op =
  | Getpid
  | Getuid
  | Open
  | Close of int
  | Read of int * int
  | Write of int * int
  | Stat
  | Fstat of int
  | Notifier_register of int * int
  | Notifier_call of int
  | Pipe_write of int
  | Pipe_read of int
  | Socketpair
  | Poll of int
  | Timer_set of int * int
  | Run_timers
  | Run_static_work

let gen_op =
  QCheck2.Gen.(
    let fd = int_range 0 17 in
    oneof
      [
        return Getpid;
        return Getuid;
        return Open;
        map (fun v -> Close v) fd;
        map2 (fun a b -> Read (a, b)) fd (int_range 0 256);
        map2 (fun a b -> Write (a, b)) fd (int_range 0 256);
        return Stat;
        map (fun v -> Fstat v) fd;
        map2 (fun a b -> Notifier_register (a, b)) (int_range 0 9) (int_range 0 5);
        map (fun v -> Notifier_call v) (int_range 0 9);
        map (fun v -> Pipe_write v) (int_range 0 200);
        map (fun v -> Pipe_read v) (int_range 0 200);
        return Socketpair;
        map (fun v -> Poll v) (int_range 0 4);
        map2 (fun a b -> Timer_set (a, b)) (int_range 0 9) (int_range 0 3);
        return Run_timers;
        return Run_static_work;
      ])

let gen_sequence = QCheck2.Gen.(list_size (int_range 1 40) gen_op)

(* Execute one op; the observable is (tag, return value or outcome). *)
let execute sys op =
  let buf = K.Layout.user_data_base in
  let sc nr args =
    match K.System.syscall sys ~nr ~args with
    | K.System.Ok v -> ("ok", v)
    | K.System.Killed m -> ("killed:" ^ m, 0L)
    | K.System.Panicked m -> ("panicked:" ^ m, 0L)
  in
  match op with
  | Getpid -> sc K.Kbuild.sys_getpid []
  | Getuid -> sc K.Kbuild.sys_getuid []
  | Open -> sc K.Kbuild.sys_open [ 1L ]
  | Close fd -> sc K.Kbuild.sys_close [ Int64.of_int fd ]
  | Read (fd, len) -> sc K.Kbuild.sys_read [ Int64.of_int fd; buf; Int64.of_int len ]
  | Write (fd, len) -> sc K.Kbuild.sys_write [ Int64.of_int fd; buf; Int64.of_int len ]
  | Stat -> sc K.Kbuild.sys_stat [ 3L; buf ]
  | Fstat fd -> sc K.Kbuild.sys_fstat [ Int64.of_int fd; buf ]
  | Notifier_register (slot, id) ->
      sc K.Kbuild.sys_notifier_register [ Int64.of_int slot; Int64.of_int id ]
  | Notifier_call slot -> sc K.Kbuild.sys_notifier_call [ Int64.of_int slot ]
  | Pipe_write len -> sc K.Kbuild.sys_pipe_write [ buf; Int64.of_int len ]
  | Pipe_read len -> sc K.Kbuild.sys_pipe_read [ buf; Int64.of_int len ]
  | Socketpair -> sc K.Kbuild.sys_socketpair []
  | Poll n ->
      (* descriptor array: fds 3..3+n-1 *)
      List.iteri
        (fun idx fd ->
          K.Kmem.write64 (K.System.cpu sys)
            (Int64.add (Int64.add buf 2048L) (Int64.of_int (8 * idx)))
            (Int64.of_int fd))
        (List.init n (fun i -> 3 + i));
      sc K.Kbuild.sys_poll [ Int64.add buf 2048L; Int64.of_int n ]
  | Timer_set (slot, id) ->
      sc K.Kbuild.sys_timer_set [ Int64.of_int slot; 0L; Int64.of_int id ]
  | Run_timers -> (
      match K.System.run_timers sys with
      | K.System.Ok v -> ("ok", v)
      | K.System.Killed m -> ("killed:" ^ m, 0L)
      | K.System.Panicked m -> ("panicked:" ^ m, 0L))
  | Run_static_work -> (
      match K.System.run_work sys ~work_va:(K.System.kernel_symbol sys "static_work") with
      | K.System.Ok v -> ("ok", v)
      | K.System.Killed m -> ("killed:" ^ m, 0L)
      | K.System.Panicked m -> ("panicked:" ^ m, 0L))

let run_sequence config seq =
  let sys = K.System.boot ~config ~seed:99L () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base ~bytes:0x4000
    Aarch64.Mmu.rw;
  let observations = List.map (execute sys) seq in
  (observations, K.System.panicked sys, Aarch64.Cpu.cycles (K.System.cpu sys))

let prop_transparency =
  QCheck2.Test.make ~name:"full protection is semantically transparent" ~count:40
    gen_sequence (fun seq ->
      let obs_full, panicked_full, _ = run_sequence C.Config.full seq in
      let obs_none, panicked_none, _ = run_sequence C.Config.none seq in
      obs_full = obs_none && (not panicked_full) && not panicked_none)

let prop_determinism =
  QCheck2.Test.make ~name:"same sequence, same cycle count" ~count:20 gen_sequence
    (fun seq ->
      let _, _, c1 = run_sequence C.Config.full seq in
      let _, _, c2 = run_sequence C.Config.full seq in
      c1 = c2)

let prop_no_benign_panic =
  QCheck2.Test.make ~name:"benign sequences never panic any build" ~count:30 gen_sequence
    (fun seq ->
      List.for_all
        (fun config ->
          let _, panicked, _ = run_sequence config seq in
          not panicked)
        [ C.Config.full; C.Config.backward_only; C.Config.compat; C.Config.none ])

(* ---------- three-tier differential conformance fuzzer ----------

   Random bare-metal programs — arithmetic (XZR and SP operands
   included), bounded loads/stores of every width and addressing mode,
   forward conditional skips, pointer-authentication sequences, stack
   push/pop pairs and (optionally) a self-patching store — wrapped in a
   loop hot enough to cross the trace compiler's threshold, executed
   under all three tiers and once more on the traces tier with a
   pass-through step hook, which forces the stepped loop. The
   observable is the stop reason plus the whole-machine state
   fingerprint ({!Snapshot.Fingerprint.of_machine}: registers, flags,
   cycle and retirement totals, system registers, every non-zero
   memory frame, both translation stages), so any divergence the
   trace compiler could introduce — wrong retirement count, stale code
   after a self-patch, a mis-costed instruction, a stale cached PAC —
   fails the property. The interp run and the hooked run also carry a
   telemetry sink, and their counter files (auth failures included)
   must agree.

   The PAC sequences cover every in-block PAC form (PAC/AUT, the 1716
   forms, XPAC), an AUT under the wrong modifier (the poison path),
   key rewrites between two signings of the same pointer under a fixed
   modifier — a changed key must miss every compiled op's result cache, a
   re-installed one may hit — and SCTLR enable-bit toggles, which flip
   the key off and on across recompilations.

   Register discipline keeps random programs well-defined: R0-R5 are
   arithmetic scratch, R7 and R15 are system-register scratch, R8/R9
   carry the self-patch word and victim address, R10 points at the data
   region, R11 is the loop counter, R12/R13 (and ip0/ip1 for the 1716
   forms) are PAC scratch, R14 is the writeback base for memory runs. *)

open Aarch64

(* What a [Pac_pair] does with its key; see [emit_fitem]. *)
type pac_form =
  | Round_trip  (* sign + authenticate *)
  | Wrong_modifier  (* authenticate under modifier + 1: poisoned *)
  | Form_1716  (* PAC1716 + AUT1716 on ip1 with ip0 *)
  | Strip  (* sign, fold the signed pointer, XPAC *)
  | Rekey of { hi : bool; same : bool }
      (* sign, rewrite one key half (with its own value when [same]),
         authenticate the old signature, sign the same pointer again *)
  | Toggle  (* flip the key's SCTLR enable bit every 32nd trip, then sign + auth *)

type fitem =
  | Arith of Insn.t
  | Mem of Insn.t list  (* in-bounds accesses; see [gen_mem] *)
  | Adr_loop of int  (* adr R(n), loop *)
  | Store_load of int * int * int  (* rs, rd, 8-byte slot in the data page *)
  | Push_pop of int * int * int * int
  | Skip_z of int * Insn.t list  (* cbz R(n) over the protected run *)
  | Skip_nz of int * Insn.t list
  | Skip_cond of Insn.cond * Insn.t list
  | Pac_pair of Sysreg.pauth_key * pac_form  (* results folded into R1 *)
  | Pacga_mix
  | Patch  (* store R8 over the victim pair (selfmod programs only) *)

type fprog = {
  seeds : int list;  (* initial R0..R5 *)
  iters : int;  (* loop trips: past the hot threshold of 16 *)
  body : fitem list;
  selfmod : bool;
}

(* Scratch destinations, occasionally XZR; sources may also read SP. *)
let gen_dst =
  QCheck2.Gen.(
    frequency [ (8, map (fun n -> Insn.R n) (int_range 0 5)); (1, return Insn.XZR) ])

let gen_src = QCheck2.Gen.(frequency [ (8, gen_dst); (1, return Insn.SP) ])

let gen_arith =
  QCheck2.Gen.(
    let reg = gen_dst in
    let src = gen_src in
    let imm12 = int_range 0 4095 in
    let bitfield =
      int_range 0 63 >>= fun lsb -> map (fun w -> (lsb, w)) (int_range 1 (64 - lsb))
    in
    oneof
      [
        map2 (fun r v -> Insn.Movz (r, v, 0)) reg (int_range 0 0xffff);
        map3 (fun r v sh -> Insn.Movk (r, v, sh)) reg (int_range 0 0xffff)
          (oneofl [ 0; 16; 32; 48 ]);
        map3 (fun d n (lsb, w) -> Insn.Bfi (d, n, lsb, w)) reg src bitfield;
        map3 (fun d n (lsb, w) -> Insn.Ubfx (d, n, lsb, w)) reg src bitfield;
        map3 (fun d n v -> Insn.Add_imm (d, n, v)) reg src imm12;
        map3 (fun d n v -> Insn.Sub_imm (d, n, v)) reg src imm12;
        map3 (fun d n m -> Insn.Add_reg (d, n, m)) reg src reg;
        map3 (fun d n m -> Insn.Sub_reg (d, n, m)) reg reg src;
        map3 (fun d n m -> Insn.And_reg (d, n, m)) reg reg reg;
        map3 (fun d n m -> Insn.Orr_reg (d, n, m)) reg reg reg;
        map3 (fun d n m -> Insn.Eor_reg (d, n, m)) reg reg reg;
        map3 (fun d n m -> Insn.Subs_reg (d, n, m)) reg reg reg;
        map3 (fun d n v -> Insn.Subs_imm (d, n, v)) reg reg imm12;
        map3 (fun d n s -> Insn.Lsl_imm (d, n, s)) reg reg (int_range 0 15);
        map3 (fun d n s -> Insn.Lsr_imm (d, n, s)) reg reg (int_range 0 15);
        map2 (fun d n -> Insn.Mov (d, n)) reg src;
        return Insn.Nop;
      ])

(* Memory runs that stay inside the first 64 bytes of the data page
   (R10) or the 16 bytes they push below SP, and leave R10, R14 and SP
   as they found them. Together they reach every addressing-mode arm of
   the compiled memory ops: byte accesses, Pre/Post writeback on a
   general-register base, SP-relative offsets, XZR stored and loaded,
   SP stored and reloaded, and the E2 call probe's frame push. *)
let gen_mem =
  QCheck2.Gen.(
    let open Insn in
    let d = gen_dst in
    let data off = Off (R 10, off) in
    let writeback =
      (* st [x14, #o]! then ld [x14], #-o, or the Post/Pre mirror *)
      oneofl
        [
          (fun s d o -> [ Str (s, Pre (R 14, o)); Ldr (d, Post (R 14, -o)) ]);
          (fun s d o -> [ Str (s, Post (R 14, o)); Ldr (d, Pre (R 14, -o)) ]);
          (fun s d o -> [ Strb (s, Pre (R 14, o)); Ldrb (d, Post (R 14, -o)) ]);
          (fun s d o -> [ Strb (s, Post (R 14, o)); Ldrb (d, Pre (R 14, -o)) ]);
          (fun s d o -> [ Stp (s, d, Pre (R 14, o)); Ldp (d, s, Post (R 14, -o)) ]);
          (fun s d o -> [ Stp (s, d, Post (R 14, o)); Ldp (d, s, Pre (R 14, -o)) ]);
        ]
    in
    oneof
      [
        map3 (fun s d o -> [ Strb (s, data o); Ldrb (d, data o) ]) d d (int_range 0 63);
        map3 (fun s d k -> [ Str (s, data (8 * k)); Ldr (d, data (8 * k)) ]) d d
          (int_range 0 7);
        map (fun k -> [ Str (SP, data (8 * k)); Ldr (SP, data (8 * k)) ]) (int_range 0 7);
        (writeback >>= fun f ->
         map3 (fun s d k -> Mov (R 14, R 10) :: f s d (16 * k)) d d (int_range 1 3));
        map3
          (fun a d o ->
            [
              Stp (a, XZR, Pre (SP, -16));
              Ldrb (d, Off (SP, o));
              Ldr (d, Off (SP, 8));
              Ldp (a, XZR, Post (SP, 16));
            ])
          d d (int_range 0 15);
      ])

let gen_fitem =
  QCheck2.Gen.(
    let r5 = int_range 0 5 in
    let protected_run = list_size (int_range 1 3) gen_arith in
    frequency
      [
        (5, map (fun i -> Arith i) gen_arith);
        (2, map (fun is -> Mem is) gen_mem);
        (1, map (fun r -> Adr_loop r) r5);
        (2, map3 (fun s d k -> Store_load (s, d, k)) r5 r5 (int_range 0 7));
        ( 1,
          map3 (fun a b c -> (a, b, c)) r5 r5 r5 >>= fun (a, b, c) ->
          map (fun d -> Push_pop (a, b, c, d)) r5 );
        (1, map2 (fun r is -> Skip_z (r, is)) r5 protected_run);
        (1, map2 (fun r is -> Skip_nz (r, is)) r5 protected_run);
        ( 1,
          map2
            (fun c is -> Skip_cond (c, is))
            (oneofl Insn.[ Eq; Ne; Lt; Ge; Gt; Le ])
            protected_run );
        ( 2,
          map2
            (fun k f -> Pac_pair (k, f))
            (oneofl Sysreg.[ IA; IB; DA; DB ])
            (oneof
               [
                 return Round_trip;
                 return Wrong_modifier;
                 return Form_1716;
                 return Strip;
                 map2 (fun hi same -> Rekey { hi; same }) bool bool;
                 return Toggle;
               ]) );
        (1, return Pacga_mix);
      ])

let gen_fprog =
  QCheck2.Gen.(
    list_size (return 6) (int_range 0 0xffff) >>= fun seeds ->
    int_range 20 60 >>= fun iters ->
    list_size (int_range 2 12) gen_fitem >>= fun body ->
    bool >>= fun selfmod ->
    (if selfmod then
       int_range 0 (List.length body) >>= fun at ->
       let rec ins i = function
         | rest when i = 0 -> Patch :: rest
         | [] -> [ Patch ]
         | x :: rest -> x :: ins (i - 1) rest
       in
       return (ins at body)
     else return body)
    >>= fun body -> return { seeds; iters; body; selfmod })

let fitem_to_string = function
  | Arith i -> Insn.to_string i
  | Mem is -> String.concat "; " (List.map Insn.to_string is)
  | Adr_loop r -> Printf.sprintf "adr r%d, loop" r
  | Store_load (s, d, k) -> Printf.sprintf "st/ld r%d->r%d @%d" s d k
  | Push_pop (a, b, c, d) -> Printf.sprintf "push/pop %d,%d->%d,%d" a b c d
  | Skip_z (r, is) ->
      Printf.sprintf "skip-z r%d [%s]" r
        (String.concat "; " (List.map Insn.to_string is))
  | Skip_nz (r, is) ->
      Printf.sprintf "skip-nz r%d [%s]" r
        (String.concat "; " (List.map Insn.to_string is))
  | Skip_cond (_, is) ->
      Printf.sprintf "skip-cond [%s]"
        (String.concat "; " (List.map Insn.to_string is))
  | Pac_pair (k, f) ->
      Printf.sprintf "pac/aut %s %s"
        (Sysreg.name (fst (Sysreg.key_halves k)))
        (match f with
        | Round_trip -> "round-trip"
        | Wrong_modifier -> "wrong-modifier"
        | Form_1716 -> "1716"
        | Strip -> "xpac"
        | Rekey { hi; same } ->
            Printf.sprintf "rekey(%s,%s)" (if hi then "hi" else "lo")
              (if same then "same" else "new")
        | Toggle -> "sctlr-toggle")
  | Pacga_mix -> "pacga"
  | Patch -> "self-patch"

let print_fprog p =
  Printf.sprintf "iters=%d selfmod=%b seeds=[%s] body=[%s]" p.iters p.selfmod
    (String.concat "," (List.map string_of_int p.seeds))
    (String.concat " | " (List.map fitem_to_string p.body))

(* Emit one body item; returns the Asm items and the instruction count
   (labels are free), so the victim pair can be 8-aligned. *)
let emit_fitem fresh = function
  | Arith i -> ([ Asm.ins i ], 1)
  | Mem is -> (List.map Asm.ins is, List.length is)
  | Adr_loop r -> ([ Asm.adr_of (Insn.R r) "loop" ], 1)
  | Store_load (s, d, k) ->
      ( [
          Asm.ins (Insn.Str (Insn.R s, Insn.Off (Insn.R 10, 8 * k)));
          Asm.ins (Insn.Ldr (Insn.R d, Insn.Off (Insn.R 10, 8 * k)));
        ],
        2 )
  | Push_pop (a, b, c, d) ->
      ( [
          Asm.ins (Insn.Stp (Insn.R a, Insn.R b, Insn.Pre (Insn.SP, -16)));
          Asm.ins (Insn.Ldp (Insn.R c, Insn.R d, Insn.Post (Insn.SP, 16)));
        ],
        2 )
  | Skip_z (r, is) ->
      let l = fresh () in
      ( (Asm.cbz_to (Insn.R r) l :: List.map Asm.ins is) @ [ Asm.label l ],
        1 + List.length is )
  | Skip_nz (r, is) ->
      let l = fresh () in
      ( (Asm.cbnz_to (Insn.R r) l :: List.map Asm.ins is) @ [ Asm.label l ],
        1 + List.length is )
  | Skip_cond (c, is) ->
      let l = fresh () in
      ( (Asm.bcond_to c l :: List.map Asm.ins is) @ [ Asm.label l ],
        1 + List.length is )
  | Pac_pair (k, form) ->
      let open Insn in
      (* the data pointer signed under the loop counter *)
      let sign = [ Mov (R 12, R 10); Mov (R 13, R 11); Pac (k, R 12, R 13) ] in
      let fold r = Add_reg (R 1, R 1, r) in
      let plain insns = (List.map Asm.ins insns, List.length insns) in
      (match form with
      | Round_trip -> plain (sign @ [ Aut (k, R 12, R 13); fold (R 12) ])
      | Wrong_modifier ->
          plain
            (sign @ [ Add_imm (R 13, R 13, 1); Aut (k, R 12, R 13); fold (R 12) ])
      | Form_1716 ->
          plain [ Mov (ip1, R 10); Mov (ip0, R 11); Pac1716 k; Aut1716 k; fold ip1 ]
      | Strip -> plain (sign @ [ Eor_reg (R 2, R 2, R 12); Xpac (R 12); fold (R 12) ])
      | Rekey { hi; same } ->
          (* a fixed modifier (R10): only the key differs between the
             trips' signings of this pointer *)
          let hi_reg, lo_reg = Sysreg.key_halves k in
          let half = if hi then hi_reg else lo_reg in
          plain
            ([ Mov (R 12, R 10); Pac (k, R 12, R 10); Mrs (R 15, half) ]
            @ (if same then [] else [ Eor_reg (R 15, R 15, R 11) ])
            @ [
                Msr (half, R 15);
                Aut (k, R 12, R 10);
                fold (R 12);
                Mov (R 12, R 10);
                Pac (k, R 12, R 10);
                fold (R 12);
              ])
      | Toggle ->
          let bit = Sysreg.sctlr_enable_bit k in
          let l = fresh () in
          let toggle, n =
            plain
              [
                (if bit >= 16 then Movz (R 15, 1 lsl (bit - 16), 16)
                 else Movz (R 15, 1 lsl bit, 0));
                Mrs (R 7, Sysreg.SCTLR_EL1);
                Eor_reg (R 7, R 7, R 15);
                Msr (Sysreg.SCTLR_EL1, R 7);
              ]
          in
          let tail, m = plain (sign @ [ Aut (k, R 12, R 13); fold (R 12) ]) in
          ( (Asm.ins (Ubfx (R 15, R 11, 0, 5)) :: Asm.cbnz_to (R 15) l :: toggle)
            @ (Asm.label l :: tail),
            2 + n + m ))
  | Pacga_mix ->
      ( [
          Asm.ins (Insn.Pacga (Insn.R 13, Insn.R 0, Insn.R 1));
          Asm.ins (Insn.Eor_reg (Insn.R 2, Insn.R 2, Insn.R 13));
        ],
        2 )
  | Patch -> ([ Asm.ins (Insn.Str (Insn.R 8, Insn.Off (Insn.R 9, 0))) ], 1)

let emit_fprog p =
  let fresh =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "skip%d" !c
  in
  let body_items, body_insns =
    List.fold_left
      (fun (items, n) it ->
        let is, k = emit_fitem fresh it in
        (items @ is, n + k))
      ([], 0) p.body
  in
  (* The self-patch replacement word: both halves are PC-independent
     encodings, so they can be computed before assembly. *)
  let enc insn =
    Int64.logand (Int64.of_int32 (Encode.encode ~pc:0L insn)) 0xffffffffL
  in
  let word =
    Int64.logor
      (enc (Insn.Movz (Insn.R 4, 9, 0)))
      (Int64.shift_left (enc Insn.Nop) 32)
  in
  let mov_abs r v =
    let chunk i =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * i)) 0xffffL)
    in
    Asm.ins (Insn.Movz (r, chunk 0, 0))
    :: List.map (fun i -> Asm.ins (Insn.Movk (r, chunk i, 16 * i))) [ 1; 2; 3 ]
  in
  let prologue =
    mov_abs (Insn.R 10) Bare.data_base
    @ (if p.selfmod then Asm.mov_addr (Insn.R 9) "victim" @ mov_abs (Insn.R 8) word
       else [])
    @ List.mapi (fun i v -> Asm.ins (Insn.Movz (Insn.R i, v, 0))) p.seeds
    @ [ Asm.ins (Insn.Movz (Insn.R 11, p.iters, 0)) ]
  in
  let prologue_insns = 4 + (if p.selfmod then 8 else 0) + 6 + 1 in
  (* keep the 8-byte victim pair aligned for the single patching store *)
  let pad =
    if (prologue_insns + body_insns) mod 2 = 1 then [ Asm.ins Insn.Nop ] else []
  in
  let victim =
    if p.selfmod then
      [
        Asm.label "victim";
        Asm.ins (Insn.Movz (Insn.R 4, 7, 0));
        Asm.ins Insn.Nop;
      ]
    else []
  in
  let prog = Asm.create () in
  Asm.add_function prog ~name:"fuzz"
    (prologue
    @ [ Asm.label "loop" ]
    @ body_items @ pad @ victim
    @ [
        Asm.ins (Insn.Sub_imm (Insn.R 11, Insn.R 11, 1));
        Asm.cbnz_to (Insn.R 11) "loop";
        Asm.ins Insn.Ret;
      ]);
  prog

(* [observed] attaches a telemetry sink; the third result is its
   counter file ("" without one). *)
let run_fprog ?(hooked = false) ?(observed = false) ~tier p =
  let m = Bare.smp ~seed:11L ~tier () in
  let cpu = Machine.boot_core m in
  if hooked then Cpu.set_step_hook cpu (Some (fun _ ~pc:_ _ -> Cpu.Exec));
  let sink = if observed then Some (Telemetry.Sink.create ~cpu:0 ()) else None in
  Option.iter (Cpu.attach_telemetry cpu) sink;
  if p.selfmod then
    Bare.map_region cpu ~base:Bare.code_base ~pages:16 Mmu.rwx;
  let layout = Bare.load cpu (emit_fprog p) in
  let stop = Bare.call ~max_insns:200_000 cpu layout "fuzz" in
  let counters =
    match sink with
    | None -> ""
    | Some s ->
        Telemetry.Counters.to_json
          (Telemetry.Counters.snapshot (Telemetry.Sink.counters s))
  in
  (Cpu.stop_to_string stop, Snapshot.Fingerprint.of_machine m, counters)

let prop_three_tier =
  QCheck2.Test.make
    ~name:"random programs: interp = icache = traces (stop + fingerprint)"
    ~count:200 ~print:print_fprog gen_fprog (fun p ->
      let stop_i, fp_i, ctr_i = run_fprog ~observed:true ~tier:Cpu.Interp p in
      let stop_c, fp_c, _ = run_fprog ~tier:Cpu.Icache p in
      let stop_t, fp_t, _ = run_fprog ~tier:Cpu.Traces p in
      let stop_h, fp_h, ctr_h =
        run_fprog ~hooked:true ~observed:true ~tier:Cpu.Traces p
      in
      stop_i = stop_c && stop_c = stop_t && stop_t = stop_h && fp_i = fp_c
      && fp_c = fp_t && fp_t = fp_h && ctr_i = ctr_h)

(* Telemetry is pure observation in every tier: booting the kernel with
   counters on and running a random syscall sequence must produce the
   identical counter file whichever tier executes it. *)
let run_sequence_tier config ~tier seq =
  let sys = K.System.boot ~config ~seed:99L ~telemetry:true ~tier () in
  K.Kmem.map_user_region (K.System.cpu sys) ~base:K.Layout.user_data_base
    ~bytes:0x4000 Aarch64.Mmu.rw;
  let observations = List.map (execute sys) seq in
  let counters =
    match K.System.telemetry sys with
    | Some hub -> Telemetry.Counters.to_json (Telemetry.Hub.counters hub)
    | None -> Alcotest.fail "telemetry boot carries no hub"
  in
  (observations, counters, Aarch64.Cpu.cycles (K.System.cpu sys))

let prop_tier_telemetry =
  QCheck2.Test.make
    ~name:"syscall sequences: telemetry counters identical across tiers"
    ~count:15 gen_sequence (fun seq ->
      let base = run_sequence_tier C.Config.full ~tier:Cpu.Interp seq in
      List.for_all
        (fun tier -> run_sequence_tier C.Config.full ~tier seq = base)
        [ Cpu.Icache; Cpu.Traces ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_transparency;
    QCheck_alcotest.to_alcotest prop_determinism;
    QCheck_alcotest.to_alcotest prop_no_benign_panic;
    QCheck_alcotest.to_alcotest prop_three_tier;
    QCheck_alcotest.to_alcotest prop_tier_telemetry;
  ]
