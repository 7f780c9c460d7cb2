exception Unencodable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unencodable s)) fmt

(* Register field: 6 bits. 0..30 are X registers, 61 is SP, 62 is XZR. *)
let reg_code = function
  | Insn.R n ->
      if n < 0 || n > 30 then fail "register x%d" n;
      n
  | Insn.SP -> 61
  | Insn.XZR -> 62

let reg_of_code = function
  | n when n >= 0 && n <= 30 -> Some (Insn.R n)
  | 61 -> Some Insn.SP
  | 62 -> Some Insn.XZR
  | _ -> None

let key_code = function
  | Sysreg.IA -> 0
  | Sysreg.IB -> 1
  | Sysreg.DA -> 2
  | Sysreg.DB -> 3
  | Sysreg.GA -> 4

let key_of_code = function
  | 0 -> Some Sysreg.IA
  | 1 -> Some Sysreg.IB
  | 2 -> Some Sysreg.DA
  | 3 -> Some Sysreg.DB
  | 4 -> Some Sysreg.GA
  | _ -> None

let cond_code = function
  | Insn.Eq -> 0
  | Insn.Ne -> 1
  | Insn.Lt -> 2
  | Insn.Ge -> 3
  | Insn.Gt -> 4
  | Insn.Le -> 5

let cond_of_code = function
  | 0 -> Some Insn.Eq
  | 1 -> Some Insn.Ne
  | 2 -> Some Insn.Lt
  | 3 -> Some Insn.Ge
  | 4 -> Some Insn.Gt
  | 5 -> Some Insn.Le
  | _ -> None


(* Signed immediate helpers: [sfield v bits] encodes a signed value into
   [bits] bits; [sext v bits] decodes it back. *)
let sfield name v bits =
  let lo = -(1 lsl (bits - 1)) and hi = (1 lsl (bits - 1)) - 1 in
  if v < lo || v > hi then fail "%s immediate %d out of range [%d, %d]" name v lo hi;
  v land ((1 lsl bits) - 1)

let sext v bits =
  let m = 1 lsl (bits - 1) in
  (v land ((1 lsl bits) - 1)) - (if v land m <> 0 then 1 lsl bits else 0)

let ufield name v bits =
  if v < 0 || v >= 1 lsl bits then fail "%s field %d out of range" name v;
  v

(* PC-relative word offsets. *)
let rel name ~pc target bits =
  let delta = Int64.sub target pc in
  if Int64.rem delta 4L <> 0L then fail "%s target 0x%Lx not word-aligned" name target;
  let words = Int64.to_int (Int64.div delta 4L) in
  sfield name words bits

let target_of ~pc words = Int64.add pc (Int64.of_int (words * 4))

(* A BFI/UBFX field must be non-empty and end at or below bit 63. *)
let bitfield_ok ~lsb ~width = width >= 1 && lsb + width <= 64

(* Opcode numbers; bits [31:26] of the word. *)
let op_nop = 0
let op_movz = 1
let op_movk = 2
let op_mov = 3
let op_add_imm = 4
let op_sub_imm = 5
let op_add_reg = 6
let op_sub_reg = 7
let op_subs_reg = 8
let op_subs_imm = 9
let op_and_reg = 10
let op_orr_reg = 11
let op_eor_reg = 12
let op_lsl_imm = 13
let op_lsr_imm = 14
let op_bfi = 15
let op_ubfx = 16
let op_adr = 17
let op_ldr = 18
let op_str = 19
let op_ldrb = 20
let op_strb = 21
let op_ldp = 22
let op_stp = 23
let op_b = 24
let op_bl = 25
let op_br = 26
let op_blr = 27
let op_ret = 28
let op_cbz = 29
let op_cbnz = 30
let op_bcond = 31
let op_pac = 32
let op_aut = 33
let op_pac1716 = 34
let op_aut1716 = 35
let op_xpac = 36
let op_pacga = 37
let op_blra = 38
let op_bra = 39
let op_reta = 40
let op_mrs = 41
let op_msr = 42
let op_svc = 43
let op_eret = 44
let op_isb = 45
let op_brk = 46
let op_hlt = 47

let pack op fields =
  let word = List.fold_left (fun acc (v, lo) -> acc lor (v lsl lo)) (op lsl 26) fields in
  Int32.of_int word

let amode_fields m base_lo imm_lo imm_bits scale =
  let encode_off name off =
    if off mod scale <> 0 then fail "%s offset %d not multiple of %d" name off scale;
    sfield name (off / scale) imm_bits
  in
  match m with
  | Insn.Off (base, off) ->
      [ (reg_code base, base_lo); (0, imm_lo + imm_bits); (encode_off "off" off, imm_lo) ]
  | Insn.Pre (base, off) ->
      [ (reg_code base, base_lo); (1, imm_lo + imm_bits); (encode_off "pre" off, imm_lo) ]
  | Insn.Post (base, off) ->
      [ (reg_code base, base_lo); (2, imm_lo + imm_bits); (encode_off "post" off, imm_lo) ]

let encode ~pc insn =
  let r = reg_code in
  match insn with
  (* The all-zero word must not decode as NOP (zeroed memory should
     fault when executed), so NOP carries a nonzero marker. *)
  | Insn.Nop -> pack op_nop [ (1, 0) ]
  | Insn.Movz (rd, imm, sh) ->
      if sh land 15 <> 0 || sh < 0 || sh > 48 then fail "movz shift %d" sh;
      pack op_movz [ (r rd, 20); (ufield "imm16" imm 16, 4); (sh / 16, 2) ]
  | Insn.Movk (rd, imm, sh) ->
      if sh land 15 <> 0 || sh < 0 || sh > 48 then fail "movk shift %d" sh;
      pack op_movk [ (r rd, 20); (ufield "imm16" imm 16, 4); (sh / 16, 2) ]
  | Insn.Mov (rd, rn) -> pack op_mov [ (r rd, 20); (r rn, 14) ]
  | Insn.Add_imm (rd, rn, imm) ->
      pack op_add_imm [ (r rd, 20); (r rn, 14); (sfield "add" imm 13, 0) ]
  | Insn.Sub_imm (rd, rn, imm) ->
      pack op_sub_imm [ (r rd, 20); (r rn, 14); (sfield "sub" imm 13, 0) ]
  | Insn.Add_reg (rd, rn, rm) -> pack op_add_reg [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Sub_reg (rd, rn, rm) -> pack op_sub_reg [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Subs_reg (rd, rn, rm) -> pack op_subs_reg [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Subs_imm (rd, rn, imm) ->
      pack op_subs_imm [ (r rd, 20); (r rn, 14); (sfield "subs" imm 13, 0) ]
  | Insn.And_reg (rd, rn, rm) -> pack op_and_reg [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Orr_reg (rd, rn, rm) -> pack op_orr_reg [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Eor_reg (rd, rn, rm) -> pack op_eor_reg [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Lsl_imm (rd, rn, sh) ->
      pack op_lsl_imm [ (r rd, 20); (r rn, 14); (ufield "shift" sh 6, 8) ]
  | Insn.Lsr_imm (rd, rn, sh) ->
      pack op_lsr_imm [ (r rd, 20); (r rn, 14); (ufield "shift" sh 6, 8) ]
  | Insn.Bfi (rd, rn, lsb, w) | Insn.Ubfx (rd, rn, lsb, w) ->
      let op = match insn with Insn.Bfi _ -> op_bfi | _ -> op_ubfx in
      let lsb = ufield "lsb" lsb 6 and w = ufield "width" w 7 in
      if not (bitfield_ok ~lsb ~width:w) then fail "bitfield lsb %d width %d" lsb w;
      pack op [ (r rd, 20); (r rn, 14); (lsb, 8); (w, 1) ]
  | Insn.Adr (rd, target) -> pack op_adr [ (r rd, 20); (rel "adr" ~pc target 19, 0) ]
  | Insn.Ldr (rd, m) -> pack op_ldr ((r rd, 20) :: amode_fields m 14 0 12 1)
  | Insn.Str (rs, m) -> pack op_str ((r rs, 20) :: amode_fields m 14 0 12 1)
  | Insn.Ldrb (rd, m) -> pack op_ldrb ((r rd, 20) :: amode_fields m 14 0 12 1)
  | Insn.Strb (rs, m) -> pack op_strb ((r rs, 20) :: amode_fields m 14 0 12 1)
  | Insn.Ldp (r1, r2, m) ->
      pack op_ldp ((r r1, 20) :: (r r2, 14) :: amode_fields m 8 0 6 8)
  | Insn.Stp (r1, r2, m) ->
      pack op_stp ((r r1, 20) :: (r r2, 14) :: amode_fields m 8 0 6 8)
  | Insn.B target -> pack op_b [ (rel "b" ~pc target 26, 0) ]
  | Insn.Bl target -> pack op_bl [ (rel "bl" ~pc target 26, 0) ]
  | Insn.Br rn -> pack op_br [ (r rn, 20) ]
  | Insn.Blr rn -> pack op_blr [ (r rn, 20) ]
  | Insn.Ret -> pack op_ret []
  | Insn.Cbz (rn, target) -> pack op_cbz [ (r rn, 20); (rel "cbz" ~pc target 19, 0) ]
  | Insn.Cbnz (rn, target) -> pack op_cbnz [ (r rn, 20); (rel "cbnz" ~pc target 19, 0) ]
  | Insn.Bcond (c, target) ->
      pack op_bcond [ (cond_code c, 23); (rel "b.cond" ~pc target 19, 0) ]
  | Insn.Pac (k, rd, rm) -> pack op_pac [ (key_code k, 23); (r rd, 17); (r rm, 11) ]
  | Insn.Aut (k, rd, rm) -> pack op_aut [ (key_code k, 23); (r rd, 17); (r rm, 11) ]
  | Insn.Pac1716 k -> pack op_pac1716 [ (key_code k, 23) ]
  | Insn.Aut1716 k -> pack op_aut1716 [ (key_code k, 23) ]
  | Insn.Xpac rd -> pack op_xpac [ (r rd, 20) ]
  | Insn.Pacga (rd, rn, rm) -> pack op_pacga [ (r rd, 20); (r rn, 14); (r rm, 8) ]
  | Insn.Blra (k, rn, rm) -> pack op_blra [ (key_code k, 23); (r rn, 17); (r rm, 11) ]
  | Insn.Bra (k, rn, rm) -> pack op_bra [ (key_code k, 23); (r rn, 17); (r rm, 11) ]
  | Insn.Reta k -> pack op_reta [ (key_code k, 23) ]
  | Insn.Mrs (rd, sr) -> pack op_mrs [ (r rd, 20); (Sysreg.to_id sr, 14) ]
  | Insn.Msr (sr, rn) -> pack op_msr [ (Sysreg.to_id sr, 14); (r rn, 20) ]
  | Insn.Svc imm -> pack op_svc [ (ufield "svc" imm 16, 0) ]
  | Insn.Eret -> pack op_eret []
  | Insn.Isb -> pack op_isb []
  | Insn.Brk imm -> pack op_brk [ (ufield "brk" imm 16, 0) ]
  | Insn.Hlt imm -> pack op_hlt [ (ufield "hlt" imm 16, 0) ]

let decode ~pc word =
  let w = Int32.to_int word land 0xffffffff in
  let op = (w lsr 26) land 0x3f in
  let field lo bits = (w lsr lo) land ((1 lsl bits) - 1) in
  let reg lo = reg_of_code (field lo 6) in
  let ( let* ) = Option.bind in
  let amode base_lo imm_lo imm_bits scale =
    let* base = reg base_lo in
    let off = sext (field imm_lo imm_bits) imm_bits * scale in
    match field (imm_lo + imm_bits) 2 with
    | 0 -> Some (Insn.Off (base, off))
    | 1 -> Some (Insn.Pre (base, off))
    | 2 -> Some (Insn.Post (base, off))
    | _ -> None
  in
  let rel19 () = target_of ~pc (sext (field 0 19) 19) in
  match op with
  | 0 when w land 0x3ffffff = 1 -> Some Insn.Nop
  | 1 ->
      let* rd = reg 20 in
      Some (Insn.Movz (rd, field 4 16, field 2 2 * 16))
  | 2 ->
      let* rd = reg 20 in
      Some (Insn.Movk (rd, field 4 16, field 2 2 * 16))
  | 3 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      Some (Insn.Mov (rd, rn))
  | 4 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      Some (Insn.Add_imm (rd, rn, sext (field 0 13) 13))
  | 5 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      Some (Insn.Sub_imm (rd, rn, sext (field 0 13) 13))
  | 6 | 7 | 8 | 10 | 11 | 12 | 37 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      let* rm = reg 8 in
      let ctor =
        match op with
        | 6 -> fun (a, b, c) -> Insn.Add_reg (a, b, c)
        | 7 -> fun (a, b, c) -> Insn.Sub_reg (a, b, c)
        | 8 -> fun (a, b, c) -> Insn.Subs_reg (a, b, c)
        | 10 -> fun (a, b, c) -> Insn.And_reg (a, b, c)
        | 11 -> fun (a, b, c) -> Insn.Orr_reg (a, b, c)
        | 12 -> fun (a, b, c) -> Insn.Eor_reg (a, b, c)
        | _ -> fun (a, b, c) -> Insn.Pacga (a, b, c)
      in
      Some (ctor (rd, rn, rm))
  | 9 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      Some (Insn.Subs_imm (rd, rn, sext (field 0 13) 13))
  | 13 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      Some (Insn.Lsl_imm (rd, rn, field 8 6))
  | 14 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      Some (Insn.Lsr_imm (rd, rn, field 8 6))
  | 15 | 16 ->
      let* rd = reg 20 in
      let* rn = reg 14 in
      let lsb = field 8 6 and width = field 1 7 in
      if not (bitfield_ok ~lsb ~width) then None
      else if op = 15 then Some (Insn.Bfi (rd, rn, lsb, width))
      else Some (Insn.Ubfx (rd, rn, lsb, width))
  | 17 ->
      let* rd = reg 20 in
      Some (Insn.Adr (rd, rel19 ()))
  | 18 ->
      let* rd = reg 20 in
      let* m = amode 14 0 12 1 in
      Some (Insn.Ldr (rd, m))
  | 19 ->
      let* rs = reg 20 in
      let* m = amode 14 0 12 1 in
      Some (Insn.Str (rs, m))
  | 20 ->
      let* rd = reg 20 in
      let* m = amode 14 0 12 1 in
      Some (Insn.Ldrb (rd, m))
  | 21 ->
      let* rs = reg 20 in
      let* m = amode 14 0 12 1 in
      Some (Insn.Strb (rs, m))
  | 22 ->
      let* r1 = reg 20 in
      let* r2 = reg 14 in
      let* m = amode 8 0 6 8 in
      Some (Insn.Ldp (r1, r2, m))
  | 23 ->
      let* r1 = reg 20 in
      let* r2 = reg 14 in
      let* m = amode 8 0 6 8 in
      Some (Insn.Stp (r1, r2, m))
  | 24 -> Some (Insn.B (target_of ~pc (sext (field 0 26) 26)))
  | 25 -> Some (Insn.Bl (target_of ~pc (sext (field 0 26) 26)))
  | 26 ->
      let* rn = reg 20 in
      Some (Insn.Br rn)
  | 27 ->
      let* rn = reg 20 in
      Some (Insn.Blr rn)
  | 28 -> Some Insn.Ret
  | 29 ->
      let* rn = reg 20 in
      Some (Insn.Cbz (rn, rel19 ()))
  | 30 ->
      let* rn = reg 20 in
      Some (Insn.Cbnz (rn, rel19 ()))
  | 31 ->
      let* c = cond_of_code (field 23 3) in
      Some (Insn.Bcond (c, rel19 ()))
  | 32 | 33 ->
      let* k = key_of_code (field 23 3) in
      let* rd = reg 17 in
      let* rm = reg 11 in
      Some (if op = 32 then Insn.Pac (k, rd, rm) else Insn.Aut (k, rd, rm))
  | 34 | 35 ->
      let* k = key_of_code (field 23 3) in
      Some (if op = 34 then Insn.Pac1716 k else Insn.Aut1716 k)
  | 36 ->
      let* rd = reg 20 in
      Some (Insn.Xpac rd)
  | 38 | 39 ->
      let* k = key_of_code (field 23 3) in
      let* rn = reg 17 in
      let* rm = reg 11 in
      Some (if op = 38 then Insn.Blra (k, rn, rm) else Insn.Bra (k, rn, rm))
  | 40 ->
      let* k = key_of_code (field 23 3) in
      Some (Insn.Reta k)
  | 41 ->
      let* rd = reg 20 in
      let* sr = Sysreg.of_id (field 14 6) in
      Some (Insn.Mrs (rd, sr))
  | 42 ->
      let* rn = reg 20 in
      let* sr = Sysreg.of_id (field 14 6) in
      Some (Insn.Msr (sr, rn))
  | 43 -> Some (Insn.Svc (field 0 16))
  | 44 -> Some Insn.Eret
  | 45 -> Some Insn.Isb
  | 46 -> Some (Insn.Brk (field 0 16))
  | 47 -> Some (Insn.Hlt (field 0 16))
  | _ -> None
