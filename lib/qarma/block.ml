(* Word-level QARMA-64. The state is one int64 whose most significant
   nibble is cell 0; rows of the 4x4 cell array are its four 16-bit
   groups, row 0 on top. Every layer is a handful of shifts and masks on
   that word, except the S-box layer, which looks up whole bytes in a
   256-entry table on the two 32-bit halves as native ints.

   The helpers are [@inline] and free of local closures so that the
   round loop keeps the state, the tweak and the round keys unboxed:
   an [encrypt] allocates only its boxed result. *)

type sbox = Sigma0 | Sigma1 | Sigma2
type key = { w0 : int64; k0 : int64 }

(* [fwd] and [inv] map a byte (two cells) through the S-box and its
   inverse. *)
type t = { sbox : sbox; rounds : int; fwd : string; inv : string }

let alpha = 0xC0AC29B7C97C50DDL

let round_constants =
  [|
    0x0000000000000000L;
    0x13198A2E03707344L;
    0xA4093822299F31D0L;
    0x082EFA98EC4E6C89L;
    0x452821E638D01377L;
    0xBE5466CF34E90C6CL;
    0x3F84D5B5B5470917L;
    0x9216D5D98979FB1BL;
  |]

let cell_table = function
  | Sigma0 -> [| 0; 14; 2; 10; 9; 15; 8; 11; 6; 4; 3; 7; 13; 12; 1; 5 |]
  | Sigma1 -> [| 10; 13; 14; 6; 15; 7; 3; 5; 9; 8; 0; 12; 11; 1; 2; 4 |]
  | Sigma2 -> [| 11; 6; 8; 15; 12; 0; 9; 14; 3; 7; 4; 5; 13; 2; 1; 10 |]

let byte_tables sbox =
  let s = cell_table sbox in
  let s_inv = Array.make 16 0 in
  Array.iteri (fun i v -> s_inv.(v) <- i) s;
  let bytes s = String.init 256 (fun b -> Char.chr ((s.(b lsr 4) lsl 4) lor s.(b land 15))) in
  (bytes s, bytes s_inv)

(* Built once here, shared by every instance: [create] runs on every
   [Cpu.create]. *)
let sigma0_tables = byte_tables Sigma0
let sigma1_tables = byte_tables Sigma1
let sigma2_tables = byte_tables Sigma2

let create ?(sbox = Sigma1) ?(rounds = 6) () =
  if rounds < 1 || rounds > Array.length round_constants then
    invalid_arg "Qarma.Block.create: rounds";
  let fwd, inv =
    match sbox with
    | Sigma0 -> sigma0_tables
    | Sigma1 -> sigma1_tables
    | Sigma2 -> sigma2_tables
  in
  { sbox; rounds; fwd; inv }

let sbox t = t.sbox
let rounds t = t.rounds
let key_of_pair (hi, lo) = { w0 = hi; k0 = lo }

external ( ^^ ) : int64 -> int64 -> int64 = "%int64_xor"
external ( &&& ) : int64 -> int64 -> int64 = "%int64_and"
external ( ||| ) : int64 -> int64 -> int64 = "%int64_or"
external shl : int64 -> int -> int64 = "%int64_lsl"
external shr : int64 -> int -> int64 = "%int64_lsr"

let[@inline] rotl x n = shl x n ||| shr x (64 - n)

let[@inline] sub32 tbl v =
  (Char.code (String.unsafe_get tbl (v lsr 24)) lsl 24)
  lor (Char.code (String.unsafe_get tbl ((v lsr 16) land 0xff)) lsl 16)
  lor (Char.code (String.unsafe_get tbl ((v lsr 8) land 0xff)) lsl 8)
  lor Char.code (String.unsafe_get tbl (v land 0xff))

let[@inline] sub_cells tbl x =
  let hi = sub32 tbl (Int64.to_int (shr x 32)) in
  let lo = sub32 tbl (Int64.to_int x land 0xffff_ffff) in
  shl (Int64.of_int hi) 32 ||| Int64.of_int lo

(* The cell permutations, unrolled: output cell i is input cell p[i],
   and cells that travel the same distance move together under one
   mask. *)
let[@inline] tau x =
  shr (x &&& 0x00F0000000000000L) 52
  ||| shr (x &&& 0x0000F00000000000L) 36
  ||| shr (x &&& 0x000F000000000000L) 28
  ||| shr (x &&& 0x000000000F000000L) 20
  ||| shr (x &&& 0x0F00000000000000L) 16
  ||| shr (x &&& 0x00000F00F0000000L) 12
  ||| (x &&& 0xF000000F00000000L)
  ||| shl (x &&& 0x000000000000000FL) 12
  ||| shl (x &&& 0x000000F000000000L) 16
  ||| shl (x &&& 0x00000000000000F0L) 20
  ||| shl (x &&& 0x0000000000F0F000L) 24
  ||| shl (x &&& 0x00000000000F0F00L) 40

let[@inline] tau_inv x =
  shr (x &&& 0x0F0F000000000000L) 40
  ||| shr (x &&& 0x0000F0F000000000L) 24
  ||| shr (x &&& 0x000000000F000000L) 20
  ||| shr (x &&& 0x00F0000000000000L) 16
  ||| shr (x &&& 0x000000000000F000L) 12
  ||| (x &&& 0xF000000F00000000L)
  ||| shl (x &&& 0x00000000F00F0000L) 12
  ||| shl (x &&& 0x00000F0000000000L) 16
  ||| shl (x &&& 0x00000000000000F0L) 20
  ||| shl (x &&& 0x0000000000F00000L) 28
  ||| shl (x &&& 0x0000000000000F00L) 36
  ||| shl (x &&& 0x000000000000000FL) 52

let[@inline] h x =
  shr (x &&& 0x0000F00000000000L) 28
  ||| shr (x &&& 0xFFFF0000FFFF0000L) 16
  ||| shr (x &&& 0x0000000F00000000L) 4
  ||| shl (x &&& 0x000000000000FF00L) 12
  ||| shl (x &&& 0x00000F0000000000L) 16
  ||| shl (x &&& 0x000000F000000000L) 24
  ||| shl (x &&& 0x00000000000000FFL) 48

let[@inline] h_inv x =
  shr (x &&& 0x00FF000000000000L) 48
  ||| shr (x &&& 0xF000000000000000L) 24
  ||| shr (x &&& 0x0F00000000000000L) 16
  ||| shr (x &&& 0x000000000FF00000L) 12
  ||| shl (x &&& 0x00000000F0000000L) 4
  ||| shl (x &&& 0x0000FFFF0000FFFFL) 16
  ||| shl (x &&& 0x00000000000F0000L) 28

(* M = circ(0, rho, rho^2, rho): output row r is rho(row r+1) xor
   rho^2(row r+2) xor rho(row r+3), rho rotating each cell left by one
   bit. Rotating the word left by 16 brings row r+1 up to row r. *)
let[@inline] mix_columns x =
  let r1 = (shl x 1 &&& 0xEEEEEEEEEEEEEEEEL) ||| (shr x 3 &&& 0x1111111111111111L) in
  let r2 = (shl x 2 &&& 0xCCCCCCCCCCCCCCCCL) ||| (shr x 2 &&& 0x3333333333333333L) in
  rotl r1 16 ^^ rotl r2 32 ^^ rotl r1 48

(* The tweak-schedule LFSR maps a cell (b3, b2, b1, b0) to
   (b0 xor b1, b3, b2, b1), on cells 0, 1, 3, 4, 8, 11 and 13 only. *)
let lfsr_mask = 0xFF0FF000F00F0F00L

let[@inline] lfsr x =
  let c = x &&& lfsr_mask in
  let c' =
    (shr c 1 &&& 0x7777777777777777L) ||| shl ((c ^^ shr c 1) &&& 0x1111111111111111L) 3
  in
  (x ^^ c) ||| (c' &&& lfsr_mask)

let[@inline] lfsr_inv x =
  let c = x &&& lfsr_mask in
  let c' = (shl c 1 &&& 0xEEEEEEEEEEEEEEEEL) ||| ((c ^^ shr c 3) &&& 0x1111111111111111L) in
  (x ^^ c) ||| (c' &&& lfsr_mask)

let[@inline] tweak_update x = lfsr (h x)
let[@inline] tweak_update_inv x = h_inv (lfsr_inv x)

(* One forward round: tweakey addition, then (except in the short first
   round) tau and MixColumns, then the S-box layer. *)
let[@inline] forward fwd s tk ~full =
  let s = s ^^ tk in
  sub_cells fwd (if full then mix_columns (tau s) else s)

(* Inverse of [forward]. *)
let[@inline] backward inv s tk ~full =
  let s = sub_cells inv s in
  (if full then tau_inv (mix_columns s) else s) ^^ tk

(* The orthomorphism o deriving the second whitening key half. *)
let[@inline] derive_w1 w0 = rotl w0 63 ^^ shr w0 63

(* The one round core. Decryption runs the encryption data path with
   the whitening halves swapped, alpha moved to the forward rounds, and
   the reflector's central key M * k0, which inverts the reflector keyed
   with k0. The tweak schedule runs forward through the first rounds and
   is stepped back by [tweak_update_inv] through the last ones. *)
let core t key ~dec tweak x =
  let w0 = key.w0 and k0 = key.k0 in
  let w1 = derive_w1 w0 in
  let wa = if dec then w1 else w0 in
  let wb = if dec then w0 else w1 in
  let c_fwd = if dec then alpha else 0L in
  let c_bwd = if dec then 0L else alpha in
  let k_mid = if dec then mix_columns k0 else k0 in
  let fwd = t.fwd and inv = t.inv in
  let s = ref (x ^^ wa) and tw = ref tweak in
  for i = 0 to t.rounds - 1 do
    s := forward fwd !s (k0 ^^ !tw ^^ round_constants.(i) ^^ c_fwd) ~full:(i <> 0);
    tw := tweak_update !tw
  done;
  s := forward fwd !s (wb ^^ !tw) ~full:true;
  s := tau_inv (mix_columns (tau !s) ^^ k_mid);
  s := backward inv !s (wa ^^ !tw) ~full:true;
  for i = t.rounds - 1 downto 0 do
    tw := tweak_update_inv !tw;
    s := backward inv !s (k0 ^^ !tw ^^ round_constants.(i) ^^ c_bwd) ~full:(i <> 0)
  done;
  !s ^^ wb

let encrypt t ~key ~tweak plaintext = core t key ~dec:false tweak plaintext
let decrypt t ~key ~tweak ciphertext = core t key ~dec:true tweak ciphertext
