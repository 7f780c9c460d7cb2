(* The published QARMA-64 test vectors (Avanzi, ToSC 2017): the
   specification's key, plaintext and tweak under every S-box with
   r = 5, 6 and 7. The recommended pairings (sigma0/r5, sigma1/r6,
   sigma2/r7) open the suite; the other six close it, so the older
   cases keep their positions. *)

let v64 = Camo_util.Val64.of_hex

let vector_key = Qarma.Block.{ w0 = v64 "84be85ce9804e94b"; k0 = v64 "ec2802d4e0a488e9" }
let vector_plaintext = v64 "fb623599da6e8127"
let vector_tweak = v64 "477d469dec0b8762"

let published_vectors =
  [
    (Qarma.Block.Sigma0, 5, "3ee99a6c82af0c38");
    (Qarma.Block.Sigma1, 6, "a512dd1e4e3ec582");
    (Qarma.Block.Sigma2, 7, "5c06a7501b63b2fd");
  ]

let more_published_vectors =
  [
    (Qarma.Block.Sigma0, 6, "9f5c41ec525603c9");
    (Qarma.Block.Sigma0, 7, "bcaf6c89de930765");
    (Qarma.Block.Sigma1, 5, "544b0ab95bda7c3a");
    (Qarma.Block.Sigma1, 7, "edf67ff370a483f2");
    (Qarma.Block.Sigma2, 5, "c003b93999b33765");
    (Qarma.Block.Sigma2, 6, "270a787275c48d10");
  ]

let check_vector (sbox, rounds, expected) () =
  let cipher = Qarma.Block.create ~sbox ~rounds () in
  let got =
    Qarma.Block.encrypt cipher ~key:vector_key ~tweak:vector_tweak vector_plaintext
  in
  Alcotest.(check string)
    (Printf.sprintf "rounds=%d" rounds)
    expected
    (Camo_util.Val64.to_hex got)

let sbox_name = function
  | Qarma.Block.Sigma0 -> "sigma0"
  | Qarma.Block.Sigma1 -> "sigma1"
  | Qarma.Block.Sigma2 -> "sigma2"

let vector_case ((sbox, rounds, _) as v) =
  Alcotest.test_case
    (Printf.sprintf "golden vector %s/r%d" (sbox_name sbox) rounds)
    `Quick (check_vector v)

(* Structural sanity checks on the nibble-level oracle's primitives. *)

let test_sbox_bijective () =
  let open Qarma_oracle in
  let check sigma name =
    for v = 0 to 15 do
      let x = Int64.of_int (v * 0x1111) in
      let y = sub_cells_inv sigma (sub_cells sigma x) in
      Alcotest.(check int64) (name ^ " involutive pair") x y
    done
  in
  check Sigma0 "sigma0";
  check Sigma1 "sigma1";
  check Sigma2 "sigma2"

let test_shuffle_roundtrip () =
  let x = 0x0123456789abcdefL in
  Alcotest.(check int64) "tau" x Qarma_oracle.(shuffle_inv (shuffle x))

let test_mix_columns_involutory () =
  let x = 0xdeadbeefcafef00dL in
  Alcotest.(check int64) "M*M = id" x Qarma_oracle.(mix_columns (mix_columns x))

let test_tweak_update_roundtrip () =
  let x = 0x477d469dec0b8762L in
  Alcotest.(check int64) "tweak schedule" x Qarma_oracle.(tweak_update_inv (tweak_update x))

(* Property tests. *)

let gen_word = QCheck2.Gen.(map Int64.of_int int)

let prop_roundtrip =
  QCheck2.Test.make ~name:"decrypt (encrypt x) = x"
    ~count:500
    QCheck2.Gen.(quad gen_word gen_word gen_word gen_word)
    (fun (w0, k0, tweak, pt) ->
      let cipher = Qarma.Block.create () in
      let key = Qarma.Block.{ w0; k0 } in
      Qarma.Block.decrypt cipher ~key ~tweak (Qarma.Block.encrypt cipher ~key ~tweak pt) = pt)

let prop_tweak_sensitivity =
  QCheck2.Test.make ~name:"distinct tweaks give distinct ciphertexts (w.h.p.)"
    ~count:200
    QCheck2.Gen.(triple gen_word gen_word gen_word)
    (fun (w0, k0, pt) ->
      let cipher = Qarma.Block.create () in
      let key = Qarma.Block.{ w0; k0 } in
      let c1 = Qarma.Block.encrypt cipher ~key ~tweak:1L pt in
      let c2 = Qarma.Block.encrypt cipher ~key ~tweak:2L pt in
      c1 <> c2)

let prop_key_sensitivity =
  QCheck2.Test.make ~name:"flipping one key bit changes the ciphertext"
    ~count:200
    QCheck2.Gen.(triple gen_word gen_word gen_word)
    (fun (w0, k0, pt) ->
      let cipher = Qarma.Block.create () in
      let c1 = Qarma.Block.encrypt cipher ~key:{ w0; k0 } ~tweak:0L pt in
      let c2 =
        Qarma.Block.encrypt cipher ~key:{ w0 = Int64.logxor w0 1L; k0 } ~tweak:0L pt
      in
      c1 <> c2)

(* The word-level cipher against the nibble-level oracle, both
   directions, every S-box and round count. *)
let gen_sbox = QCheck2.Gen.oneofl Qarma.Block.[ Sigma0; Sigma1; Sigma2 ]

let prop_oracle_agrees =
  QCheck2.Test.make ~name:"word-level cipher = nibble-level oracle"
    ~count:500
    QCheck2.Gen.(
      pair (pair gen_sbox (int_range 1 8)) (quad gen_word gen_word gen_word gen_word))
    (fun ((sbox, rounds), (w0, k0, tweak, x)) ->
      let cipher = Qarma.Block.create ~sbox ~rounds () in
      let key = Qarma.Block.{ w0; k0 } in
      Qarma.Block.encrypt cipher ~key ~tweak x
      = Qarma_oracle.encrypt ~sbox ~rounds ~key ~tweak x
      && Qarma.Block.decrypt cipher ~key ~tweak x
         = Qarma_oracle.decrypt ~sbox ~rounds ~key ~tweak x)

(* An allocation count is immune to host noise: an encrypt may box its
   result and nothing else. *)
let test_encrypt_allocation () =
  let cipher = Qarma.Block.create () in
  let key = Qarma.Block.key_of_pair (0x84be85ce9804e94bL, 0xec2802d4e0a488e9L) in
  let tweak = Sys.opaque_identity 0x477d469dec0b8762L in
  let pt = Sys.opaque_identity 0xfb623599da6e8127L in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Qarma.Block.encrypt cipher ~key ~tweak pt))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 6. then Alcotest.failf "%.1f minor words per encrypt (at most 6)" words

let suite =
  List.map vector_case published_vectors
  @ [
      Alcotest.test_case "sboxes invert" `Quick test_sbox_bijective;
      Alcotest.test_case "shuffle roundtrip" `Quick test_shuffle_roundtrip;
      Alcotest.test_case "mix_columns involutory" `Quick test_mix_columns_involutory;
      Alcotest.test_case "tweak update roundtrip" `Quick test_tweak_update_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_tweak_sensitivity;
      QCheck_alcotest.to_alcotest prop_key_sensitivity;
      QCheck_alcotest.to_alcotest prop_oracle_agrees;
      Alcotest.test_case "encrypt allocates at most 6 words" `Quick test_encrypt_allocation;
    ]
  @ List.map vector_case more_published_vectors
