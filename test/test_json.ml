(* The one JSON codec: the reader must be total on hostile input (serve
   request lines, replay logs and Chrome traces cross a trust boundary
   through it), and the escaper must be its exact inverse on strings. *)

module Json = Camo_util.Json
module K = Kernel
module L = Snapshot.Log

(* Real documents of every kind the repo reads, built once. *)
let corpus =
  lazy
    (let report =
       Faultinj.Campaign.report_to_json (Faultinj.Campaign.run ~seed:3L ~trials:2 ())
     in
     let log_line =
       L.entry_to_json
         {
           L.e_index = 7;
           e_spec = "bitflip mem 0x40001008 bit 3 @ step 120";
           e_fired = true;
           e_outcome = "detected_by_pac";
           e_detail = "pid 3: killed (PAC \"auth\" failure)\n";
           e_makespan = 123456L;
           e_offlined = [ 1 ];
           e_fingerprint = "0123456789abcdef0123456789abcdef";
         }
     in
     let chrome =
       match K.System.telemetry (K.System.boot ~seed:4L ~cpus:2 ~telemetry:true ()) with
       | Some hub -> Telemetry.Chrome.serialize hub
       | None -> Alcotest.fail "telemetry boot carries no hub"
     in
     let request =
       {|{"req": "submit", "kind": "faults", "config": "full", "seed": 42, "trials": 8, "workers": 2, "retries": 1, "timeout_ms": 5000, "note": "café 😀 \u00e9\ud83d\ude00\n\/"}|}
     in
     [| report; log_line; chrome; request |])

(* Each real document parses; every proper prefix of the small ones (the
   log line and the serve request, escapes included) is an error value. *)
let test_corpus_parses () =
  let docs = Lazy.force corpus in
  Array.iter
    (fun doc ->
      match Json.parse doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "real document rejected: %s" e)
    docs;
  List.iter
    (fun doc ->
      for i = 0 to String.length doc - 1 do
        match Json.parse (String.sub doc 0 i) with
        | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" i
        | Error _ -> ()
      done)
    [ docs.(1); docs.(3) ]

type mutation = Flip of int * int * int | Truncate of int * int | Splice of int * int * int * int

let apply docs = function
  | Flip (d, i, bit) ->
      let b = Bytes.of_string docs.(d) in
      let i = i mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Bytes.to_string b
  | Truncate (d, i) ->
      let s = docs.(d) in
      String.sub s 0 (i mod (String.length s + 1))
  | Splice (d1, i, d2, j) ->
      let a = docs.(d1) and b = docs.(d2) in
      let i = i mod (String.length a + 1) and j = j mod (String.length b + 1) in
      String.sub a 0 i ^ String.sub b j (String.length b - j)

let gen_mutation =
  let open QCheck2.Gen in
  let doc = int_bound 3 and at = int_bound 1_000_000 in
  oneof
    [
      map3 (fun d i bit -> Flip (d, i, bit)) doc at (int_bound 7);
      map2 (fun d i -> Truncate (d, i)) doc at;
      map4 (fun d1 i d2 j -> Splice (d1, i, d2, j)) doc at doc at;
    ]

let prop_parse_total =
  QCheck2.Test.make ~name:"parse never raises on mutated real documents"
    ~count:400 gen_mutation (fun m ->
      let s = apply (Lazy.force corpus) m in
      match (Json.parse s, Json.parse_located s) with
      | Ok v, Ok l -> Json.strip l = v
      | Error e, Error e' -> e = e'
      | _ -> false)

let prop_escape_roundtrip =
  QCheck2.Test.make ~name:"parse (quote (escape s)) = Str s for any bytes"
    ~count:500 QCheck2.Gen.string (fun s ->
      Json.parse ("\"" ^ Json.escape s ^ "\"") = Ok (Json.Str s))

let prop_int64_roundtrip =
  QCheck2.Test.make ~name:"int64 literals round-trip exactly" ~count:300
    QCheck2.Gen.(oneof [ pure Int64.min_int; pure Int64.max_int; int64 ])
    (fun i ->
      let doc = Printf.sprintf {|{"seed": %Ld}|} i in
      Option.bind (Result.to_option (Json.parse doc)) (Json.member "seed")
      = Some (Json.Int i))

let test_hostile_shapes () =
  let rejects what s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error e ->
        let n = String.length "line " in
        let rec has i = i + n <= String.length e && (String.sub e i n = "line " || has (i + 1)) in
        Alcotest.(check bool) (what ^ " error has a position") true (has 0)
  in
  rejects "deep nesting" (String.make 100_000 '[');
  rejects "raw control character" "\"a\tb\"";
  rejects "unpaired surrogate" {|"\ud83d x"|};
  rejects "bare minus" "-";
  Alcotest.(check bool) "int64 overflow falls back to float" true
    (match Json.parse "9223372036854775808" with Ok (Json.Float _) -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "real documents parse, their prefixes do not" `Quick
      test_corpus_parses;
    QCheck_alcotest.to_alcotest prop_parse_total;
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
    QCheck_alcotest.to_alcotest prop_int64_roundtrip;
    Alcotest.test_case "hostile shapes are rejected, not raised" `Quick
      test_hostile_shapes;
  ]
