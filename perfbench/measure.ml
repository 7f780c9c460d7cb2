(* Host clocks, order statistics and GC deltas shared by every
   workload. *)

let now = Unix.gettimeofday

(* [time f] — [(f (), seconds)]. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [||] -> invalid_arg "Measure.quantile: no samples"
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median xs = quantile 0.5 xs

(* The rate nine in ten samples meet or beat: the 10th percentile of
   per-sample rates. The host alternates between fast and slow phases
   of a fraction of a second; a median flips between the two from one
   run to the next, while the slow phase shows in every run. *)
let sustained rates = quantile 0.1 rates

(* The same for times: the time nine in ten samples meet or beat. *)
let sustained_time secs = quantile 0.9 secs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Median seconds per call of [f] over [reps] timed loops of [n]
   calls each. *)
let per_call ~reps ~n f =
  median
    (List.init reps (fun _ ->
         snd (time (fun () -> for _ = 1 to n do f () done)) /. float_of_int n))

(* Minor words allocated per call of [f], on the calling domain. *)
let words_per_call ~n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do f () done;
  (Gc.minor_words () -. w0) /. float_of_int n

type gc = { minor_words : float; minor_collections : int; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0
