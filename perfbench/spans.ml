(* Span recording around the benchmark's own calls into each layer.

   A span is a named interval on one domain with the span that caused
   it as parent. Spans stay in memory and are summarised when the run
   ends: per name, the count, the total and self time (duration minus
   the same-domain children it covers) and self time as a share of the
   run's wall time. Recording is off unless the run is traced, so the
   untraced run measures the end-to-end metrics. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  domain : int;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let next_id = Atomic.make 1
let finished : span list ref = ref []

(* Innermost open span per domain, so children find their parent. *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

type token = Off | On of span * int

let start ?parent name =
  if not !enabled then Off
  else
    let outer = Domain.DLS.get current in
    let sp =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent = Option.value parent ~default:outer;
        name;
        domain = (Domain.self () :> int);
        t0 = Measure.now ();
        t1 = nan;
      }
    in
    Domain.DLS.set current sp.id;
    On (sp, outer)

let stop = function
  | Off -> ()
  | On (sp, outer) ->
      sp.t1 <- Measure.now ();
      Domain.DLS.set current outer;
      Mutex.protect lock (fun () -> finished := sp :: !finished)

(* The id of the innermost open span on this domain (0 if none), for
   spans opened on another domain on its behalf. *)
let current_id () = Domain.DLS.get current

let with_span name f =
  let tok = start name in
  Fun.protect ~finally:(fun () -> stop tok) f

type row = { r_name : string; count : int; total_s : float; self_s : float }

let summary () =
  let spans = Mutex.protect lock (fun () -> !finished) in
  let by_id = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.id sp) spans;
  let covered = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt by_id sp.parent with
      | Some p when p.domain = sp.domain ->
          let c = Option.value (Hashtbl.find_opt covered p.id) ~default:0.0 in
          Hashtbl.replace covered p.id (c +. (sp.t1 -. sp.t0))
      | _ -> ())
    spans;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let dur = sp.t1 -. sp.t0 in
      let self =
        Float.max 0.0
          (dur -. Option.value (Hashtbl.find_opt covered sp.id) ~default:0.0)
      in
      let r =
        Option.value (Hashtbl.find_opt rows sp.name)
          ~default:{ r_name = sp.name; count = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace rows sp.name
        {
          r with
          count = r.count + 1;
          total_s = r.total_s +. dur;
          self_s = r.self_s +. self;
        })
    spans;
  List.sort
    (fun a b -> compare b.self_s a.self_s)
    (Hashtbl.fold (fun _ r acc -> r :: acc) rows [])

let print_table ~wall =
  Printf.printf "\nspans (self time as a share of %.2f s wall; spans on parallel \
                 domains can sum past 100%%)\n" wall;
  Printf.printf "%-26s %8s %12s %12s %8s\n" "span" "count" "total ms" "self ms" "share";
  List.iter
    (fun r ->
      Printf.printf "%-26s %8d %12.1f %12.1f %7.1f%%\n" r.r_name r.count
        (1000. *. r.total_s) (1000. *. r.self_s) (100. *. r.self_s /. wall))
    (summary ())
