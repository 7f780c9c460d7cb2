module Json = Camo_util.Json

(* Track layout: pid 0 = per-core tracks (tid = core id), pid 1 =
   per-task tracks (tid = task pid). [serialize_lanes] instead gives
   every lane (a fleet trial) its own process, one thread per core. *)

let core_pid = 0
let task_pid = 1

type item = Span of Event.t * Event.t | Instant of Event.t

(* Pair begin/end markers within one track, first-in-first-out: syscall
   enter/exit (same pid, nr and core, exit not before enter), context
   switch begin/done (same pids and core) and the kernel->user key
   residency window (same core). Everything unpaired is an instant. *)
let pair evs =
  let arr = Array.of_list evs in
  let n = Array.length arr in
  let consumed = Array.make n false in
  let items = ref [] in
  let find_end i matches =
    let rec find j =
      if j >= n then None
      else if consumed.(j) then find (j + 1)
      else if
        matches arr.(j).Event.payload
        && arr.(j).Event.cpu = arr.(i).Event.cpu
        && arr.(j).Event.ts >= arr.(i).Event.ts
      then Some j
      else find (j + 1)
    in
    find (i + 1)
  in
  let close i = function
    | Some j ->
        consumed.(j) <- true;
        items := Span (arr.(i), arr.(j)) :: !items
    | None -> items := Instant arr.(i) :: !items
  in
  for i = 0 to n - 1 do
    if not consumed.(i) then
      match arr.(i).Event.payload with
      | Event.Syscall_enter { nr; pid; _ } ->
          close i
            (find_end i (function
              | Event.Syscall_exit { nr = nr'; pid = pid'; _ } ->
                  nr' = nr && pid' = pid
              | _ -> false))
      | Event.Context_switch { from_pid; to_pid } ->
          close i
            (find_end i (function
              | Event.Switch_done { from_pid = f; to_pid = t } ->
                  f = from_pid && t = to_pid
              | _ -> false))
      | Event.Key_switch { domain = "kernel"; _ } ->
          close i
            (find_end i (function
              | Event.Key_switch { domain = "user"; _ } -> true
              | _ -> false))
      | _ -> items := Instant arr.(i) :: !items
  done;
  List.rev !items

let event_name (p : Event.payload) =
  match p with
  | Event.Syscall_enter { name; _ } | Event.Syscall_exit { name; _ } -> name
  | _ -> Event.kind p

let span_name (p : Event.payload) =
  match p with
  | Event.Syscall_enter { name; _ } -> name
  | Event.Context_switch _ -> "context-switch"
  | Event.Key_switch _ -> "kernel-keys"
  | p -> Event.kind p

let span_cat (p : Event.payload) =
  match p with
  | Event.Syscall_enter _ -> "syscall"
  | Event.Context_switch _ -> "context-switch"
  | Event.Key_switch _ -> "key-domain"
  | p -> Event.kind p

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ k ^ "\": " ^ v) fields)
  ^ "}"

let str s = "\"" ^ Json.escape s ^ "\""

let instant_json ~pid ~tid (ev : Event.t) =
  obj
    [
      ("name", str (event_name ev.payload));
      ("cat", str (Event.kind ev.payload));
      ("ph", str "i");
      ("s", str "t");
      ("ts", Printf.sprintf "%Ld" ev.ts);
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("desc", str (Event.describe ev.payload)) ]);
    ]

let span_json ~pid ~tid (enter : Event.t) (exit_ : Event.t) =
  obj
    [
      ("name", str (span_name enter.payload));
      ("cat", str (span_cat enter.payload));
      ("ph", str "X");
      ("ts", Printf.sprintf "%Ld" enter.ts);
      ("dur", Printf.sprintf "%Ld" (Int64.sub exit_.ts enter.ts));
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("desc", str (Event.describe exit_.payload)) ]);
    ]

(* IPI spans live on the sender's core track but end on the receiver's
   clock; they come from the global span pass, not per-track pairing. *)
let ipi_span_json ~pid ~tid (sp : Span.t) =
  obj
    [
      ("name", str sp.Span.sp_label);
      ("cat", str "ipi");
      ("ph", str "X");
      ("ts", Printf.sprintf "%Ld" sp.Span.sp_start);
      ("dur", Printf.sprintf "%Ld" sp.Span.sp_dur);
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("desc", str ("ipi " ^ sp.Span.sp_label)) ]);
    ]

let metadata_json ~pid ~tid ~meta ~name_ =
  obj
    [
      ("name", str meta);
      ("ph", str "M");
      ("ts", "0");
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", obj [ ("name", str name_) ]);
    ]

(* A track is rendered as (ts, json) items so extra span sources (the
   IPI pass) can be merged in and the whole track re-sorted: Perfetto
   and {!validate} require ascending ts within a track. *)
let track_items ~pid ~tid evs =
  (* per-track ascending ts: task tracks can interleave cores whose
     cycle counters differ, so sort locally before pairing *)
  let evs =
    List.stable_sort
      (fun (a : Event.t) (b : Event.t) -> Int64.compare a.ts b.ts)
      evs
  in
  pair evs
  |> List.map (function
       | Span (en, ex) -> (en.Event.ts, span_json ~pid ~tid en ex)
       | Instant ev -> (ev.Event.ts, instant_json ~pid ~tid ev))

let finish_track items =
  List.stable_sort (fun (a, _) (b, _) -> Int64.compare a b) items
  |> List.map snd

(* One process worth of per-core tracks for [events], with IPI spans
   folded onto the sender core's track. *)
let core_tracks ~pid ~cpus events =
  let ipi_spans =
    List.filter (fun s -> s.Span.sp_kind = Span.Ipi) (Span.of_events events)
  in
  List.concat
    (List.init cpus (fun c ->
         let evs = List.filter (fun (e : Event.t) -> e.cpu = c) events in
         let ipis =
           List.filter_map
             (fun s ->
               if s.Span.sp_cpu = c then
                 Some (s.Span.sp_start, ipi_span_json ~pid ~tid:c s)
               else None)
             ipi_spans
         in
         finish_track (track_items ~pid ~tid:c evs @ ipis)))

let serialize hub =
  let events = Hub.events hub in
  let metadata =
    metadata_json ~pid:core_pid ~tid:0 ~meta:"process_name" ~name_:"cores"
    :: metadata_json ~pid:task_pid ~tid:0 ~meta:"process_name" ~name_:"tasks"
    :: List.concat
         (List.init (Hub.cpus hub) (fun c ->
              [
                metadata_json ~pid:core_pid ~tid:c ~meta:"thread_name"
                  ~name_:(Printf.sprintf "cpu%d" c);
              ]))
  in
  let cores = core_tracks ~pid:core_pid ~cpus:(Hub.cpus hub) events in
  let task_pids =
    List.filter_map (fun (e : Event.t) -> Event.pid_of e.payload) events
    |> List.sort_uniq compare
  in
  let task_meta =
    List.map
      (fun p ->
        metadata_json ~pid:task_pid ~tid:p ~meta:"thread_name"
          ~name_:(Printf.sprintf "pid %d" p))
      task_pids
  in
  let task_tracks =
    List.concat_map
      (fun p ->
        finish_track
          (track_items ~pid:task_pid ~tid:p
             (List.filter
                (fun (e : Event.t) -> Event.pid_of e.payload = Some p)
                events)))
      task_pids
  in
  let all = metadata @ task_meta @ cores @ task_tracks in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" all
  ^ "\n], \"displayTimeUnit\": \"ns\"}\n"

(* Fleet view: one process ("lane") per entry, one thread per core that
   appears in the lane's events. Lanes are keyed by the caller (the
   fleet engine passes deterministic trial labels), so the document is
   byte-identical however many workers produced the events. *)
let serialize_lanes lanes =
  let lane_doc idx (label, events) =
    let cpus =
      List.map (fun (e : Event.t) -> e.cpu) events |> List.sort_uniq compare
    in
    let metadata =
      metadata_json ~pid:idx ~tid:0 ~meta:"process_name" ~name_:label
      :: List.map
           (fun c ->
             metadata_json ~pid:idx ~tid:c ~meta:"thread_name"
               ~name_:(Printf.sprintf "cpu%d" c))
           cpus
    in
    let ncpus = List.fold_left (fun acc c -> max acc (c + 1)) 0 cpus in
    metadata @ core_tracks ~pid:idx ~cpus:ncpus events
  in
  let all = List.concat (List.mapi lane_doc lanes) in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" all
  ^ "\n], \"displayTimeUnit\": \"ns\"}\n"

let text ?limit hub =
  let events = Hub.events hub in
  let events =
    match limit with
    | Some n ->
        let len = List.length events in
        if len > n then List.filteri (fun i _ -> i >= len - n) events
        else events
    | None -> events
  in
  let b = Buffer.create 512 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Event.to_string ev);
      Buffer.add_char b '\n')
    events;
  let dropped = Hub.dropped hub in
  if dropped > 0 then
    Buffer.add_string b (Printf.sprintf "(%d older events dropped)\n" dropped);
  Buffer.contents b

let validate text =
  let ( let* ) = Result.bind in
  let* doc = Json.parse_located text in
  let at pos = Json.position text pos in
  let* events =
    match Json.lmember "traceEvents" doc with
    | Some { Json.v = Json.LList evs; _ } -> Ok evs
    | Some { Json.pos; _ } ->
        Error (Printf.sprintf "traceEvents is not an array at %s" (at pos))
    | None -> Error "missing traceEvents"
  in
  let last : (int * int, int64) Hashtbl.t = Hashtbl.create 16 in
  let check i (ev : Json.located) =
    let typed name what conv =
      match Json.lmember name ev with
      | None ->
          Error
            (Printf.sprintf "event %d: missing %s at %s" i name (at ev.Json.pos))
      | Some { Json.v; pos } -> (
          match (match v with Json.Leaf x -> conv x | _ -> None) with
          | Some x -> Ok (x, pos)
          | None ->
              Error
                (Printf.sprintf "event %d: %s is not a %s at %s" i name what
                   (at pos)))
    in
    let* _ = typed "name" "string" Json.to_string in
    let* ph, _ = typed "ph" "string" Json.to_string in
    let num name = typed name "number" Json.to_float in
    let* pid, _ = num "pid" in
    let* tid, _ = num "tid" in
    if ph = "M" then Ok ()
    else
      let* ts, ts_pos = num "ts" in
      let* () =
        if ph = "X" then
          let* dur, dur_pos = num "dur" in
          if dur < 0.0 then
            Error
              (Printf.sprintf "event %d: negative dur at %s" i (at dur_pos))
          else Ok ()
        else Ok ()
      in
      let key = (int_of_float pid, int_of_float tid) in
      let ts64 = Int64.of_float ts in
      match Hashtbl.find_opt last key with
      | Some prev when ts64 < prev ->
          Error
            (Printf.sprintf
               "event %d: ts %Ld before %Ld on track (pid %d, tid %d) at %s" i
               ts64 prev (fst key) (snd key) (at ts_pos))
      | _ ->
          Hashtbl.replace last key ts64;
          Ok ()
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
        let* () = check i ev in
        go (i + 1) rest
  in
  go 0 events
