(* Record-replay log: one JSON object per line, header first, then one
   entry per recorded trial in index order. The writer is byte-stable
   (fixed field order, no float formatting), so the same campaign
   parameters produce the identical log for every worker count — the
   log records *what* was executed (seeds, drawn fault specs,
   interleaving-relevant parameters) and *what resulted* (outcome,
   makespan, state fingerprint), never scheduling accidents of the
   recording host. *)

module Json = Camo_util.Json

type header = {
  h_kind : string;
  h_seed : int64;
  h_trials : int;
  h_config : string;
  h_cpus : int;
  h_tasks : int;
  h_rounds : int;
  h_quantum : int;
  h_quarantine_after : int option;
  h_golden_makespan : int64;
  h_golden_fingerprint : string;
}

type entry = {
  e_index : int;
  e_spec : string;
  e_fired : bool;
  e_outcome : string;
  e_detail : string;
  e_makespan : int64;
  e_offlined : int list;
  e_fingerprint : string;
}

type t = { header : header; entries : entry list }

let version = 1

let header_to_json h =
  Printf.sprintf
    "{\"camouflage_replay_log\": %d, \"kind\": \"%s\", \"seed\": %Ld, \
     \"trials\": %d, \"config\": \"%s\", \"cpus\": %d, \"tasks\": %d, \
     \"rounds\": %d, \"quantum\": %d, \"quarantine_after\": %s, \
     \"golden_makespan\": %Ld, \"golden_fingerprint\": \"%s\"}"
    version (Json.escape h.h_kind) h.h_seed h.h_trials (Json.escape h.h_config) h.h_cpus
    h.h_tasks h.h_rounds h.h_quantum
    (match h.h_quarantine_after with None -> "null" | Some n -> string_of_int n)
    h.h_golden_makespan h.h_golden_fingerprint

let entry_to_json e =
  Printf.sprintf
    "{\"index\": %d, \"spec\": \"%s\", \"fired\": %b, \"outcome\": \"%s\", \
     \"detail\": \"%s\", \"makespan\": %Ld, \"offlined\": [%s], \
     \"fingerprint\": \"%s\"}"
    e.e_index (Json.escape e.e_spec) e.e_fired (Json.escape e.e_outcome)
    (Json.escape e.e_detail) e.e_makespan
    (String.concat ", " (List.map string_of_int e.e_offlined))
    e.e_fingerprint

let to_string t =
  String.concat "\n"
    (header_to_json t.header :: List.map entry_to_json t.entries)
  ^ "\n"

(* Parsing. *)

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Result.Ok v
  | None -> Result.Error (Printf.sprintf "missing or ill-typed field %S" name)

let parse_header line =
  let* json = Json.parse line in
  let* v = field "camouflage_replay_log" Json.to_int json in
  if v <> version then
    Result.Error (Printf.sprintf "unsupported replay-log version %d" v)
  else
    let* h_kind = field "kind" Json.to_string json in
    let* h_seed = field "seed" Json.to_int64 json in
    let* h_trials = field "trials" Json.to_int json in
    let* h_config = field "config" Json.to_string json in
    let* h_cpus = field "cpus" Json.to_int json in
    let* h_tasks = field "tasks" Json.to_int json in
    let* h_rounds = field "rounds" Json.to_int json in
    let* h_quantum = field "quantum" Json.to_int json in
    let* h_quarantine_after =
      match Json.member "quarantine_after" json with
      | Some Json.Null -> Result.Ok None
      | Some v -> (
          match Json.to_int v with
          | Some n -> Result.Ok (Some n)
          | None -> Result.Error "ill-typed field \"quarantine_after\"")
      | None -> Result.Error "missing field \"quarantine_after\""
    in
    let* h_golden_makespan = field "golden_makespan" Json.to_int64 json in
    let* h_golden_fingerprint = field "golden_fingerprint" Json.to_string json in
    Result.Ok
      {
        h_kind;
        h_seed;
        h_trials;
        h_config;
        h_cpus;
        h_tasks;
        h_rounds;
        h_quantum;
        h_quarantine_after;
        h_golden_makespan;
        h_golden_fingerprint;
      }

let parse_entry line =
  let* json = Json.parse line in
  let* e_index = field "index" Json.to_int json in
  let* e_spec = field "spec" Json.to_string json in
  let* e_fired = field "fired" Json.to_bool json in
  let* e_outcome = field "outcome" Json.to_string json in
  let* e_detail = field "detail" Json.to_string json in
  let* e_makespan = field "makespan" Json.to_int64 json in
  let* e_offlined =
    match Json.member "offlined" json with
    | Some (Json.List items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match Json.to_int item with
            | Some n -> Result.Ok (n :: acc)
            | None -> Result.Error "ill-typed element in \"offlined\"")
          items (Result.Ok [])
    | _ -> Result.Error "missing or ill-typed field \"offlined\""
  in
  let* e_fingerprint = field "fingerprint" Json.to_string json in
  Result.Ok
    {
      e_index;
      e_spec;
      e_fired;
      e_outcome;
      e_detail;
      e_makespan;
      e_offlined;
      e_fingerprint;
    }

let parse s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Result.Error "empty replay log"
  | header_line :: entry_lines ->
      let* header =
        Result.map_error (fun e -> "header: " ^ e) (parse_header header_line)
      in
      let* entries =
        List.fold_right
          (fun (i, line) acc ->
            let* acc = acc in
            let* e =
              Result.map_error
                (fun e -> Printf.sprintf "entry on line %d: %s" (i + 2) e)
                (parse_entry line)
            in
            Result.Ok (e :: acc))
          (List.mapi (fun i l -> (i, l)) entry_lines)
          (Result.Ok [])
      in
      Result.Ok { header; entries }

let write ~path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let read ~path =
  match open_in_bin path with
  | exception Sys_error e -> Result.Error e
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      parse s

let find_entry t index = List.find_opt (fun e -> e.e_index = index) t.entries
