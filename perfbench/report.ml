(* The run's result: metrics in the order they were added, operation
   counts, and the correctness verdict. Printed as one human line per
   metric, then the one-line JSON object that ends standard output. *)

type value = Float of float | Int of int

type t = {
  mutable metrics : (string * value * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** failed correctness checks *)
}

let create () = { metrics = []; attempted = 0; failed = 0; errors = [] }

let add r name unit_ v =
  (match v with
  | Float f when not (Float.is_finite f) ->
      invalid_arg ("Report.add: non-finite value for " ^ name)
  | _ -> ());
  r.metrics <- (name, v, unit_) :: r.metrics

let float r name unit_ v = add r name unit_ (Float v)
let int r name unit_ v = add r name unit_ (Int v)

(* [check r ok what] records a failed correctness check, once. *)
let check r ok what =
  if not (ok || List.mem what r.errors) then r.errors <- what :: r.errors

let value r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
  | Some (_, Float f, _) -> Some f
  | Some (_, Int i, _) -> Some (float_of_int i)
  | None -> None

let correct r = r.errors = []

let value_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f

let value_text = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f

let print r =
  let metrics = List.rev r.metrics in
  Printf.printf "\n%-34s %16s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (n, v, u) -> Printf.printf "%-34s %16s  %s\n" n (value_text v) u)
    metrics;
  Printf.printf "operations: %d attempted, %d failed\n" r.attempted r.failed;
  List.iter (fun e -> Printf.printf "CORRECTNESS CHECK FAILED: %s\n" e) (List.rev r.errors);
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (value_json v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct r) r.attempted r.failed body
