(* The steadiness command. It runs each workload as separate processes,
   [--runs] times per seed, and prints for every end-to-end metric the
   median, the quartiles and the spread (interquartile distance over
   median, as Python's statistics.quantiles(values, n=4) gives it) next to
   the metric's bound in BENCHMARK.json, plus how far each seed's median is
   from the first seed's.

     steady [--runs 10] [--seeds 1,2] [--seconds S] [--workloads W,...]

   Exits 1 if any run fails or reports an incorrect output. *)

module J = Arb_util.Json

let benchmark () =
  match J.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | j -> Some j
  | exception _ -> None

let bounds bench =
  match bench with
  | None -> []
  | Some j ->
      List.map
        (fun m -> (J.to_str (J.member "name" m), J.to_float (J.member "bound" m)))
        (J.to_list (J.member "end_to_end" j))

type run = { attempted : int; failed : int; metrics : (string * float) list }

let run_once ~workload ~seed ~seconds =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; seconds; "--trace"; "0" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last = List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) in
  match (status, last) with
  | Unix.WEXITED 0, line :: _ -> (
      match J.of_string line with
      | j when J.to_bool (J.member "correct" j) ->
          let metrics =
            match J.member "metrics" j with
            | J.Obj kv -> List.map (fun (k, v) -> (k, J.to_float (J.member "value" v))) kv
            | _ -> []
          in
          Ok { attempted = J.to_int (J.member "attempted" j); failed = J.to_int (J.member "failed" j); metrics }
      | _ -> Error "reported incorrect outputs"
      | exception J.Parse_error m -> Error ("unreadable result line: " ^ m))
  | _ -> Error "exited non-zero"

let split s = List.filter (( <> ) "") (String.split_on_char ',' s)

let main args =
  let runs = ref 10 and seeds = ref "1,2" and seconds = ref "" and only = ref "" in
  Arg.parse_argv
    (Array.of_list ("steady" :: args))
    [
      ("--runs", Arg.Set_int runs, " runs per seed (default 10)");
      ("--seeds", Arg.Set_string seeds, " comma-separated seeds (default 1,2)");
      ("--seconds", Arg.Set_string seconds, " run length (default: BENCHMARK.json run_seconds)");
      ("--workloads", Arg.Set_string only, " comma-separated workloads (default: BENCHMARK.json's)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "steady [options]";
  let bench = benchmark () in
  let bounds = bounds bench in
  let seconds =
    if !seconds <> "" then !seconds
    else match bench with Some j -> string_of_int (J.to_int (J.member "run_seconds" j)) | None -> "10"
  in
  let seeds = List.map int_of_string (split !seeds) in
  let workloads =
    if !only <> "" then split !only
    else
      match bench with
      | Some j -> List.map (fun w -> J.to_str (J.member "name" w)) (J.to_list (J.member "workloads" j))
      | None -> [ "plan_cold"; "exec_sharded" ]
  in
  let ok = ref true in
  List.iter
    (fun workload ->
      let first = ref None in
      List.iter
        (fun seed ->
          let results =
            List.filter_map
              (fun _ ->
                match run_once ~workload ~seed ~seconds with
                | Ok r -> Some r
                | Error m ->
                    ok := false;
                    Printf.printf "  %s seed %d: %s\n%!" workload seed m;
                    None)
              (List.init !runs Fun.id)
          in
          Printf.printf "== %s, seed %d x %d, %ss runs: %d ok ==\n" workload seed !runs seconds (List.length results);
          Printf.printf "  failed/attempted per run: %s\n"
            (String.concat " " (List.map (fun r -> Printf.sprintf "%d/%d" r.failed r.attempted) results));
          if List.length results >= 2 then begin
            Printf.printf "  %-26s %14s %14s %14s %8s %7s %9s\n" "metric" "median" "q1" "q3" "spread" "bound"
              "vs first";
            let medians =
              List.map
                (fun (name, _) ->
                  let vs = List.filter_map (fun r -> List.assoc_opt name r.metrics) results in
                  let q1, med, q3 = Stats.quartiles vs in
                  let base = match !first with Some m -> List.assoc_opt name m | None -> None in
                  Printf.printf "  %-26s %14.4f %14.4f %14.4f %7.2f%% %6s %9s\n" name med q1 q3
                    (100.0 *. Stats.spread vs)
                    (match List.assoc_opt name bounds with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
                    (match base with Some b -> Printf.sprintf "%+.2f%%" (100.0 *. (med -. b) /. b) | None -> "");
                  (name, med))
                (List.hd results).metrics
            in
            if !first = None then first := Some medians
          end;
          print_newline ())
        seeds)
    workloads;
  if !ok then 0 else 1
