(* The repository benchmark. From the repository root:

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
     bash perfbench/run.sh steady [--runs R] [--seeds A,B] [--seconds S] [--workloads W,...]

   A run prints its checks, a table of its metrics and, as its last line,
   one JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones, measured with tracing off. With
   --trace 1 the run measures the workload untraced and then traced (half
   the time each, reporting the tracing overhead), fills in the layers of
   the other two workloads with one traced round each, writes every span as
   Chrome trace JSON under .perfbench/, and prints the per-layer metrics. A
   failed check makes the run exit 1. *)

let workloads = [ "serve_http"; "plan_cold"; "exec_sharded" ]

(* [light] passes set up once and check fewer exhaustive plans: the halves
   of a traced run, and the one-round passes that fill in other layers. *)
let pass w opts ~traced ~light =
  match w with
  | "serve_http" ->
      Serve_http.run opts ~traced ~setups:(if light then 1 else 3)
        ~rss_at:(if opts.Common.seconds > 0.0 then Serve_http.rss_queries else Serve_http.round)
  | "plan_cold" ->
      Plan_cold.run opts ~traced ~setups:(if light then 1 else 3) ~exact_refs:(if light then 1 else 9)
        ~tol_refs:(if light then 0 else 2)
  | "exec_sharded" -> Exec_sharded.run opts ~traced ~setups:(if light then 1 else 3)
  | w -> invalid_arg ("unknown workload " ^ w)

let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (number v) u)
          metrics))

(* Each pass's own checks, and that none of its operations failed. *)
let print_checks (rs : Common.result list) =
  List.fold_left
    (fun ok (name, r) ->
      match r with
      | Ok () ->
          Printf.printf "check ok:     %s\n" name;
          ok
      | Error m ->
          Printf.printf "check FAILED: %s: %s\n" name m;
          false)
    true
    (List.concat_map
       (fun (r : Common.result) ->
         r.Common.checks
         @ [
             ( "no failed operations",
               Checks.check_no_failures ~attempted:r.Common.attempted ~failed:r.Common.failed );
           ])
       rs)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (k, v, u) -> Printf.printf "  %-34s %16.4f %s\n" k v u) ms

let finite ms = List.for_all (fun (_, v, _) -> Float.is_finite v) ms

let run_untraced w opts =
  let r = pass w opts ~traced:false ~light:false in
  let ok = print_checks [ r ] && finite r.Common.e2e in
  print_metrics (Printf.sprintf "%s, seed %d (end to end):" w opts.Common.seed) r.Common.e2e;
  print_endline (result_line ~correct:ok ~attempted:r.Common.attempted ~failed:r.Common.failed r.Common.e2e);
  ok

let run_traced w opts =
  let half = { opts with Common.seconds = opts.Common.seconds /. 2.0 } in
  let untraced = pass w half ~traced:false ~light:true in
  let traced = pass w half ~traced:true ~light:true in
  let others =
    List.map
      (fun w' -> pass w' { opts with Common.seconds = 0.0 } ~traced:true ~light:true)
      (List.filter (( <> ) w) workloads)
  in
  let all = untraced :: traced :: others in
  let ok = print_checks all in
  Printf.printf "tracing overhead on %s (untraced vs traced half-runs):\n" w;
  List.iter2
    (fun (k, a, u) (_, b, _) ->
      Printf.printf "  %-34s %14.4f -> %14.4f %-6s %+7.1f%%\n" k a b u (100.0 *. (b -. a) /. a))
    untraced.Common.e2e traced.Common.e2e;
  let spans = List.concat_map (fun (r : Common.result) -> r.Common.spans) all in
  Printf.printf "spans by name (count, total ms, self ms):\n";
  List.iter
    (fun (name, (c, tot, self)) -> Printf.printf "  %-34s %8d %12.2f %12.2f\n" name c (tot *. 1e3) (self *. 1e3))
    (Spans.layer_table spans);
  List.iter print_endline (List.concat_map (fun (r : Common.result) -> r.Common.report) all);
  let path = Filename.concat opts.Common.out_dir (Printf.sprintf "trace-%s-seed%d.json" w opts.Common.seed) in
  (try Unix.mkdir opts.Common.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_text path (fun oc -> output_string oc (Arb_util.Json.to_string (Spans.to_chrome spans)));
  Printf.printf "wrote %d spans to %s\n" (List.length spans) path;
  (* The gc.* metrics are the traced workload's own. *)
  let is_gc (k, _, _) = String.starts_with ~prefix:"gc." k in
  let layers =
    List.filter (fun m -> not (is_gc m)) (List.concat_map (fun (r : Common.result) -> r.Common.layers) (traced :: others))
    @ List.filter is_gc traced.Common.layers
  in
  (* Every per-layer metric BENCHMARK.json lists, when it is there. *)
  let listed =
    match Steady.benchmark () with
    | None -> []
    | Some j ->
        List.map
          (fun m -> Arb_util.Json.to_str (Arb_util.Json.member "name" m))
          (Arb_util.Json.to_list (Arb_util.Json.member "per_layer" j))
  in
  let missing = List.filter (fun k -> not (List.exists (fun (k', _, _) -> k = k') layers)) listed in
  if missing <> [] then Printf.printf "check FAILED: per-layer metrics not measured: %s\n" (String.concat ", " missing);
  let ok = ok && missing = [] && finite layers in
  print_metrics (Printf.sprintf "%s, seed %d (per layer):" w opts.Common.seed) layers;
  let attempted = List.fold_left (fun a (r : Common.result) -> a + r.Common.attempted) 0 all in
  let failed = List.fold_left (fun a (r : Common.result) -> a + r.Common.failed) 0 all in
  print_endline (result_line ~correct:ok ~attempted ~failed layers);
  ok

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "steady" :: rest -> exit (Steady.main rest)
  | [ "plan-setup" ] -> Printf.printf "%.17g\n" (snd (Plan_cold.first_pass ()))
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
      Arg.parse_argv (Array.of_list (Sys.argv.(0) :: args))
        [
          ("--workload", Arg.Set_string workload, " serve_http | plan_cold | exec_sharded");
          ("--seed", Arg.Set_int seed, " input seed (default 1)");
          ("--seconds", Arg.Set_float seconds, " measured seconds (default 10)");
          ("--trace", Arg.Set_int trace, " 1: traced run printing per-layer metrics");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "perfbench --workload W --seed N --seconds S --trace 0|1";
      if not (List.mem !workload workloads) then begin
        prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
        exit 2
      end;
      let opts = { Common.seed = !seed; seconds = !seconds; out_dir = ".perfbench" } in
      let ok = if !trace = 1 then run_traced !workload opts else run_untraced !workload opts in
      exit (if ok then 0 else 1)
