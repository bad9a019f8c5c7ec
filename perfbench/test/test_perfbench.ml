(* The benchmark's own tests: every output check rejects a corrupted
   output, a wrong budget or a worse plan, and the percentile, quartile and
   spread helpers give known values (the quartiles are Python's
   statistics.quantiles(data, n=4)). *)

module S = Arb_service
module B = Arb_dp.Budget
module Cm = Arb_planner.Cost_model
module C = Arb_planner.Constraints

let float = Alcotest.float 1e-9
let ok name r = Alcotest.(check bool) name true (Result.is_ok r)
let rejects name r = Alcotest.(check bool) name true (Result.is_error r)

(* ---------------- stats ---------------- *)

let test_percentile () =
  Alcotest.check float "p50 of 1..4" 2.5 (Common.percentile [ 4.0; 1.0; 3.0; 2.0 ] 50.0);
  Alcotest.check float "p90 of 1..4" 3.7 (Common.percentile [ 1.0; 2.0; 3.0; 4.0 ] 90.0);
  Alcotest.check float "p0 is the minimum" 1.0 (Common.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  Alcotest.check float "p100 is the maximum" 3.0 (Common.percentile [ 3.0; 1.0; 2.0 ] 100.0);
  Alcotest.check float "one sample" 7.0 (Common.percentile [ 7.0 ] 90.0);
  Alcotest.check float "median of 1..5" 3.0 (Common.median [ 5.0; 4.0; 3.0; 2.0; 1.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Common.percentile [] 50.0))

let triple = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9))

let test_quartiles () =
  let ints a b = List.init (b - a + 1) (fun i -> float_of_int (a + i)) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (ints 1 10));
  Alcotest.check triple "1..5" (1.5, 3.0, 4.5) (Stats.quartiles (ints 1 5));
  Alcotest.check triple "two samples" (7.5, 15.0, 22.5) (Stats.quartiles [ 20.0; 10.0 ]);
  Alcotest.check triple "unsorted" (1.375, 2.8, 5.25) (Stats.quartiles [ 3.0; 1.0; 4.0; 1.5; 9.0; 2.6 ]);
  Alcotest.check float "spread of 1..10" 1.0 (Stats.spread (ints 1 10));
  Alcotest.check float "the middle quartile is the median" (Common.median (ints 1 10)) (let _, m, _ = Stats.quartiles (ints 1 10) in m);
  Alcotest.check float "no spread" 0.0 (Stats.spread [ 2.0; 2.0; 2.0 ])

let test_windowed_rate () =
  Alcotest.check float "steady completions" 1.0 (Stats.windowed_rate ~start:0.0 ~per:2 [ 1.0; 2.0; 3.0; 4.0 ]);
  (* Windows of 2 completions take 2 s, 8 s and 2 s: the stall is one window. *)
  Alcotest.check float "one stalled window" 1.0
    (Stats.windowed_rate ~start:0.0 ~per:2 [ 1.0; 2.0; 9.0; 10.0; 11.0; 12.0 ]);
  Alcotest.check float "a partial window is left out" 0.5 (Stats.windowed_rate ~start:0.0 ~per:2 [ 3.0; 4.0; 4.5 ])

(* ---------------- whole rounds ---------------- *)

let drain r =
  let rec go n = match Common.next_op r with Some _ -> go (n + 1) | None -> n in
  go 0

let test_rounds () =
  Alcotest.(check int) "a finished deadline still runs one round" 10
    (drain (Common.rounds ~round:10 ~min:0 ~cap:max_int ~seconds:0.0));
  Alcotest.(check int) "the cap is rounded down to whole rounds" 20 (drain (Common.rounds ~round:10 ~min:0 ~cap:25 ~seconds:60.0));
  let r = Common.rounds ~round:4 ~min:0 ~cap:max_int ~seconds:0.05 in
  let n = drain r in
  Alcotest.(check int) "timed runs end on a round boundary" 0 (n mod 4);
  Alcotest.(check int) "a minimum runs on past the clock, in whole rounds" 30
    (drain (Common.rounds ~round:10 ~min:25 ~cap:max_int ~seconds:0.0))

(* ---------------- exec_sharded: the query's statistic ---------------- *)

let test_exec_argmax () =
  let counts = [| 500; 10_000; 300 |] in
  let check output = Checks.check_exec Checks.Argmax ~n:10_800 ~epsilon:1.0 ~counts ~output in
  ok "the argmax" (check 1);
  rejects "a corrupted output (runner-up bin)" (check 0);
  rejects "a bin outside the domain" (check 3);
  rejects "a negative bin" (check (-1));
  (* Within the noise margin both answers are legitimate. *)
  let close = [| 1000; 1010 |] in
  ok "a near-tie within the margin"
    (Checks.check_exec Checks.Argmax ~n:2010 ~epsilon:1.0 ~counts:close ~output:0)

let test_exec_median () =
  (* prefix = 4800, 7800, 10000; N/2 = 5000: the query's argmin |prefix - N/2|
     is bin 0, while "first bin whose CDF reaches 1/2" would be bin 1. *)
  let counts = [| 4800; 3000; 2200 |] in
  let check output = Checks.check_exec Checks.Median_bin ~n:10_000 ~epsilon:1.0 ~counts ~output in
  Alcotest.(check int) "reference bin" 0 (Checks.best_bin Checks.Median_bin ~n:10_000 counts);
  ok "argmin |prefix - N/2|" (check 0);
  rejects "first bin with CDF >= 1/2" (check 1);
  Alcotest.(check (array int)) "histogram of one-hot rows" [| 2; 1 |]
    (Checks.histogram ~bins:2 (List.to_seq [ [| 1; 0 |]; [| 0; 1 |]; [| 1; 0 |] ]));
  Alcotest.(check bool) "margin shrinks as epsilon grows" true
    (Checks.noise_margin ~epsilon:10.0 ~bins:16 < Checks.noise_margin ~epsilon:1.0 ~bins:16)

(* ---------------- serve_http: records and budget ---------------- *)

let record ?(index = 0) ?(query = "top1") ?(categories = 16) ?(cost = 0.5) status =
  let c = B.create ~epsilon:cost ~delta:1e-9 in
  {
    S.Lifecycle.index;
    query;
    categories;
    epsilon = 0.5;
    cache_key = String.make 64 'a';
    cache_hit = true;
    cost = c;
    budget_before = B.zero;
    budget_after = B.zero;
    status;
    timings = { S.Lifecycle.admit_s = 0.0; plan_s = 0.0; exec_s = 0.0 };
  }

let executed ?query ?categories outputs = record ?query ?categories (S.Lifecycle.Executed { outputs })

let test_records () =
  let check r = Checks.check_records [ r ] in
  ok "top1 bin" (check (executed [ "3" ]));
  rejects "top1 bin out of range" (check (executed [ "16" ]));
  rejects "top1 garbage" (check (executed [ "x" ]));
  rejects "top1 two outputs" (check (executed [ "1"; "2" ]));
  ok "topK" (check (executed ~query:"topK" [ "1"; "0"; "6"; "4"; "14" ]));
  rejects "topK short" (check (executed ~query:"topK" [ "1"; "0" ]));
  ok "gap" (check (executed ~query:"gap" [ "0"; "10.180603" ]));
  rejects "gap not finite" (check (executed ~query:"gap" [ "0"; "nan" ]));
  ok "hypotest" (check (executed ~query:"hypotest" ~categories:1 [ "1" ]));
  rejects "hypotest not a bit" (check (executed ~query:"hypotest" ~categories:1 [ "2" ]));
  ok "cms" (check (executed ~query:"cms" ~categories:2 [ "20.5"; "-1.25" ]));
  ok "bayes shares" (check (executed ~query:"bayes" ~categories:3 [ "0.25"; "0.5"; "0.25" ]));
  rejects "bayes shares not summing to one" (check (executed ~query:"bayes" ~categories:3 [ "0.25"; "0.5"; "0.5" ]));
  ok "kmedians" (check (executed ~query:"kmedians" ~categories:8 [ "1.2"; "-3"; "-3"; "1.7" ]));
  rejects "kmedians count" (check (executed ~query:"kmedians" ~categories:8 [ "1.2" ]));
  rejects "refused record" (check (record (S.Lifecycle.Refused "budget")));
  rejects "failed execution" (check (record (S.Lifecycle.Exec_failed "audit")))

let test_failures () =
  ok "no failed operations" (Checks.check_no_failures ~attempted:10 ~failed:0);
  rejects "one failed operation" (Checks.check_no_failures ~attempted:10 ~failed:1)

let test_budget () =
  let initial = B.create ~epsilon:10.0 ~delta:1e-3 in
  let records = [ record ~index:0 ~cost:0.5 (S.Lifecycle.Executed { outputs = [] }); record ~index:1 ~cost:2.5 (S.Lifecycle.Executed { outputs = [] }) ] in
  ok "initial - costs" (Checks.check_budget ~initial ~remaining:(B.create ~epsilon:7.0 ~delta:(1e-3 -. 2e-9)) records);
  rejects "a wrong epsilon" (Checks.check_budget ~initial ~remaining:(B.create ~epsilon:7.5 ~delta:(1e-3 -. 2e-9)) records);
  rejects "a wrong delta" (Checks.check_budget ~initial ~remaining:(B.create ~epsilon:7.0 ~delta:(1e-3 -. 1e-9)) records);
  ok "identical bytes" (Checks.check_canonical ~socket:"[{\"index\":0}]" ~in_process:"[{\"index\":0}]");
  rejects "one byte off" (Checks.check_canonical ~socket:"[{\"index\":0}]" ~in_process:"[{\"index\":1}]")

(* ---------------- plan_cold: limits, exactness, optimality ---------------- *)

let metrics =
  {
    Cm.agg_time = 1.2e7;
    agg_bytes = 1e15;
    part_exp_time = 24.7;
    part_max_time = 684.7;
    part_exp_bytes = 1.1e6;
    part_max_bytes = 5.5e8;
    est_error = 0.0;
  }

let test_plans () =
  let check ?(tolerance = None) ?(reference = Some 24.7) m =
    Checks.check_plan ~goal:C.Min_part_exp_time ~tolerance ~metrics:m ~reference
  in
  ok "optimal exact plan" (check metrics);
  ok "no reference" (check ~reference:None metrics);
  rejects "a worse plan" (check { metrics with Cm.part_exp_time = 30.0 });
  rejects "a plan over 4 GB per participant" (check { metrics with Cm.part_max_bytes = 5e9 });
  rejects "a plan over 20 participant minutes" (check { metrics with Cm.part_max_time = 1300.0 });
  rejects "a plan over 10,000 aggregator core-hours" (check { metrics with Cm.agg_time = 4e7 });
  rejects "an exact problem with est_error" (check { metrics with Cm.est_error = 0.01 });
  ok "within tolerance" (check ~tolerance:(Some 0.05) { metrics with Cm.est_error = 0.04 });
  rejects "over tolerance" (check ~tolerance:(Some 0.05) { metrics with Cm.est_error = 0.06 });
  ok "the goal picks the metric compared"
    (Checks.check_plan ~goal:C.Min_part_max_bytes ~tolerance:None ~metrics ~reference:(Some 5.5e8))

(* ---------------- spans ---------------- *)

let span ?(op = 0) ?(tid = 1) name t0 t1 = { Spans.op; name; tid; t0; t1 }

let test_spans () =
  let spans = [ span "parent" 0.0 10.0; span "a" 2.0 5.0; span "b" 6.0 8.0; span ~tid:2 "other" 0.0 1.0 ] in
  let self name = List.assoc name (List.map (fun ((s : Spans.span), v) -> (s.Spans.name, v)) (Spans.self_times spans)) in
  Alcotest.check float "parent self time" 5.0 (self "parent");
  Alcotest.check float "leaf self time" 3.0 (self "a");
  Alcotest.check float "other tid is not a child" 1.0 (self "other");
  let parts, residual =
    Spans.attribute spans ~window:(0.0, 12.0) ~label:(fun s ->
        match s.Spans.name with "parent" -> Some (1, "parent") | "a" -> Some (2, "a") | _ -> None)
  in
  Alcotest.check float "deeper span wins" 3.0 (List.assoc "a" parts);
  Alcotest.check float "parent keeps the rest" 7.0 (List.assoc "parent" parts);
  Alcotest.check float "uncovered time is residual" 2.0 residual

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles and spread" `Quick test_quartiles;
          Alcotest.test_case "windowed rate" `Quick test_windowed_rate;
          Alcotest.test_case "whole rounds" `Quick test_rounds;
          Alcotest.test_case "spans" `Quick test_spans;
        ] );
      ( "checks",
        [
          Alcotest.test_case "exec argmax" `Quick test_exec_argmax;
          Alcotest.test_case "exec median" `Quick test_exec_median;
          Alcotest.test_case "serve records" `Quick test_records;
          Alcotest.test_case "serve budget and bytes" `Quick test_budget;
          Alcotest.test_case "plans" `Quick test_plans;
          Alcotest.test_case "failed operations" `Quick test_failures;
        ] );
    ]
