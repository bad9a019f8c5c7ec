(* plan_cold: cold Arboretum.plan calls at N = 10^9 (the paper's planner,
   Fig. 9).

   The problems are the paper instances of the five exponential-mechanism
   queries under several goals, each planned exact and with an error
   tolerance of 0.05. Every problem plans in a few ms to a few hundred ms:
   the sub-millisecond queries (hypotest, secrecy, cms, bayes, kmedians),
   gap's 2 ms searches, and the multi-second ones (auction and median under
   agg-time or the max-time/max-bytes goals) are left out. A round plans
   each problem once, in a seed-chosen order. *)

module P = Arb_planner
module C = P.Constraints
module Q = Arb_queries.Registry
module O = Arb_obs

let n = 1_000_000_000
let tolerance = 0.05

let all_goals = List.map snd Arb_service.Workload.goal_names

let some_goals = [ C.Min_part_exp_time; C.Min_part_exp_bytes; C.Min_agg_bytes ]

type problem = { query : string; goal : C.goal; tolerance : float option }

let exact, approximate =
  let make query goals tol = List.map (fun goal -> { query; goal; tolerance = tol }) goals in
  ( List.concat
      [
        make "top1" all_goals None;
        make "topK" all_goals None;
        make "gap" [ C.Min_part_max_time; C.Min_part_max_bytes; C.Min_agg_time ] None;
        make "auction" some_goals None;
        make "median" some_goals None;
      ],
    List.concat
      [
        make "top1" all_goals (Some tolerance);
        make "topK" all_goals (Some tolerance);
        make "gap" all_goals (Some tolerance);
        make "auction" some_goals (Some tolerance);
        make "median" some_goals (Some tolerance);
      ] )

let problems = exact @ approximate

(* A round plans each exact problem twice and each approximate one once
   (66 plans): exact answers are the common request, and the weighting
   puts the median and the 90th percentile among problems of similar
   planning time (~18 ms and ~95 ms), not in a gap between two groups
   where one op's noise would swing them. *)
let round_mix = exact @ exact @ approximate

let name p =
  Printf.sprintf "%s/%s/%s" p.query (C.goal_name p.goal)
    (match p.tolerance with None -> "exact" | Some t -> Printf.sprintf "tol%g" t)

let query_of p = { (Q.paper_instance p.query) with Q.error_tolerance = p.tolerance }

let plan ?tracer ?metrics p =
  Arboretum.plan ?tracer ?metrics ~limits:C.evaluation_limits ~goal:p.goal ~n (query_of p)

(* The exhaustive searches that finish within [max_prefixes] per task:
   top1 and gap (~0.8 s exact, ~3.5 s with a tolerance). A run checks every
   exact one and [tol_refs] tolerance ones chosen by the seed. *)
let max_prefixes = 400_000

let reference_set ~seed ~exact_refs ~tol_refs =
  let finishing = List.filter (fun p -> p.query = "top1" || p.query = "gap") problems in
  let pick k l = Array.to_list (Array.sub (Common.shuffle (Common.rng ~seed ~salt:3) (Array.of_list l)) 0 (min k (List.length l))) in
  pick exact_refs (List.filter (fun p -> p.tolerance = None) finishing)
  @ pick tol_refs (List.filter (fun p -> p.tolerance <> None) finishing)

let exhaustive p =
  let limits = C.with_error_tolerance C.evaluation_limits p.tolerance in
  let r = P.Search.plan ~limits ~goal:p.goal ~heuristics:false ~max_prefixes ~query:(query_of p) ~n () in
  match r.P.Search.metrics with
  | Some m when not r.P.Search.stats.P.Search.aborted -> Some (C.goal_value p.goal m)
  | _ -> None

let ms x = x *. 1000.0

(* The first planning pass over every problem, which fills the process-wide
   memo tables (committee sizes) every later plan reads: what a fresh
   process pays once. *)
let first_pass () = Common.time (fun () -> Array.map (fun p -> plan p) (Array.of_list problems))

(* The first pass again in a fresh process ([main.exe plan-setup] prints
   its seconds), since this one's memo tables are already full. *)
let fresh_first_pass () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "plan-setup" |] in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "plan_cold: a set-up process failed"

(* The problems' winners, as the cost model prices them: what the returned
   plans promise a deployment of N devices. *)
let predicted winners =
  let sum f = List.fold_left (fun a (_, (pl : Arboretum.planned)) -> a +. f pl.Arboretum.metrics) 0.0 winners in
  let k = float_of_int (List.length winners) in
  ( float_of_int n *. k /. sum (fun m -> m.P.Cost_model.agg_time),
    sum (fun m -> m.P.Cost_model.part_exp_bytes) /. k )

let run (opts : Common.opts) ~traced ~setups ~exact_refs ~tol_refs =
  let seed = opts.Common.seed in
  let problems = Array.of_list problems in
  let mix = Array.of_list round_mix in
  let round = Array.length mix in
  (* Set-up: this process's first pass, and [setups - 1] more in fresh
     processes; setup_s is their median. *)
  let first, own = first_pass () in
  let setup_times = own :: List.init (setups - 1) (fun _ -> fresh_first_pass ()) in
  let spans = Spans.create () in
  let registry = O.Metrics.create () in
  let tracers = ref [] in
  let rounds = Common.rounds ~round ~min:round ~cap:max_int ~seconds:opts.Common.seconds in
  let st = Common.rng ~seed ~salt:2 in
  let perm = ref [||] in
  let results = ref [] and completions = ref [] in
  let g0 = Common.gc_now () in
  let wall0 = Common.now () in
  let rec loop () =
    match Common.next_op rounds with
    | None -> ()
    | Some i ->
        if i mod round = 0 then perm := Common.shuffle st (Array.init round Fun.id);
        let p = mix.(!perm.(i mod round)) in
        let tracer =
          if traced then begin
            let base = Common.now () in
            let tr = O.Tracer.create ~clock:O.Clock.Monotonic () in
            tracers := (i, base, tr) :: !tracers;
            Some tr
          end
          else None
        in
        let metrics = if traced then Some registry else None in
        let t0 = Common.now () in
        let r = try Ok (plan ?tracer ?metrics p) with Arboretum.Rejected m -> Error m in
        let t1 = Common.now () in
        if traced then begin
          Spans.add spans { Spans.op = i; name = "planner.plan"; tid = 1; t0; t1 };
          ignore (Spans.record spans ~op:i ~tid:1 "lang.certify" (fun () -> Arboretum.certify (query_of p) ~n))
        end;
        (* Only what the checks and layers read: holding every returned
           plan (with its alternatives) would grow the heap, and peak RSS
           with it, by the number of plans a run made. *)
        let r = Result.map (fun (pl : Arboretum.planned) -> (pl.Arboretum.metrics, pl.Arboretum.stats)) r in
        results := (p, r, t1 -. t0) :: !results;
        completions := t1 :: !completions;
        loop ()
  in
  loop ();
  let g1 = Common.gc_now () in
  let results = List.rev !results in
  let rss = Common.peak_rss_mb () in
  let ok = List.filter_map (fun (p, r, dt) -> match r with Ok pl -> Some (p, pl, dt) | Error _ -> None) results in
  (* ---- checks, outside the timed loop ---- *)
  let winners = Array.to_list (Array.map2 (fun p pl -> (p, pl)) problems first) in
  let refs = reference_set ~seed ~exact_refs ~tol_refs in
  let reference p = if List.mem p refs then exhaustive p else None in
  let checks =
    [
      ( "every problem plans within the limits; exact ones have est_error 0; goal = exhaustive optimum",
        Checks.all
          (fun (p, (pl : Arboretum.planned)) ->
            Result.map_error (fun m -> name p ^ ": " ^ m)
              (Checks.check_plan ~goal:p.goal ~tolerance:p.tolerance ~metrics:pl.Arboretum.metrics
                 ~reference:(reference p)))
          winners );
      ( "every measured plan equals the set-up plan of its problem",
        Checks.all
          (fun (p, (metrics, _), _) ->
            let _, w = List.find (fun (q, _) -> q == p) winners in
            if metrics = w.Arboretum.metrics then Ok () else Error (name p ^ ": plan changed between calls"))
          ok );
    ]
  in
  let lat = List.map (fun (_, _, dt) -> ms dt) ok in
  let dev_s, upload = predicted winners in
  let e2e =
    [
      ("ops_per_s", Stats.windowed_rate ~start:wall0 ~per:round !completions, "op/s");
      ("p50_ms", Common.percentile lat 50.0, "ms");
      ("p90_ms", Common.percentile lat 90.0, "ms");
      ("setup_s", Common.median setup_times, "s");
      ("peak_rss_mb", rss, "MB");
      ("devices_per_s", dev_s, "dev/s");
      ("upload_bytes_per_device", upload, "B");
    ]
  in
  let layers =
    if not traced then []
    else begin
      List.iter (fun (i, base, tr) -> Spans.import spans ~base ~tid_base:100 ~op_of:(fun _ _ _ -> i) tr) !tracers;
      let all = Spans.spans spans in
      let plans = float_of_int (max 1 (List.length ok)) in
      let stat f = float_of_int (List.fold_left (fun a (_, (_, st), _) -> a + f st) 0 ok) in
      let value name = Option.value (O.Metrics.value_at registry name) ~default:0.0 in
      let hits = value "arb_planner_memo_hits_total" and misses = value "arb_planner_memo_misses_total" in
      let elapsed = List.fold_left (fun a (_, (_, st), _) -> a +. st.P.Search.elapsed) 0.0 ok in
      let committee_ms =
        (* What a first committee-size call costs: the unmemoized solve for
           the committee counts plans use. *)
        let p1 = Arb_dp.Committee.p1_of_round ~p:1e-8 ~rounds:1000 in
        let one c = snd (Common.time (fun () -> Arb_dp.Committee.min_size ~f:0.03 ~g:0.15 ~committees:c ~p1)) in
        ms (Common.median (List.map one [ 1; 2; 4; 8; 16; 32; 64 ]))
      in
      [
        ("planner.prefixes_per_plan", stat (fun s -> s.P.Search.prefixes) /. plans, "count");
        ("planner.full_plans_per_plan", stat (fun s -> s.P.Search.full_plans) /. plans, "count");
        ("planner.pruned_per_plan", stat (fun s -> s.P.Search.pruned) /. plans, "count");
        ("planner.memo_hit_ratio", hits /. (hits +. misses), "ratio");
        ("planner.price_calls_per_plan", value "arb_planner_price_calls_total" /. plans, "count");
        ("planner.prefixes_per_s", stat (fun s -> s.P.Search.prefixes) /. elapsed, "1/s");
        ("planner.expand_ms", ms (Spans.total_of all "expand") /. plans, "ms");
        ("planner.price_ms", ms (Spans.total_of all "price") /. plans, "ms");
        ("planner.alloc_mwords_per_plan", (g1.Common.words -. g0.Common.words) /. 1e6 /. plans, "Mwords");
        ("lang.certify_ms", ms (Spans.total_of all "lang.certify") /. plans, "ms");
        ("dp.committee_size_ms", committee_ms, "ms");
      ]
      @ Common.gc_layers ~ops:(List.length ok) g0 g1
    end
  in
  {
    Common.attempted = List.length results;
    failed = List.length results - List.length ok;
    checks;
    e2e;
    layers;
    spans = (if traced then Spans.spans spans else []);
    report = [];
  }
