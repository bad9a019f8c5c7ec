(* Output checks. Each compares the program's output with a reference the
   benchmark computes apart from the program, or with a property the method
   must have. They run outside every timed section, and each returns
   [Error reason] on the first violation. *)

module S = Arb_service
module Cm = Arb_planner.Cost_model
module C = Arb_planner.Constraints

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let all f xs =
  List.fold_left (fun acc x -> match acc with Ok () -> f x | e -> e) (Ok ()) xs

(* Every attempted operation returned an answer: a run is only correct
   when none failed. *)
let check_no_failures ~attempted ~failed =
  if failed = 0 then Ok () else fail "%d of %d operations failed" failed attempted

(* ---------------- exec_sharded: the query's own statistic ---------------- *)

type statistic = Argmax | Median_bin

(* Per-bin counts of one-hot rows. *)
let histogram ~bins rows =
  let h = Array.make bins 0 in
  Seq.iter (fun (row : int array) -> Array.iteri (fun i v -> h.(i) <- h.(i) + v) row) rows;
  h

(* The score the query maximizes, before noise: the bin count for top1, and
   for median the median query's definition, -|prefix[i] - N/2| (not "the
   first bin whose CDF reaches 1/2"). *)
let scores stat ~n counts =
  match stat with
  | Argmax -> Array.copy counts
  | Median_bin ->
      let acc = ref 0 in
      Array.map
        (fun c ->
          acc := !acc + c;
          -abs (!acc - (n / 2)))
        counts

let best_bin stat ~n counts =
  let s = scores stat ~n counts in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > s.(!best) then best := i) s;
  !best

(* The exponential mechanism picks a bin whose score trails the best by g
   with probability at most C * exp(-eps * g / 2) (sensitivity 1). The
   margin makes that at most 1e-12. *)
let noise_margin ~epsilon ~bins =
  int_of_float (Float.ceil (2.0 /. epsilon *. (log (float_of_int bins) +. (12.0 *. log 10.0))))

let check_exec stat ~n ~epsilon ~counts ~output =
  let bins = Array.length counts in
  if output < 0 || output >= bins then fail "output bin %d outside [0, %d)" output bins
  else
    let s = scores stat ~n counts in
    let best = best_bin stat ~n counts in
    let margin = noise_margin ~epsilon ~bins in
    if s.(best) - s.(output) <= margin then Ok ()
    else
      fail "output bin %d scores %d below the reference bin %d (margin %d)" output
        (s.(best) - s.(output)) best margin

(* ---------------- serve_http: records, budget, canonical bytes ---------------- *)

let finite s = match float_of_string_opt s with Some f -> Float.is_finite f | None -> false

let bin_in ~c s = match int_of_string_opt s with Some b -> b >= 0 && b < c | None -> false

(* The output domain of each registry query, from its program text. *)
let output_in_domain ~query ~categories outputs =
  let c = categories in
  let count k =
    if List.length outputs = k then Ok () else fail "%s: %d outputs, expected %d" query (List.length outputs) k
  in
  let each what p = if List.for_all p outputs then Ok () else fail "%s: output outside %s" query what in
  match query with
  | "top1" | "auction" | "median" ->
      let* () = count 1 in
      each (Printf.sprintf "bins [0, %d)" c) (bin_in ~c)
  | "topK" ->
      let* () = count 5 in
      each (Printf.sprintf "bins [0, %d)" c) (bin_in ~c)
  | "gap" -> (
      match outputs with
      | [ w; g ] when bin_in ~c w && finite g -> Ok ()
      | _ -> fail "gap: expected a bin in [0, %d) and a finite gap" c)
  | "hypotest" ->
      let* () = count 1 in
      each "{0, 1}" (fun s -> s = "0" || s = "1")
  | "secrecy" ->
      let* () = count 1 in
      each "finite numbers" finite
  | "cms" ->
      let* () = count c in
      each "finite numbers" finite
  | "bayes" ->
      let* () = count c in
      let* () = each "finite numbers" finite in
      (* p_i = noisy_i / sum(noisy): the shares sum to one up to the
         six-decimal fixed-point rendering. *)
      let total = List.fold_left (fun a s -> a +. float_of_string s) 0.0 outputs in
      if Float.abs (total -. 1.0) <= 1e-3 then Ok () else fail "bayes: shares sum to %g, not 1" total
  | "kmedians" ->
      let* () = count (c / 2) in
      each "finite numbers" finite
  | q -> fail "unknown query %s" q

let check_record (r : S.Lifecycle.record) =
  match r.S.Lifecycle.status with
  | S.Lifecycle.Executed { outputs } ->
      Result.map_error
        (fun m -> Printf.sprintf "submission %d: %s" r.S.Lifecycle.index m)
        (output_in_domain ~query:r.S.Lifecycle.query ~categories:r.S.Lifecycle.categories outputs)
  | st -> fail "submission %d (%s) is %s, not executed" r.S.Lifecycle.index r.S.Lifecycle.query (S.Lifecycle.status_name st)

let check_records records = all check_record records

(* Remaining budget = initial budget - the record costs, summed here in
   submission order. *)
let check_budget ~(initial : Arb_dp.Budget.t) ~(remaining : Arb_dp.Budget.t) records =
  let spent_eps, spent_delta =
    List.fold_left
      (fun (e, d) (r : S.Lifecycle.record) ->
        (e +. r.S.Lifecycle.cost.Arb_dp.Budget.epsilon, d +. r.S.Lifecycle.cost.Arb_dp.Budget.delta))
      (0.0, 0.0) records
  in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b) in
  let want_eps = initial.Arb_dp.Budget.epsilon -. spent_eps
  and want_delta = initial.Arb_dp.Budget.delta -. spent_delta in
  if close want_eps remaining.Arb_dp.Budget.epsilon && close want_delta remaining.Arb_dp.Budget.delta then Ok ()
  else
    fail "remaining budget (%.17g, %.17g) != initial - spent (%.17g, %.17g)" remaining.Arb_dp.Budget.epsilon
      remaining.Arb_dp.Budget.delta want_eps want_delta

let check_canonical ~socket ~in_process =
  if String.equal socket in_process then Ok ()
  else fail "canonical records over the socket differ from a fresh in-process run"

(* ---------------- plan_cold: limits, exactness, optimality ---------------- *)

(* The §7.2 evaluation limits, as Constraints.evaluation_limits sets them:
   4 GB and 20 minutes per participant, 10,000 aggregator core-hours. *)
let within_evaluation_limits (m : Cm.metrics) =
  m.Cm.part_max_bytes <= 4.0e9 && m.Cm.part_max_time <= 20.0 *. 60.0 && m.Cm.agg_time <= 10_000.0 *. 3600.0

(* [reference]: the goal value an exhaustive (~heuristics:false) search
   reached, when it finished. *)
let check_plan ~goal ~tolerance ~(metrics : Cm.metrics) ~reference =
  let* () = if within_evaluation_limits metrics then Ok () else fail "plan exceeds the evaluation limits" in
  let* () =
    match tolerance with
    | None when metrics.Cm.est_error <> 0.0 -> fail "exact problem returned est_error %g" metrics.Cm.est_error
    | Some t when not (metrics.Cm.est_error <= t) -> fail "est_error %g above tolerance %g" metrics.Cm.est_error t
    | _ -> Ok ()
  in
  match reference with
  | None -> Ok ()
  | Some best ->
      let v = C.goal_value goal metrics in
      if Float.abs (v -. best) <= 1e-9 *. Float.abs best then Ok ()
      else fail "goal value %.17g differs from the exhaustive optimum %.17g" v best
