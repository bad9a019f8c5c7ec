(* Order statistics the repository does not have. Percentiles and medians
   of one run's operations use Arb_util.Stats.percentile.

   [quartiles] and [spread] summarize a metric across runs, with the exact
   definition of Python's [statistics.quantiles(values, n=4)] (the
   "exclusive" method), so the steadiness report agrees digit for digit
   with an external check. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* statistics.quantiles(data, n=4, method='exclusive'):
     m = len + 1; for i in 1..3: j = i*m // 4 clamped to [1, len-1];
     delta = i*m - j*4; q_i = (data[j-1] * (4 - delta) + data[j] * delta) / 4
   The middle quartile is the median. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = len + 1 in
  let q i =
    let j = max 1 (min (len - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Throughput that a stall in one part of a run does not swing: the median,
   over consecutive windows of [per] completions, of [per] / the window's
   duration (from the previous window's last completion, or [start]). *)
let windowed_rate ~start ~per completions =
  let c = sorted completions in
  let windows = Array.length c / per in
  if windows = 0 then invalid_arg "Stats.windowed_rate: fewer completions than one window";
  Arb_util.Stats.percentile
    (Array.init windows (fun w ->
         let t0 = if w = 0 then start else c.((w * per) - 1) in
         float_of_int per /. (c.(((w + 1) * per) - 1) -. t0)))
    50.0

(* Run-to-run spread: the interquartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs med
