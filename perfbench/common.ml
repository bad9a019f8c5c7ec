(* What every workload shares: run options, the result record, the clock,
   memory and GC readings, and the seeded input generator. *)

type opts = {
  seed : int;
  seconds : float;  (** measured time of one pass *)
  out_dir : string;  (** where traced runs write Chrome trace JSON *)
}

(* One pass of a workload: the end-to-end metrics (name, value, unit), the
   per-layer metrics of its own layers, and the operation counts. *)
type result = {
  attempted : int;
  failed : int;
  checks : (string * (unit, string) Stdlib.result) list;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  spans : Spans.span list;
  report : string list;  (** extra lines a traced pass prints *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let nproc = max 1 (Domain.recommended_domain_count ())

(* A run's samples by the repository's percentile (linear interpolation
   between closest ranks). *)
let percentile xs p = Arb_util.Stats.percentile (Array.of_list xs) p
let median xs = percentile xs 50.0

(* Peak resident set of this process, in MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* GC counters of the calling domain (allocated words) and of the runtime
   (collections). *)
type gc = { minor : int; major : int; words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections; words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words }

let gc_layers ~ops before after =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_collections_per_op", per (float_of_int (after.minor - before.minor)), "count");
    ("gc.major_collections_per_op", per (float_of_int (after.major - before.major)), "count");
    ("gc.alloc_mwords_per_op", per ((after.words -. before.words) /. 1e6), "Mwords");
  ]

(* The seeded generator behind every workload's inputs. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Whole rounds: keep starting rounds of [round] operations until [seconds]
   have passed (at least [min] operations and one round, at most [cap]),
   then finish the round in progress. [next_op] returns [None] once
   the run is over. *)
type rounds = { round : int; min : int; cap : int; deadline : float; mutable next : int; mutable limit : int }

let rounds ~round ~min ~cap ~seconds =
  let whole k = (k + round - 1) / round * round in
  { round; min = whole (max 1 min); cap = cap / round * round; deadline = now () +. seconds; next = 0; limit = max_int }

let next_op r =
  if r.limit = max_int && ((now () >= r.deadline && r.next >= r.min) || r.next >= r.cap) then
    r.limit <- max r.min ((r.next + r.round - 1) / r.round * r.round);
  if r.next < r.limit then begin
    let i = r.next in
    r.next <- i + 1;
    Some i
  end
  else None
