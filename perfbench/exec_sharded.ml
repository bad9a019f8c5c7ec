(* exec_sharded: repeated cohort-sharded executions over a population of
   10^6 devices (the input stage at population scale).

   Each round runs top1 and median (test instances, 16 bins, epsilon 1)
   through Arb_runtime.Exec.run_source with [Sharded {cohort_size = 2048;
   sampled_cohorts = 2}] on one worker domain: 4096 devices take the real
   encrypt+prove+verify path, which is about a third of an execution, and
   the rest are replayed from their PRF draws. The population's rows come
   from Registry.device_source keyed by the seed; each execution gets its
   own protocol seed.

   One worker, not [nproc]: on a shared 2-vCPU host two workers ran no
   faster than one, and every stop-the-world minor collection then waited
   on the host to schedule both vCPUs, which swung a run's figures by up
   to 28% against its neighbours'. *)

module R = Arb_runtime
module Q = Arb_queries.Registry
module O = Arb_obs
module Cr = Arb_crypto

let n = 1_000_000
let cohort_size = 2048
let sampled_cohorts = 2
let epsilon = 1.0
let queries = [| ("top1", Checks.Argmax); ("median", Checks.Median_bin) |]
let round = Array.length queries

let config ~seed ~tracer =
  {
    R.Exec.default_config with
    R.Exec.seed;
    budget = Arb_dp.Budget.create ~epsilon:100.0 ~delta:0.5;
    sharding = R.Exec.Sharded { cohort_size; sampled_cohorts };
    workers = 1;
    tracer;
  }

let ms x = x *. 1000.0

(* The row source the program reads; in traced passes it also clocks the
   time spent synthesizing rows, so data synthesis is not read as protocol
   work. *)
type row_clock = { calls : int Atomic.t; ns : int Atomic.t }

let source ~seed ?clock q =
  let row = Q.device_source ~seed:(Int64.of_int seed) q in
  let row =
    match clock with
    | None -> row
    | Some c ->
        fun i ->
          let t0 = Common.now () in
          let r = row i in
          Atomic.incr c.calls;
          ignore (Atomic.fetch_and_add c.ns (int_of_float ((Common.now () -. t0) *. 1e9)));
          r
  in
  { R.Exec.n_devices = n; row }

(* Crypto kernels at the executed parameters: the runtime picks ring degree
   [bgv_n] and the two-prime basis with t >= 4N once N passes 4096. *)
let crypto_layers () =
  let rec pow2 k = if k >= 4 * n then k else pow2 (2 * k) in
  let params = Cr.Bgv.fhe_params ~n:R.Exec.default_config.R.Exec.bgv_n ~min_t:(max 12289 (pow2 1)) () in
  let rng = Arb_util.Rng.create 17L in
  let _, pk = Cr.Bgv.keygen params rng in
  let slots = Array.init 16 (fun i -> if i = 3 then 1 else 0) in
  let reps = 200 in
  let per f = 1e6 *. snd (Common.time (fun () -> for _ = 1 to reps do ignore (f ()) done)) /. float_of_int reps in
  let encrypt_us =
    let rs = Array.init reps (fun _ -> Cr.Bgv.sample_encrypt_randomness pk rng) in
    let k = ref 0 in
    per (fun () ->
        let r = rs.(!k) in
        incr k;
        Cr.Bgv.encrypt_with_randomness pk r slots)
  in
  let statement = Cr.Zkp.One_hot { length = 16 } in
  let prove () = Cr.Zkp.prove statement ~witness:slots ~prover:"device-3" ~nonce:"perfbench" in
  let proof = prove () in
  let prove_us = per prove in
  let verify_us = per (fun () -> Cr.Zkp.verify statement proof ~prover:"device-3" ~nonce:"perfbench") in
  let mb = String.make (1 lsl 20) 'a' in
  let sha_s = snd (Common.time (fun () -> for _ = 1 to 16 do ignore (Cr.Sha256.digest mb) done)) in
  [
    ("crypto.encrypt_us", encrypt_us, "us");
    ("crypto.zkp_prove_us", prove_us, "us");
    ("crypto.zkp_verify_us", verify_us, "us");
    ("crypto.sha256_mb_per_s", 16.0 /. sha_s, "MB/s");
    ("crypto.ciphertext_bytes", float_of_int (Cr.Bgv.serialized_bytes params 1), "B");
  ]

type op = { query : string; seconds : float; finished : float; report : (R.Exec.report, R.Exec.failure) result }

let run (opts : Common.opts) ~traced ~setups =
  let seed = opts.Common.seed in
  let qs = Array.map (fun (name, stat) -> (Q.test_instance ~epsilon name, stat)) queries in
  let exec_seed i = Int64.of_int ((seed * 1_000_003) + i) in
  (* Set-up: plan both queries at N, then one warm-up execution. *)
  let setup k =
    let plans = Array.map (fun (q, _) -> Arboretum.plan ~n q) qs in
    let q, _ = qs.(0) in
    ignore (R.Exec.run_source (config ~seed:(exec_seed (-k)) ~tracer:None) ~query:q ~plan:plans.(0).Arboretum.plan ~src:(source ~seed q));
    plans
  in
  let setup_times, plans =
    let rec go k times =
      let plans, dt = Common.time (fun () -> setup k) in
      if k <= 1 then (dt :: times, plans) else go (k - 1) (dt :: times)
    in
    go setups []
  in
  let clock = if traced then Some { calls = Atomic.make 0; ns = Atomic.make 0 } else None in
  let sources = Array.map (fun (q, _) -> source ~seed ?clock q) qs in
  let spans = Spans.create () in
  let rounds = Common.rounds ~round ~min:round ~cap:max_int ~seconds:opts.Common.seconds in
  let ntt0 = Atomic.get Cr.Ntt.Stats.transforms and scratch0 = Cr.Bgv.scratch_words_allocated () in
  let g0 = Common.gc_now () in
  let ops = ref [] in
  let start = Common.now () in
  let rec loop () =
    match Common.next_op rounds with
    | None -> ()
    | Some i ->
        let q, _ = qs.(i mod round) in
        let tracer = if traced then Some (Common.now (), O.Tracer.create ~clock:O.Clock.Monotonic ()) else None in
        let report, dt =
          Common.time (fun () ->
              R.Exec.run_source
                (config ~seed:(exec_seed i) ~tracer:(Option.map snd tracer))
                ~query:q ~plan:plans.(i mod round).Arboretum.plan ~src:sources.(i mod round))
        in
        Option.iter (fun (base, tr) -> Spans.import spans ~base ~tid_base:(100 * (i + 1)) ~op_of:(fun _ _ _ -> i) tr) tracer;
        ops := { query = q.Q.name; seconds = dt; finished = Common.now (); report } :: !ops;
        loop ()
  in
  loop ();
  let g1 = Common.gc_now () in
  let ntt1 = Atomic.get Cr.Ntt.Stats.transforms and scratch1 = Cr.Bgv.scratch_words_allocated () in
  let rss = Common.peak_rss_mb () in
  let ops = List.rev !ops in
  let done_ = List.filter_map (fun o -> match o.report with Ok r -> Some (o, r) | Error _ -> None) ops in
  (* ---- checks, outside the timed loop: the statistic from the same rows ---- *)
  let counts =
    Array.map
      (fun (q, _) ->
        let row = Q.device_source ~seed:(Int64.of_int seed) q in
        Checks.histogram ~bins:q.Q.categories (Seq.map row (Seq.init n Fun.id)))
      qs
  in
  let check_op (o, (r : R.Exec.report)) =
    let k = if o.query = fst queries.(0) then 0 else 1 in
    let stat = snd qs.(k) in
    match r.R.Exec.outputs with
    | [ Arb_lang.Interp.V_int output ] ->
        if not r.R.Exec.certificate_ok then Error "certificate does not verify"
        else if not r.R.Exec.audit_ok then Error "audit failed"
        else if r.R.Exec.accepted_inputs <> n then Error (Printf.sprintf "%d inputs accepted, not %d" r.R.Exec.accepted_inputs n)
        else Checks.check_exec stat ~n ~epsilon ~counts:counts.(k) ~output
    | _ -> Error (o.query ^ ": expected one integer output")
  in
  let crypto = if traced then crypto_layers () else [] in
  let upload_per_device r = r.R.Exec.trace.R.Trace.device_upload_bytes /. float_of_int r.R.Exec.trace.R.Trace.devices_total in
  let checks =
    ( "outputs agree with the statistic of the rows; certificate, audit, all N inputs accepted",
      Checks.all check_op done_ )
    ::
    (match List.assoc_opt "crypto.ciphertext_bytes" (List.map (fun (k, v, _) -> (k, v)) crypto) with
    | None -> []
    | Some ct ->
        [
          ( "crypto kernels timed at the executed parameters (ciphertext + proof = upload per device)",
            Checks.all
              (fun (_, r) ->
                let want = ct +. float_of_int Cr.Zkp.proof_bytes in
                if upload_per_device r = want then Ok ()
                else Error (Printf.sprintf "upload %g B per device, kernels priced %g" (upload_per_device r) want))
              done_ );
        ])
  in
  let exec_total = List.fold_left (fun a (o, _) -> a +. o.seconds) 0.0 done_ in
  let sumf f = List.fold_left (fun a (_, r) -> a +. f r) 0.0 done_ in
  let lat = List.map (fun (o, _) -> ms o.seconds) done_ in
  let trace f = sumf (fun (r : R.Exec.report) -> float_of_int (f r.R.Exec.trace)) in
  let e2e =
    [
      ("ops_per_s", Stats.windowed_rate ~start ~per:round (List.map (fun (o, _) -> o.finished) done_), "op/s");
      ("p50_ms", Common.percentile lat 50.0, "ms");
      ("p90_ms", Common.percentile lat 90.0, "ms");
      ("setup_s", Common.median setup_times, "s");
      ("peak_rss_mb", rss, "MB");
      ("devices_per_s", sumf (fun r -> float_of_int r.R.Exec.accepted_inputs) /. exec_total, "dev/s");
      ( "upload_bytes_per_device",
        sumf (fun r -> r.R.Exec.trace.R.Trace.device_upload_bytes) /. trace (fun t -> t.R.Trace.devices_total),
        "B" );
    ]
  in
  let layers =
    match clock with
    | None -> []
    | Some c ->
        let all = Spans.spans spans in
        let k = float_of_int (max 1 (List.length done_)) in
        let per name = ms (Spans.total_of all name) /. k in
        [
          ("runtime.inputs_ms", per "inputs", "ms");
          ("runtime.audit_ms", per "audit", "ms");
          ("runtime.sortition_check_ms", per "sortition-check", "ms");
          ("runtime.sortition_ms", per "sortition", "ms");
          ("runtime.materialized_devices", trace (fun t -> t.R.Trace.devices_materialized) /. k, "count");
          ("runtime.audits_per_op", trace (fun t -> t.R.Trace.audits_performed) /. k, "count");
          ("runtime.sortition_checks_per_op", trace (fun t -> t.R.Trace.sortition_checks) /. k, "count");
          ("crypto.ntt_transforms_per_op", float_of_int (ntt1 - ntt0) /. k, "count");
          ("crypto.scratch_words_per_op", float_of_int (scratch1 - scratch0) /. k, "words");
          ( "queries.row_us",
            float_of_int (Atomic.get c.ns) /. 1e3 /. float_of_int (max 1 (Atomic.get c.calls)),
            "us" );
        ]
        @ crypto
        @ Common.gc_layers ~ops:(List.length done_) g0 g1
  in
  {
    Common.attempted = List.length ops;
    failed = List.length ops - List.length done_;
    checks;
    e2e;
    layers;
    spans = (if traced then Spans.spans spans else []);
    report = [];
  }
