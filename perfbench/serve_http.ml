(* serve_http: an analyst in a closed loop over the HTTP front door.

   One keep-alive connection posts a query to POST /v1/queries and polls
   GET /v1/queries/<i> until its record arrives, then posts the next. The mix cycles through the ten registry
   queries (test instances) in a seed-chosen order over a 32-device
   population, so every query hits the plan cache warmed in set-up: what is
   measured is per-query fixed cost (HTTP, admission, cache hit, keygen and
   the rest of a small execution), with no planning. *)

module S = Arb_service
module H = S.Http
module J = Arb_util.Json
module B = Arb_dp.Budget
module O = Arb_obs

let devices = 32
let epsilon = 0.5
let budget = B.create ~epsilon:1000.0 ~delta:1e-3
let poll_interval = 0.002
let host = "127.0.0.1"

(* The session refuses queries past its 1000-round limit; set-up and the
   measured loop stay below it (and within the budget: a round of the ten
   queries costs 10.2 epsilon). *)
let max_ops = 900

let round = List.length Arb_queries.Registry.names

(* The service keeps every executed query's record and report, so the
   process grows with the queries it has answered. Peak RSS is read after
   this many measured queries, which every run answers (it runs on past the
   clock if it must), so runs of different speed compare the same work. *)
let rss_queries = 150

let submission query =
  {
    S.Workload.query;
    epsilon;
    categories = None;
    goal = Arb_planner.Constraints.Min_part_exp_time;
    repeat = 1;
    every = None;
    window = None;
    tolerance = None;
  }

let mix ~seed = Common.shuffle (Common.rng ~seed ~salt:1) (Array.of_list Arb_queries.Registry.names)

(* A program tracer on the wall clock, and the time it was created at. *)
let monotonic () =
  let base = Common.now () in
  (base, O.Tracer.create ~clock:O.Clock.Monotonic ())

type deployment = {
  svc : S.Service.t;
  api : S.Api.t;
  server : S.Server.t;
  registry : O.Metrics.t;
  drain_tracer : (float * O.Tracer.t) option;
  exec_tracer : (float * O.Tracer.t) option;
}

let start ~seed ~traced =
  let drain_tracer = if traced then Some (monotonic ()) else None in
  let exec_tracer = if traced then Some (monotonic ()) else None in
  let registry = O.Metrics.create () in
  let exec_config = { Arb_runtime.Exec.default_config with tracer = Option.map snd exec_tracer } in
  let svc = S.Service.create ~exec_config ~metrics:registry ~budget ~devices ~seed () in
  let api = S.Api.create ?tracer:(Option.map snd drain_tracer) ~service:svc () in
  let server =
    S.Server.start ~config:{ S.Server.default_config with workers = Common.nproc } ~handler:(S.Api.handler api) ()
  in
  { svc; api; server; registry; drain_tracer; exec_tracer }

let stop d =
  S.Server.stop d.server;
  S.Api.join d.api

let connect d =
  match S.Client.connect ~host ~port:(S.Server.port d.server) () with
  | Ok c -> c
  | Error m -> failwith ("serve_http: connect: " ^ m)

type op = {
  index : int;
  query : string;
  t0 : float;
  t1 : float;
  polls : int;
  record : (J.t, string) result;  (** the polled record *)
}

(* One analyst query: submit, then poll until the record arrives. With
   [spans], the client's requests and poll waits are recorded as spans of
   the submission. *)
let run_query ?spans ~tid conn query =
  let span op name t0 t1 = Option.iter (fun sp -> Spans.add sp { Spans.op; name; tid; t0; t1 }) spans in
  let t0 = Common.now () in
  let body = J.to_string (S.Workload.submission_to_json (submission query)) in
  let resp = S.Client.request ~body conn ~meth:"POST" ~target:"/v1/queries" () in
  let t_sub = Common.now () in
  let failed ?(index = -1) ?(polls = 0) m = { index; query; t0; t1 = Common.now (); polls; record = Error m } in
  match resp with
  | Error m -> failed ("submit: " ^ m)
  | Ok r when r.H.status <> 202 -> failed (Printf.sprintf "submit answered %d" r.H.status)
  | Ok r ->
      let index = J.to_int (J.member "index" (J.of_string r.H.resp_body)) in
      span index "http.submit" t0 t_sub;
      let target = Printf.sprintf "/v1/queries/%d" index in
      let rec poll n =
        let p0 = Common.now () in
        let resp = S.Client.request conn ~meth:"GET" ~target () in
        let p1 = Common.now () in
        span index "http.poll" p0 p1;
        match resp with
        | Error m -> failed ~index ~polls:n ("poll: " ^ m)
        | Ok r when r.H.status <> 200 -> failed ~index ~polls:n (Printf.sprintf "poll answered %d" r.H.status)
        | Ok r -> (
            let j = J.of_string r.H.resp_body in
            match J.member "status" j with
            | J.String "pending" ->
                Unix.sleepf poll_interval;
                span index "client.poll_wait" p1 (Common.now ());
                poll (n + 1)
            | _ -> { index; query; t0; t1 = p1; polls = n; record = Ok j })
      in
      poll 1

(* Set-up: service, front door and connections up, and the plan cache
   warmed with one query of each kind. *)
let setup ~seed ~traced ~mix =
  let d = start ~seed ~traced in
  let conn = connect d in
  let warm =
    Array.to_list
      (Array.map
         (fun q ->
           match run_query ~tid:0 conn q with
           | { record = Ok _; _ } as op -> op
           | { record = Error m; _ } -> failwith ("serve_http: warm-up " ^ q ^ ": " ^ m))
         mix)
  in
  (d, conn, warm)

let ms x = x *. 1000.0

let record_exn d i =
  match S.Service.record d.svc i with Some r -> r | None -> failwith (Printf.sprintf "serve_http: no record %d" i)

let sum_labeled reg name =
  List.fold_left
    (fun acc k -> acc +. Option.value (O.Metrics.value_at reg ~labels:[ ("committee", k) ] name) ~default:0.0)
    0.0
    (O.Metrics.label_values reg name ~label:"committee")

(* Critical-path attribution of one query's client-observed latency: each
   instant goes to the most specific server span of that submission, else
   to the executor working on other submissions, else to the client's own
   HTTP requests. Poll sleeps are not attributed: the residual is the time
   no layer accounts for. *)
let attribution spans ~op:(index, t0, t1) =
  Spans.attribute spans ~window:(t0, t1) ~label:(fun (s : Spans.span) ->
      let server = s.Spans.tid >= 2000 in
      match (s.Spans.op = index, server, s.Spans.name) with
      | true, false, ("http.submit" | "http.poll") -> Some (1, "client http request")
      | _, false, _ -> None
      | false, true, ("drain" | "admit") when s.Spans.op = -1 -> Some (2, "service." ^ s.Spans.name)
      | false, true, _ -> Some (3, "executor busy: other submissions")
      | true, true, "execute" -> Some (4, "service.execute")
      | true, true, "exec" -> Some (5, "runtime.exec")
      | true, true, name -> Some (6, "runtime." ^ name))

(* The breakdown of the median-latency query, its unattributed share, and
   the residual share over every query of the pass. *)
let attribution_report spans ops =
  let rows =
    List.sort
      (fun (a, _, _) (b, _, _) -> Float.compare (a.t1 -. a.t0) (b.t1 -. b.t0))
      (List.map
         (fun o ->
           let parts, residual = attribution spans ~op:(o.index, o.t0, o.t1) in
           (o, parts, residual))
         ops)
  in
  match List.nth_opt rows (List.length rows / 2) with
  | None -> ([], 0.0)
  | Some (o, parts, residual) ->
      let lat = o.t1 -. o.t0 in
      let line label s = Printf.sprintf "  %-36s %9.2f ms %6.1f%%" label (ms s) (100.0 *. s /. lat) in
      let shares = List.map (fun (o, _, r) -> 100.0 *. r /. (o.t1 -. o.t0)) rows in
      ( (Printf.sprintf "serve_http: submission %d (%s), the median-latency query, %.2f ms client-observed:" o.index
           o.query (ms lat)
        :: List.map (fun (l, s) -> line l s) (List.sort (fun (_, a) (_, b) -> Float.compare b a) parts))
        @ [
            line "unattributed residual" residual;
            Printf.sprintf "  unattributed residual over all %d queries: median %.1f%%, max %.1f%%" (List.length rows)
              (Common.median shares)
              (List.fold_left Float.max 0.0 shares);
          ],
        residual /. lat )

let run (opts : Common.opts) ~traced ~setups ~rss_at =
  let mix = mix ~seed:opts.Common.seed in
  let setup_times = ref [] in
  let rec set_up k =
    let (d, conn, warm), dt = Common.time (fun () -> setup ~seed:opts.Common.seed ~traced ~mix) in
    setup_times := dt :: !setup_times;
    if k <= 1 then (d, conn, warm)
    else begin
      S.Client.close conn;
      stop d;
      set_up (k - 1)
    end
  in
  let d, conn, warm = set_up setups in
  let spans = if traced then Some (Spans.create ()) else None in
  (* ---- the measured closed loop, on one connection: execution is serial
     on the certificate chain, so a second analyst would add time spent
     waiting behind the other's query, not throughput, and its polling
     would take CPU from the executor on a small host ---- *)
  let rounds = Common.rounds ~round ~min:rss_at ~cap:(max_ops - round) ~seconds:opts.Common.seconds in
  let rss = ref nan in
  let start = Common.now () in
  let rec loop acc =
    match Common.next_op rounds with
    | None -> List.rev acc
    | Some i ->
        let op = run_query ?spans ~tid:1000 conn mix.(i mod round) in
        if i + 1 = rss_at then rss := Common.peak_rss_mb ();
        loop (op :: acc)
  in
  let ops = loop [] in
  let socket_records =
    match S.Client.request conn ~meth:"GET" ~target:"/v1/records" () with
    | Ok r when r.H.status = 200 ->
        (* JSON responses end with a newline; the records are the rest. *)
        let b = r.H.resp_body in
        Ok (if String.ends_with ~suffix:"\n" b then String.sub b 0 (String.length b - 1) else b)
    | Ok r -> Error (Printf.sprintf "GET /v1/records answered %d" r.H.status)
    | Error m -> Error m
  in
  S.Client.close conn;
  stop d;
  (* ---- checks, outside the timed loop ---- *)
  let ok_ops = List.filter (fun o -> Result.is_ok o.record) ops in
  let history = S.Service.history d.svc in
  let submissions = List.sort compare (List.map (fun o -> (o.index, o.query)) (warm @ ok_ops)) in
  let regenerated, inproc_gc =
    let svc = S.Service.create ~budget ~devices ~seed:opts.Common.seed () in
    List.iter (fun (_, q) -> ignore (S.Service.submit svc (submission q))) submissions;
    let g0 = Common.gc_now () in
    let recs = S.Service.drain svc in
    (recs, (g0, Common.gc_now ()))
  in
  let polled_match =
    Checks.all
      (fun o ->
        match o.record with
        | Ok j when String.equal (J.to_string j) (J.to_string (S.Lifecycle.to_json ~timings:true (record_exn d o.index)))
          ->
            Ok ()
        | Ok _ -> Error (Printf.sprintf "submission %d: polled record differs from the service's" o.index)
        | Error _ -> Ok ())
      ops
  in
  let checks =
    [
      ("every record executed, outputs in their domains", Checks.check_records history);
      ("certificate chain verifies", if S.Service.chain_verifies d.svc then Ok () else Error "chain does not verify");
      ( "remaining budget = initial - record costs",
        Checks.check_budget ~initial:budget ~remaining:(S.Service.budget_left d.svc) history );
      ("polled records are the service's records", polled_match);
      ( "socket records == fresh in-process run",
        Result.bind socket_records (fun socket ->
            Checks.check_canonical ~socket ~in_process:(S.Lifecycle.records_to_string regenerated)) );
    ]
  in
  (* ---- end-to-end metrics ---- *)
  let measured = List.map (fun o -> record_exn d o.index) ok_ops in
  let exec_s = List.fold_left (fun a (r : S.Lifecycle.record) -> a +. r.S.Lifecycle.timings.S.Lifecycle.exec_s) 0.0 measured in
  let latencies = List.map (fun o -> ms (o.t1 -. o.t0)) ok_ops in
  let executed_total = float_of_int (List.length history) in
  let upload =
    match O.Metrics.value_at d.registry "arb_runtime_device_upload_bytes" with
    | Some b -> b /. (executed_total *. float_of_int devices)
    | None -> failwith "serve_http: arb_runtime_device_upload_bytes missing from the registry"
  in
  let e2e =
    [
      ("ops_per_s", Stats.windowed_rate ~start ~per:round (List.map (fun o -> o.t1) ok_ops), "op/s");
      ("p50_ms", Common.percentile latencies 50.0, "ms");
      ("p90_ms", Common.percentile latencies 90.0, "ms");
      ("setup_s", Common.median !setup_times, "s");
      ("peak_rss_mb", !rss, "MB");
      ("devices_per_s", float_of_int (List.length measured * devices) /. exec_s, "dev/s");
      ("upload_bytes_per_device", upload, "B");
    ]
  in
  (* ---- per-layer metrics and spans (traced passes) ---- *)
  let layers, all_spans =
    match spans with
    | None -> ([], [])
    | Some sp ->
        let import (base, tr) ~tid_base ~op_of = Spans.import sp ~base ~tid_base ~op_of tr in
        Option.iter
          (import ~tid_base:2000 ~op_of:(fun name args _ ->
               match (name, List.assoc_opt "index" args) with "execute", Some (J.Int i) -> i | _ -> -1))
          d.drain_tracer;
        let executes =
          List.filter_map
            (fun (s : Spans.span) -> if s.Spans.name = "execute" then Some (s.Spans.t0, s.Spans.t1, s.Spans.op) else None)
            (Spans.spans sp)
        in
        Option.iter
          (import ~tid_base:3000 ~op_of:(fun _ _ t0 ->
               match List.find_opt (fun (a, b, _) -> a <= t0 && t0 <= b) executes with Some (_, _, i) -> i | None -> -1))
          d.exec_tracer;
        let all = Spans.spans sp in
        let execs = float_of_int (max 1 (Spans.count_of all "exec")) in
        let per_exec name = ms (Spans.total_of all name) /. execs in
        let med f = Common.median (List.map f measured) in
        let timing f (r : S.Lifecycle.record) = ms (f r.S.Lifecycle.timings) in
        let overheads =
          List.map
            (fun o ->
              let t = (record_exn d o.index).S.Lifecycle.timings in
              ms (o.t1 -. o.t0 -. t.S.Lifecycle.admit_s -. t.S.Lifecycle.plan_s -. t.S.Lifecycle.exec_s))
            ok_ops
        in
        let inproc =
          List.filter_map
            (fun (r : S.Lifecycle.record) ->
              if r.S.Lifecycle.index >= round then Some (ms r.S.Lifecycle.timings.S.Lifecycle.exec_s) else None)
            regenerated
        in
        let g0, g1 = inproc_gc in
        ( [
            ("service.http_overhead_ms", Common.median overheads, "ms");
            ( "service.polls_per_query",
              float_of_int (List.fold_left (fun a o -> a + o.polls) 0 ok_ops) /. float_of_int (List.length ok_ops),
              "count" );
            ("service.admit_ms", med (timing (fun t -> t.S.Lifecycle.admit_s)), "ms");
            ("service.exec_ms", med (timing (fun t -> t.S.Lifecycle.exec_s)), "ms");
            ( "service.cache_hit_ratio",
              float_of_int (List.length (List.filter (fun (r : S.Lifecycle.record) -> r.S.Lifecycle.cache_hit) measured))
              /. float_of_int (List.length measured),
              "ratio" );
            ("runtime.exec_inproc_ms", Common.median inproc, "ms");
            ("runtime.keygen_ms", per_exec "keygen", "ms");
            ("runtime.decrypt_ms", per_exec "decrypt", "ms");
            ("runtime.vsr_handoff_ms", per_exec "vsr-handoff", "ms");
            ("runtime.interpret_ms", per_exec "interpret", "ms");
            ("mpc.rounds_per_query", sum_labeled d.registry "arb_runtime_mpc_rounds" /. executed_total, "count");
            ("mpc.bytes_per_member", sum_labeled d.registry "arb_runtime_mpc_bytes_per_party" /. executed_total, "B");
          ]
          @ Common.gc_layers ~ops:(List.length regenerated) g0 g1,
          all )
  in
  let report, checks =
    if not traced then ([], checks)
    else
      let lines, residual = attribution_report all_spans ok_ops in
      ( lines,
        checks
        @ [
            ( "layer spans account for the median query's latency (residual <= 10%)",
              if residual <= 0.10 then Ok () else Error (Printf.sprintf "%.1f%% unattributed" (100.0 *. residual)) );
          ] )
  in
  { Common.attempted = List.length ops; failed = List.length ops - List.length ok_ops; checks; e2e; layers; spans = all_spans; report }

