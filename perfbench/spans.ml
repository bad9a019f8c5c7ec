(* The benchmark's span store for traced runs.

   Spans are kept in memory: the benchmark records its own around the calls
   it makes into each layer, and imports the spans of the program's own
   tracer hooks (a [Monotonic] Arb_obs.Tracer, whose timestamps count from
   the tracer's creation). At the end they are written as Chrome trace JSON,
   and folded into a per-layer table of counts and self time. Spans of one
   operation share its id [op]; [-1] marks spans shared by several. *)

module J = Arb_util.Json

type span = { op : int; name : string; tid : int; t0 : float; t1 : float }

type t = { lock : Mutex.t; mutable spans : span list }

let create () = { lock = Mutex.create (); spans = [] }
let add t s = Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)
let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)

let record t ~op ~tid name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add t { op; name; tid; t0; t1 = Unix.gettimeofday () }) f

(* A program tracer created at wall-clock time [base]: its complete events
   become spans on [tid_base + tid], and [op_of name args t0] names the
   operation each belongs to. *)
let import t ~base ~tid_base ~op_of tracer =
  List.iter
    (fun ev ->
      let field k = match ev with J.Obj kv -> List.assoc_opt k kv | _ -> None in
      let str k = match field k with Some (J.String s) -> s | _ -> "" in
      let num k = match field k with Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0.0 in
      if str "ph" = "X" then begin
        let t0 = base +. (num "ts" /. 1e6) in
        let name = str "name" in
        let args = match field "args" with Some (J.Obj kv) -> kv | _ -> [] in
        add t
          { op = op_of name args t0; name; tid = tid_base + int_of_float (num "tid"); t0; t1 = t0 +. (num "dur" /. 1e6) }
      end)
    (J.to_list (Arb_obs.Tracer.to_json tracer))

(* Self time: a span's duration minus the part its direct children cover.
   Nesting is by containment within one tid. *)
let self_times spans =
  let by_tid = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_tid s.tid (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[])) spans;
  let out = ref [] in
  Hashtbl.iter
    (fun _ ss ->
      let ss = List.sort (fun a b -> compare (a.t0, -.a.t1) (b.t0, -.b.t1)) ss in
      let stack = ref [] in
      let close (s, child) = out := (s, Float.max 0.0 (s.t1 -. s.t0 -. !child)) :: !out in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | (p, c) :: rest when p.t1 <= s.t0 ->
                close (p, c);
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with (p, c) :: _ -> c := !c +. (Float.min s.t1 p.t1 -. s.t0) | [] -> ());
          stack := (s, ref 0.0) :: !stack)
        ss;
      List.iter close !stack)
    by_tid;
  !out

(* Per span name: (count, total seconds, self seconds), hottest self first. *)
let layer_table spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, sf = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, tot +. (s.t1 -. s.t0), sf +. self))
    (self_times spans);
  List.sort
    (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let total_of spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0.0 spans

let count_of spans name = List.length (List.filter (fun s -> s.name = name) spans)

(* Critical-path attribution of one window [a, b]: every instant goes to
   the covering span [label] ranks highest; instants no ranked span covers
   are the unattributed residual. Returns (label, seconds) in first-seen
   order, and the residual. *)
let attribute spans ~window:(a, b) ~label =
  let ranked =
    List.filter_map
      (fun s ->
        if s.t1 <= a || s.t0 >= b then None
        else Option.map (fun (rank, l) -> (Float.max a s.t0, Float.min b s.t1, rank, l)) (label s))
      spans
  in
  let cuts =
    List.sort_uniq Float.compare (a :: b :: List.concat_map (fun (x, y, _, _) -> [ x; y ]) ranked)
  in
  let acc = ref [] and residual = ref 0.0 in
  let rec walk = function
    | x :: (y :: _ as rest) ->
        let mid = (x +. y) /. 2.0 in
        (match
           List.fold_left
             (fun best (s0, s1, rank, l) ->
               if s0 <= mid && mid < s1 then
                 match best with Some (r, _) when r >= rank -> best | _ -> Some (rank, l)
               else best)
             None ranked
         with
        | None -> residual := !residual +. (y -. x)
        | Some (_, l) -> (
            match List.assoc_opt l !acc with
            | Some r -> r := !r +. (y -. x)
            | None -> acc := (l, ref (y -. x)) :: !acc));
        walk rest
    | _ -> ()
  in
  walk cuts;
  (List.rev_map (fun (l, r) -> (l, !r)) !acc, !residual)

let to_chrome spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("name", J.String s.name);
             ("ph", J.String "X");
             ("ts", J.Float ((s.t0 -. origin) *. 1e6));
             ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
             ("pid", J.Int 1);
             ("tid", J.Int s.tid);
             ("args", J.Obj [ ("op", J.Int s.op) ]);
           ])
       spans)
