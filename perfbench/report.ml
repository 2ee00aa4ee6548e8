(* What the measured windows of one run yield, and the metrics derived
   from them: the end-to-end set (tracing off) and the per-layer set
   (traced windows). A run measures several short windows, each on a
   freshly set-up runtime, and pools them: the windows of one run follow
   the host's drift (README.md, "Noise, spread and bounds"), and pooling
   averages over them. *)

(* Span statistics of the traced windows, aggregated op by op so only
   the durations and self times survive, not the spans. The first
   [keep_ops] ops are written out as TSV: req, index, name, start, end,
   parent. *)
type agg = {
  durs : (string, Quantile.t) Hashtbl.t;
  selfs : (string, Quantile.t) Hashtbl.t;
  mutable ops : int;
  mutable root_ns : int;
  mutable self_ns : int;
  mutable broken : string option;
  out : out_channel;
}

let keep_ops = 2000

let agg_create path =
  {
    durs = Hashtbl.create 16;
    selfs = Hashtbl.create 16;
    ops = 0;
    root_ns = 0;
    self_ns = 0;
    broken = None;
    out = open_out path;
  }

let buf tbl name =
  match Hashtbl.find_opt tbl name with
  | Some b -> b
  | None ->
    let b = Quantile.create () in
    Hashtbl.replace tbl name b;
    b

let agg_add agg req (spans : Span.t array) =
  match Span.check spans with
  | Error e -> if agg.broken = None then agg.broken <- Some (Printf.sprintf "op %d: %s" req e)
  | Ok () ->
    let selfs = Span.self_times spans in
    Array.iteri
      (fun i (s : Span.t) ->
        Quantile.add (buf agg.durs s.name) (Span.dur s);
        Quantile.add (buf agg.selfs s.name) selfs.(i);
        agg.self_ns <- agg.self_ns + selfs.(i);
        if agg.ops < keep_ops then
          Printf.fprintf agg.out "%d\t%d\t%s\t%d\t%d\t%d\n" req i s.name s.start s.stop
            s.parent)
      spans;
    agg.ops <- agg.ops + 1;
    agg.root_ns <- agg.root_ns + Span.dur spans.(0)

(* The distribution of the named spans, pooled. *)
let pooled tbl names =
  let h = Quantile.create () in
  List.iter (fun n -> Option.iter (Quantile.merge ~into:h) (Hashtbl.find_opt tbl n)) names;
  h

let p_us tbl names p =
  let h = pooled tbl names in
  if Quantile.count h = 0 then 0. else Quantile.percentile h p /. 1e3

(* One measured window; its op latencies go to the run's distribution. *)
type window = {
  secs : float;  (** from the window's start to the last injection *)
  attempted : int;
  ok : int;
  before : Probe.snap;
  after : Probe.snap;
  inject_ns : int;  (** time inside [try_register_batch] (0 on web) *)
  injected : int;  (** events passed to [try_register_batch] *)
  net : (int * int * int) option;
      (** web only: requests served, read buffers allocated, reused *)
}

let total ws f = List.fold_left (fun acc w -> acc +. f w) 0. ws
let ok ws = total ws (fun w -> float_of_int w.ok)
let ops_per_s ws = ok ws /. total ws (fun w -> w.secs)

(* Sum over the windows of a counter's growth. *)
let delta ws f = total ws (fun w -> f w.after -. f w.before)
let idelta ws f = delta ws (fun s -> float_of_int (f s))
let family ws name = delta ws (fun s -> Prom_text.sum s.Probe.prom name)

type metric = string * float * string

let end_to_end ws lat ~setup_s : metric list =
  let attempted = total ws (fun w -> float_of_int w.attempted) in
  [
    ("ops_per_s", ops_per_s ws, "1/s");
    ("lat_p50_us", Quantile.percentile lat 50. /. 1e3, "us");
    ("lat_p90_us", Quantile.percentile lat 90. /. 1e3, "us");
    ("ok_frac", Quantile.ratio (ok ws) attempted, "fraction");
    ("cpu_us_per_op", Quantile.ratio (delta ws (fun s -> s.Probe.cpu) *. 1e6) (ok ws), "us");
    ("mem_peak_mb", List.fold_left (fun m w -> Float.max m w.after.mem_mb) 0. ws, "MB");
    ("setup_s", setup_s, "s");
  ]

(* Printed beside the metrics, never gated. *)
let diagnostics ws lat : metric list =
  [
    ("tail.lat_p99_us", Quantile.percentile lat 99. /. 1e3, "us");
    ("lat_samples", float_of_int (Quantile.count lat), "count");
    ("gc.minor_collections", idelta ws (fun s -> s.Probe.minor_gcs), "count");
    ("gc.major_collections", idelta ws (fun s -> s.Probe.major_gcs), "count");
    ( "host.steal_frac",
      Quantile.ratio (idelta ws (fun s -> fst s.Probe.host)) (idelta ws (fun s -> snd s.Probe.host)),
      "fraction" );
  ]
  @ List.mapi
      (fun i w -> (Printf.sprintf "window.%d_ops_per_s" i, float_of_int w.ok /. w.secs, "1/s"))
      ws

(* Growth of one labelled family per label, summed over the windows. *)
let per_label ws name =
  List.fold_left
    (fun acc w ->
      List.fold_left
        (fun acc (l, v) ->
          (l, v +. Option.value ~default:0. (List.assoc_opt l acc)) :: List.remove_assoc l acc)
        acc
        (Prom_text.deltas ~before:w.before.prom ~after:w.after.prom name))
    [] ws

let per_layer ws agg ~workers ~untraced_ops_per_s : metric list =
  let ops = ok ws in
  let secs = total ws (fun w -> w.secs) in
  let balance =
    match List.map snd (per_label ws "mely_worker_executed_total") with
    | [] -> 0.
    | x :: rest -> Quantile.ratio (List.fold_left min x rest) (List.fold_left max x rest)
  in
  let events = idelta ws (fun s -> s.Probe.executed) in
  let steals = idelta ws (fun s -> s.Probe.steals) in
  let handler_names = [ "handler"; "app" ] in
  let handler_ns_per_op =
    Quantile.ratio (pooled agg.selfs handler_names).Quantile.sum (float_of_int agg.ops)
  in
  let net f = total ws (fun w -> match w.net with Some n -> float_of_int (f n) | None -> 0.) in
  let reqs = net (fun (r, _, _) -> r)
  and alloc = net (fun (_, a, _) -> a)
  and reuse = net (fun (_, _, u) -> u) in
  let busy_window = float_of_int workers *. secs in
  [
    ("steal.per_kop", Quantile.per_kop steals ops, "1/kop");
    ( "steal.success_ratio",
      Quantile.ratio steals (idelta ws (fun s -> s.Probe.steal_attempts)),
      "fraction" );
    ("steal.visits_per_kop", Quantile.per_kop (family ws "mely_worker_victim_visits_total") ops, "1/kop");
    ( "steal.failed_rounds_per_kop",
      Quantile.per_kop (family ws "mely_worker_failed_steal_rounds_total") ops,
      "1/kop" );
    ("rt.balance", balance, "fraction");
    ( "rt.overhead_ns_per_event",
      Quantile.ratio ((delta ws (fun s -> s.Probe.cpu) *. 1e9) -. (handler_ns_per_op *. ops)) events,
      "ns" );
    ( "rt.inject_ns_per_event",
      Quantile.ratio
        (total ws (fun w -> float_of_int w.inject_ns))
        (total ws (fun w -> float_of_int w.injected)),
      "ns" );
    ("gc.minor_words_per_op", Quantile.ratio (delta ws (fun s -> s.Probe.minor_words)) ops, "words/op");
    ("gc.minor_gcs_per_kop", Quantile.per_kop (idelta ws (fun s -> s.Probe.minor_gcs)) ops, "1/kop");
    ("rt.qwait_us_p50", p_us agg.durs [ "rt.qwait"; "rt.hop" ] 50., "us");
    ("rt.qwait_us_p90", p_us agg.durs [ "rt.qwait"; "rt.hop" ] 90., "us");
    ("rt.hop_us_p50", p_us agg.durs [ "rt.hop" ] 50., "us");
    ("rt.parks_per_kop", Quantile.per_kop (family ws "mely_worker_parks_total") ops, "1/kop");
    ("rt.park_frac", Quantile.ratio (family ws "mely_worker_park_seconds_total") busy_window, "fraction");
    ("rt.busy_frac", Quantile.ratio (family ws "mely_worker_busy_seconds_total") busy_window, "fraction");
    ("net.to_app_us_p50", p_us agg.durs [ "net.to_app" ] 50., "us");
    ("net.from_app_us_p50", p_us agg.durs [ "net.from_app" ] 50., "us");
    ("net.events_per_req", (if reqs > 0. then Quantile.ratio events reqs else 0.), "events/req");
    ("net.bufpool_reuse_ratio", Quantile.ratio reuse (alloc +. reuse), "fraction");
    ("handler.self_us_p50", p_us agg.selfs handler_names 50., "us");
    ("net.app_us_p50", p_us agg.durs [ "app" ] 50., "us");
    ("trace.overhead_frac", 1. -. Quantile.ratio (ops_per_s ws) untraced_ops_per_s, "fraction");
  ]

(* Mean self time per op of every span name, in us: the layer budget
   of one op. The rows add up to the mean root duration. *)
let self_table agg =
  Hashtbl.fold
    (fun name h acc -> (name, h.Quantile.sum /. float_of_int (max 1 agg.ops) /. 1e3) :: acc)
    agg.selfs []
  |> List.sort compare
