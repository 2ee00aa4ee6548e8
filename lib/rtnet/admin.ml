(* Rendering for the admin endpoint: the runtime's telemetry snapshot
   plus the server's per-shard counters, as Prometheus text exposition
   (/metrics) and a full structured snapshot (/stats.json).

   Pure data-in, string-out — [Server] builds the [net] view from its
   counters and calls these; nothing here touches sockets, so the
   formats are unit-testable without a running server. *)

type net_shard = {
  ns_id : int;
  ns_conns_open : int;  (** accepted - closed, racy-read consistent *)
  ns_accepted : int;
  ns_refused : int;
  ns_closed : int;
  ns_failed : int;
  ns_evicted : int;  (** wheel evictions: 408 / idle / write-stall *)
  ns_parsed : int;
  ns_served : int;
  ns_req_failed : int;
  ns_malformed : int;
  ns_too_large : int;
  ns_shed : int;
  ns_inj_refused : int;
  ns_accept_errors : int;
  ns_accept_backoffs : int;
}

type net = {
  n_backend : string;
  n_port : int;
  n_admin_port : int;
  n_live : int;
  n_draining : bool;
  n_faults_injected : int;
  n_shards : net_shard array;
}

let ilbl i = string_of_int i

(* ---------------------------------------------------------------- *)
(* GET /metrics — Prometheus text exposition 0.0.4. *)

let metrics_text (rt : Rt.Telemetry.snapshot) (net : net) =
  let p = Mstd.Prometheus.create () in
  let counter = Mstd.Prometheus.counter p in
  let gauge = Mstd.Prometheus.gauge p in
  (* Runtime globals. *)
  counter ~name:"mely_runtime_executed_total" ~help:"Events executed" rt.s_executed;
  counter ~name:"mely_runtime_steals_total" ~help:"Color-queues stolen" rt.s_steals;
  counter ~name:"mely_runtime_steal_attempts_total" ~help:"Steal rounds attempted"
    rt.s_steal_attempts;
  counter ~name:"mely_runtime_refused_total"
    ~help:"Registers refused by the shutdown gate" rt.s_refused;
  counter ~name:"mely_runtime_errors_total" ~help:"Handler invocations that raised"
    rt.s_errors;
  gauge ~name:"mely_runtime_pending" ~help:"Accepted events not yet executed"
    (float_of_int rt.s_pending);
  gauge ~name:"mely_runtime_active" ~help:"Events executing right now"
    (float_of_int rt.s_active);
  gauge ~name:"mely_runtime_accepting"
    ~help:"1 while the shutdown gate accepts registers, 0 once draining"
    (if rt.s_accepting then 1.0 else 0.0);
  (* Self-healing plane. *)
  gauge ~name:"mely_runtime_live_workers"
    ~help:"Worker slots with a running domain" (float_of_int rt.s_live_workers);
  gauge ~name:"mely_runtime_degraded"
    ~help:"1 once any worker slot is terminally lost (breaker tripped or wedged \
           domain confiscated)"
    (if rt.s_degraded then 1.0 else 0.0);
  counter ~name:"mely_runtime_restarts_total"
    ~help:"Worker-domain respawns by the supervisor" rt.s_restarts;
  counter ~name:"mely_runtime_migrations_total"
    ~help:"Color-queues re-homed off failed workers" rt.s_migrations;
  counter ~name:"mely_runtime_reclaimed_colors_total"
    ~help:"Color-queues swept from failed slots" rt.s_reclaimed;
  counter ~name:"mely_runtime_abandoned_total"
    ~help:"Accepted events dropped when a wedged slot was confiscated"
    rt.s_abandoned;
  gauge ~name:"mely_telemetry_epoch" ~help:"Streaming-window epoch"
    (float_of_int rt.s_epoch);
  gauge ~name:"mely_runtime_worthy_threshold"
    ~help:"Steal-worthiness bar in force (weighted declared cycles)"
    (float_of_int rt.s_worthy_threshold);
  gauge ~name:"mely_runtime_steal_batch"
    ~help:"Batch steal policy in force: 1=one, 2=two, 3=half"
    (match rt.s_steal_policy with
    | Rt.Policy.Steal_one -> 1.0
    | Rt.Policy.Steal_two -> 2.0
    | Rt.Policy.Steal_half -> 3.0);
  (match rt.s_controller with
  | None -> ()
  | Some c ->
    counter ~name:"mely_controller_ticks_total"
      ~help:"Telemetry windows consumed by the steal controller"
      c.Rt.Policy.Controller.cs_ticks;
    counter ~name:"mely_controller_escalations_total"
      ~help:"Controller moves up the policy lattice" c.cs_escalations;
    counter ~name:"mely_controller_deescalations_total"
      ~help:"Controller moves down the policy lattice" c.cs_deescalations;
    gauge ~name:"mely_controller_pressure"
      ~help:"Signed same-direction window streak" (float_of_int c.cs_pressure);
    gauge ~name:"mely_controller_last_qwait_p99_ns"
      ~help:"Queue-wait p99 of the last consumed window" c.cs_last_p99_ns);
  (* Per-worker series. *)
  Array.iter
    (fun (w : Rt.Telemetry.worker_snap) ->
      let labels = [ ("worker", ilbl w.w_id) ] in
      counter ~name:"mely_worker_executed_total" ~help:"Events executed by worker"
        ~labels w.w_executed;
      counter ~name:"mely_worker_enqueued_total"
        ~help:"Events enqueued onto worker's queues" ~labels w.w_enqueued;
      counter ~name:"mely_worker_steals_in_total" ~help:"Color-queues worker stole"
        ~labels w.w_steals_in;
      counter ~name:"mely_worker_steals_out_total"
        ~help:"Color-queues stolen from worker" ~labels w.w_steals_out;
      counter ~name:"mely_worker_failed_steal_rounds_total"
        ~help:"Steal rounds that found no victim" ~labels w.w_failed_rounds;
      counter ~name:"mely_worker_victim_visits_total"
        ~help:"Victims probed across steal rounds" ~labels w.w_visits;
      counter ~name:"mely_worker_parks_total" ~help:"Times worker parked idle"
        ~labels w.w_parks;
      counter ~name:"mely_worker_errors_total" ~help:"Handler failures on worker"
        ~labels w.w_errors;
      counter ~name:"mely_worker_sheds_total" ~help:"503 load sheds by worker"
        ~labels w.w_sheds;
      counter ~name:"mely_worker_evictions_total"
        ~help:"Deadline evictions carried out by worker" ~labels w.w_evictions;
      gauge ~name:"mely_worker_park_seconds_total"
        ~help:"Wall-clock seconds spent parked" ~labels
        (float_of_int w.w_park_ns /. 1e9);
      gauge ~name:"mely_worker_parked" ~help:"1 while parked on the idle condition"
        ~labels (if w.w_parked then 1.0 else 0.0);
      gauge ~name:"mely_worker_inbox_depth"
        ~help:"Colors currently chained to worker" ~labels
        (float_of_int w.w_inbox_depth);
      gauge ~name:"mely_worker_live" ~help:"1 while a domain runs this slot"
        ~labels
        (if w.w_live then 1.0 else 0.0);
      gauge ~name:"mely_worker_heartbeat_age_seconds"
        ~help:"Seconds since the slot's last event-boundary heartbeat" ~labels
        (float_of_int w.w_hb_age_ns /. 1e9);
      gauge ~name:"mely_worker_inflight_seconds"
        ~help:"Seconds the current handler has been executing (0 when idle)"
        ~labels
        (float_of_int w.w_busy_ns /. 1e9);
      counter ~name:"mely_worker_restarts_total"
        ~help:"Times this slot's domain was respawned" ~labels w.w_restarts;
      gauge ~name:"mely_worker_busy_seconds_total"
        ~help:"Seconds spent executing handlers" ~labels
        (float_of_int w.w_service_sum_ns /. 1e9);
      (* Spot quantiles so a bare curl shows the tails without a
         Prometheus server doing histogram_quantile. *)
      gauge ~name:"mely_worker_queue_wait_p50_ns"
        ~help:"Cumulative queue-wait p50 (bucket upper bound)" ~labels
        (Mstd.Histogram.quantile w.w_qwait 0.5);
      gauge ~name:"mely_worker_queue_wait_p99_ns"
        ~help:"Cumulative queue-wait p99 (bucket upper bound)" ~labels
        (Mstd.Histogram.quantile w.w_qwait 0.99);
      Mstd.Prometheus.histogram p ~name:"mely_worker_queue_wait_ns"
        ~help:"Enqueue-to-start wait per event, ns" ~labels w.w_qwait;
      Mstd.Prometheus.histogram_sum p ~name:"mely_worker_queue_wait_ns" ~labels
        (float_of_int w.w_qwait_sum_ns);
      Mstd.Prometheus.histogram p ~name:"mely_worker_service_ns"
        ~help:"Handler service time per event, ns" ~labels w.w_service;
      Mstd.Prometheus.histogram_sum p ~name:"mely_worker_service_ns" ~labels
        (float_of_int w.w_service_sum_ns);
      (* Steal matrix: only non-zero cells, the matrix is sparse. *)
      Array.iteri
        (fun victim n ->
          if n > 0 then
            counter ~name:"mely_steals_won_total"
              ~help:"Won steals by thief from victim"
              ~labels:[ ("thief", ilbl w.w_id); ("victim", ilbl victim) ]
              n)
        w.w_steals_from)
    rt.s_workers;
  (* Net front end. *)
  gauge ~name:"mely_net_live_conns" ~help:"Connections accepted and not yet closed"
    (float_of_int net.n_live);
  gauge ~name:"mely_net_draining" ~help:"1 while the server drains"
    (if net.n_draining then 1.0 else 0.0);
  counter ~name:"mely_net_faults_injected_total"
    ~help:"Syscall faults injected by the fault plane" net.n_faults_injected;
  Array.iter
    (fun s ->
      let labels = [ ("shard", ilbl s.ns_id) ] in
      gauge ~name:"mely_net_shard_conns_open" ~help:"Open connections on shard"
        ~labels (float_of_int s.ns_conns_open);
      counter ~name:"mely_net_shard_conns_accepted_total"
        ~help:"Connections accepted" ~labels s.ns_accepted;
      counter ~name:"mely_net_shard_conns_refused_total"
        ~help:"Connections refused while draining" ~labels s.ns_refused;
      counter ~name:"mely_net_shard_conns_closed_total" ~help:"Connections closed"
        ~labels s.ns_closed;
      counter ~name:"mely_net_shard_conns_failed_total"
        ~help:"Connections dropped on error" ~labels s.ns_failed;
      counter ~name:"mely_net_shard_wheel_evictions_total"
        ~help:"Deadline evictions (slow-loris 408, idle, write stall)" ~labels
        s.ns_evicted;
      counter ~name:"mely_net_shard_reqs_parsed_total" ~help:"Requests parsed"
        ~labels s.ns_parsed;
      counter ~name:"mely_net_shard_reqs_served_total" ~help:"Responses served"
        ~labels s.ns_served;
      counter ~name:"mely_net_shard_reqs_failed_total"
        ~help:"Requests failed (500 or dead conn)" ~labels s.ns_req_failed;
      counter ~name:"mely_net_shard_reqs_shed_total"
        ~help:"Requests shed under overload (503)" ~labels s.ns_shed;
      counter ~name:"mely_net_shard_reqs_malformed_total"
        ~help:"Requests rejected as malformed (400)" ~labels s.ns_malformed;
      counter ~name:"mely_net_shard_reqs_too_large_total"
        ~help:"Requests rejected as oversized (431)" ~labels s.ns_too_large;
      counter ~name:"mely_net_shard_injections_refused_total"
        ~help:"Poller registers refused by the runtime gate" ~labels
        s.ns_inj_refused;
      counter ~name:"mely_net_shard_accept_errors_total" ~help:"Accept failures"
        ~labels s.ns_accept_errors;
      counter ~name:"mely_net_shard_accept_backoffs_total"
        ~help:"Acceptor backoff windows entered" ~labels s.ns_accept_backoffs)
    net.n_shards;
  Mstd.Prometheus.contents p

(* ---------------------------------------------------------------- *)
(* GET /stats.json — the full snapshot, histogram buckets included. *)

let hist_json ?sum_ns h =
  let open Mstd.Json in
  let buckets =
    List.rev
      (Mstd.Histogram.fold
         (fun i c acc ->
           let lo, hi = Mstd.Histogram.bucket_range h i in
           List [ Num lo; Num hi; int c ] :: acc)
         h [])
  in
  let base =
    [
      ("count", int (Mstd.Histogram.count h));
      ("p50_ns", Num (Mstd.Histogram.quantile h 0.5));
      ("p90_ns", Num (Mstd.Histogram.quantile h 0.9));
      ("p99_ns", Num (Mstd.Histogram.quantile h 0.99));
      ("buckets", List buckets);
    ]
  in
  Obj (match sum_ns with None -> base | Some s -> ("sum_ns", int s) :: base)

let worker_json (w : Rt.Telemetry.worker_snap) =
  let open Mstd.Json in
  Obj
    [
      ("id", int w.w_id);
      ("executed", int w.w_executed);
      ("enqueued", int w.w_enqueued);
      ("steals_in", int w.w_steals_in);
      ("steals_out", int w.w_steals_out);
      ("failed_steal_rounds", int w.w_failed_rounds);
      ("victim_visits", int w.w_visits);
      ("parks", int w.w_parks);
      ("park_seconds", Num (float_of_int w.w_park_ns /. 1e9));
      ("parked", Bool w.w_parked);
      ("queue_hwm", int w.w_queue_hwm);
      ("errors", int w.w_errors);
      ("sheds", int w.w_sheds);
      ("evictions", int w.w_evictions);
      ("inbox_depth", int w.w_inbox_depth);
      ("current_color", int w.w_current_color);
      ("busy_ns", int w.w_service_sum_ns);
      ("live", Bool w.w_live);
      ("phase", Str (Rt.Supervision.phase_name w.w_phase));
      ("heartbeat_age_ns", int w.w_hb_age_ns);
      ("inflight_ns", int w.w_busy_ns);
      ("restarts", int w.w_restarts);
      ("queue_wait", hist_json ~sum_ns:w.w_qwait_sum_ns w.w_qwait);
      ("queue_wait_window", hist_json w.w_qwait_win);
      ("service", hist_json ~sum_ns:w.w_service_sum_ns w.w_service);
      ("service_window", hist_json w.w_service_win);
      ("steals_from", List (Array.to_list (Array.map int w.w_steals_from)));
    ]

let shard_json s =
  let open Mstd.Json in
  Obj
    [
      ("id", int s.ns_id);
      ("conns_open", int s.ns_conns_open);
      ("accepted", int s.ns_accepted);
      ("refused", int s.ns_refused);
      ("closed", int s.ns_closed);
      ("failed", int s.ns_failed);
      ("evicted", int s.ns_evicted);
      ("parsed", int s.ns_parsed);
      ("served", int s.ns_served);
      ("req_failed", int s.ns_req_failed);
      ("malformed", int s.ns_malformed);
      ("too_large", int s.ns_too_large);
      ("shed", int s.ns_shed);
      ("inj_refused", int s.ns_inj_refused);
      ("accept_errors", int s.ns_accept_errors);
      ("accept_backoffs", int s.ns_accept_backoffs);
    ]

let stats_json (rt : Rt.Telemetry.snapshot) (net : net) =
  let open Mstd.Json in
  to_string
    (Obj
       [
         ("epoch", int rt.s_epoch);
         ( "runtime",
           Obj
             [
               ("workers", int (Array.length rt.s_workers));
               ("executed", int rt.s_executed);
               ("pending", int rt.s_pending);
               ("active", int rt.s_active);
               ("steals", int rt.s_steals);
               ("steal_attempts", int rt.s_steal_attempts);
               ("refused", int rt.s_refused);
               ("errors", int rt.s_errors);
               ("serving", Bool rt.s_serving);
               ("accepting", Bool rt.s_accepting);
               ("steal_policy", Str (Rt.Policy.batch_to_string rt.s_steal_policy));
               ("worthy_threshold", int rt.s_worthy_threshold);
               ("live_workers", int rt.s_live_workers);
               ("degraded", Bool rt.s_degraded);
               ("restarts", int rt.s_restarts);
               ("migrations", int rt.s_migrations);
               ("reclaimed", int rt.s_reclaimed);
               ("abandoned", int rt.s_abandoned);
             ] );
         ( "controller",
           match rt.s_controller with
           | None -> Null
           | Some c ->
             Obj
               [
                 ( "batch",
                   Str (Rt.Policy.batch_to_string c.Rt.Policy.Controller.cs_batch)
                 );
                 ("threshold", int c.cs_threshold);
                 ("ticks", int c.cs_ticks);
                 ("escalations", int c.cs_escalations);
                 ("deescalations", int c.cs_deescalations);
                 ("pressure", int c.cs_pressure);
                 ("last_qwait_p99_ns", Num c.cs_last_p99_ns);
               ] );
         ("workers", List (Array.to_list (Array.map worker_json rt.s_workers)));
         ( "net",
           Obj
             [
               ("backend", Str net.n_backend);
               ("port", int net.n_port);
               ("admin_port", int net.n_admin_port);
               ("live", int net.n_live);
               ("draining", Bool net.n_draining);
               ("faults_injected", int net.n_faults_injected);
               ("shards", List (Array.to_list (Array.map shard_json net.n_shards)));
             ] );
       ])
