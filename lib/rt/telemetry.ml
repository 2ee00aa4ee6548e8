(* Always-on online stats plane — the runtime's one place where a fact
   is counted.

   One shard per worker, written only by the owning worker domain
   (publisher-side [enqueued]/[queue_hwm] aside): the hot-path records
   are plain stores into caches the worker already owns (no RMW, no
   lock). Runtime totals are sums over shards, never a second counter.
   Readers snapshot at any instant without stopping writers — monotone
   counters and grow-only histogram buckets make racy reads safe: a
   reader can under-observe the newest events but never sees a torn or
   decreasing value.

   Windowing: a single global epoch counter (bumped by [swap_window])
   selects which of two per-histogram buffers writers record into;
   readers take the last *closed* buffer. See {!Mstd.Histogram.Windowed}. *)

type shard = {
  qwait : Mstd.Histogram.Windowed.t;
  service : Mstd.Histogram.Windowed.t;
  steals_from : int array;
  mutable qwait_sum_ns : int;
  mutable service_sum_ns : int;
  mutable executed : int;
  mutable steal_rounds : int;
  mutable failed_rounds : int;
  mutable visits : int;
  mutable parks : int;
  mutable park_ns : int;
  mutable parked_now : bool;
  mutable errors : int;
  mutable last_error : (string * string) option;
  mutable sheds : int;
  mutable evictions : int;
  (* Written by publishers, which may be external injectors with no
     shard of their own: the only two cross-domain writes, hence the
     only two atomics. *)
  enqueued : int Atomic.t;
  queue_hwm : int Atomic.t;
}

type t = {
  epoch : int Atomic.t;
  shards : shard array;
}

(* 48 base-2 buckets cover 1 ns .. ~2^48 ns (~3 days) — every latency
   the runtime can plausibly observe. *)
let histogram_buckets = 48

let create ~workers =
  {
    (* Epoch starts at 1 so the pre-first-swap window (buffer parity 0)
       reads empty, not garbage. *)
    epoch = Atomic.make 1;
    shards =
      Array.init workers (fun _ ->
          {
            qwait = Mstd.Histogram.Windowed.create ~buckets:histogram_buckets ();
            service = Mstd.Histogram.Windowed.create ~buckets:histogram_buckets ();
            steals_from = Array.make workers 0;
            qwait_sum_ns = 0;
            service_sum_ns = 0;
            executed = 0;
            steal_rounds = 0;
            failed_rounds = 0;
            visits = 0;
            parks = 0;
            park_ns = 0;
            parked_now = false;
            errors = 0;
            last_error = None;
            sheds = 0;
            evictions = 0;
            enqueued = Atomic.make 0;
            queue_hwm = Atomic.make 0;
          });
  }

let shard t w = t.shards.(w)
let total t f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let epoch t = Atomic.get t.epoch
let swap_window t = Atomic.incr t.epoch

(* Hot path; called by worker [worker] only (single writer). *)
let on_exec t ~worker ~qwait_ns ~service_ns =
  let s = t.shards.(worker) in
  let epoch = Atomic.get t.epoch in
  Mstd.Histogram.Windowed.add s.qwait ~epoch (float_of_int qwait_ns);
  Mstd.Histogram.Windowed.add s.service ~epoch (float_of_int service_ns);
  s.qwait_sum_ns <- s.qwait_sum_ns + qwait_ns;
  s.service_sum_ns <- s.service_sum_ns + service_ns;
  s.executed <- s.executed + 1

(* Called by the thief; it writes its own matrix row, so the matrix is
   single-writer per row like everything else in the shard. [count] is
   the number of color-queues the probe won (> 1 under batch steal).
   The victim's steals-out is this matrix's column sum, so the thief
   never writes into the victim's shard. *)
let on_steal t ~thief ~victim ~count =
  let row = t.shards.(thief).steals_from in
  row.(victim) <- row.(victim) + count

let note_queue_len s len =
  let rec bump () =
    let seen = Atomic.get s.queue_hwm in
    if len > seen && not (Atomic.compare_and_set s.queue_hwm seen len) then bump ()
  in
  bump ()

(* Full-plane snapshot assembled by {!Runtime.telemetry_snapshot}: the
   runtime owns the worker states and global counters, so it fills
   these records; the types live here so consumers (rtnet admin,
   melyctl) depend on [Telemetry] alone. *)

type worker_snap = {
  w_id : int;
  w_executed : int;
  w_enqueued : int;
  w_steals_in : int;
  w_steals_out : int;
  w_steal_rounds : int;
  w_failed_rounds : int;
  w_visits : int;
  w_parks : int;
  w_park_ns : int;
  w_parked : bool;
  w_queue_hwm : int;
  w_errors : int;
  w_last_error : (string * string) option;
  w_sheds : int;
  w_evictions : int;
  w_inbox_depth : int;  (** colors currently chained to this worker *)
  w_current_color : int;  (** color being drained; -1 = idle *)
  w_qwait_sum_ns : int;
  w_service_sum_ns : int;
  w_qwait : Mstd.Histogram.t;
  w_service : Mstd.Histogram.t;
  w_qwait_win : Mstd.Histogram.t;
  w_service_win : Mstd.Histogram.t;
  w_steals_from : int array;
  w_live : bool;  (** a worker domain is currently running this slot *)
  w_phase : Supervision.phase;  (** supervision state at snapshot *)
  w_hb_age_ns : int;
      (** ns since the slot's last heartbeat (event boundary); large
          while idle or wedged — read with [w_busy_ns] to tell apart *)
  w_busy_ns : int;
      (** ns the current handler has been executing; 0 when idle *)
  w_restarts : int;  (** times this slot's domain was respawned *)
}

type snapshot = {
  s_epoch : int;
  s_workers : worker_snap array;
  s_executed : int;
  s_pending : int;
  s_active : int;
  s_steals : int;
  s_steal_attempts : int;
  s_refused : int;
  s_errors : int;
  s_serving : bool;
  s_accepting : bool;  (** shutdown gate open (false once draining) *)
  s_steal_policy : Policy.batch;  (** batch policy in force at snapshot *)
  s_worthy_threshold : int;  (** worthiness bar in force at snapshot *)
  s_controller : Policy.Controller.snapshot option;
      (** [None] when the runtime was created without a controller *)
  s_live_workers : int;  (** slots with a running worker domain *)
  s_degraded : bool;
      (** some slot is terminally lost (breaker tripped or a wedged
          domain was confiscated): the runtime serves at reduced width *)
  s_restarts : int;  (** worker-domain restarts performed *)
  s_migrations : int;  (** color-queues re-homed off failed workers *)
  s_reclaimed : int;  (** color-queues swept from failed slots *)
  s_abandoned : int;
      (** accepted events dropped during force-confiscation of a wedged
          slot; conservation counts them alongside executed/refused *)
}
