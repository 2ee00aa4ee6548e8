(** The runtime's one instrumentation plane: per-worker shards,
    snapshottable at any instant without stopping writers.

    Each worker owns one {!shard} and records into it with plain
    stores — no lock, no atomic RMW on the hot path. The two
    exceptions are [enqueued] and [queue_hwm]: they are written by
    whoever publishes an event, and a publisher may be an external
    injector with no shard of its own, so they stay atomics. Counters
    are monotone and histogram buckets grow-only, so a concurrent
    reader can under-observe the newest events but never reads a torn
    or decreasing value: two back-to-back snapshots bracket the live
    counters.

    Totals are derived, not counted twice: the runtime's executed,
    steal, steal-round and error totals are sums over the shards
    ({!total}), and a worker's steals in / out are the row / column
    sums of the thief-written steal matrix.

    Streaming windows: one global epoch counter, bumped by
    {!swap_window}, selects which of two buffers each histogram's
    writer records into; readers take the last closed window. *)

type t

(** One worker's shard. Every mutable field is written only by the
    domain currently running that worker's slot (at most one at a
    time; a respawned domain inherits the shard). *)
type shard = {
  qwait : Mstd.Histogram.Windowed.t;  (** queue wait, ns *)
  service : Mstd.Histogram.Windowed.t;  (** handler service time, ns *)
  steals_from : int array;
      (** row of the thief×victim steal matrix: color-queues this
          worker won from each victim *)
  mutable qwait_sum_ns : int;
  mutable service_sum_ns : int;
      (** also the worker's busy time: utilization over an interval is
          (delta service_sum_ns) / (wall ns) *)
  mutable executed : int;  (** events this worker ran *)
  mutable steal_rounds : int;  (** steal rounds attempted *)
  mutable failed_rounds : int;  (** steal rounds that found no victim *)
  mutable visits : int;  (** victims probed across all steal rounds *)
  mutable parks : int;  (** times the worker parked on the idle condition *)
  mutable park_ns : int;  (** total time spent parked *)
  mutable parked_now : bool;  (** asleep on the idle condition right now *)
  mutable errors : int;  (** handler invocations that raised *)
  mutable last_error : (string * string) option;
      (** most recent failure as [(handler name, exception text)] *)
  mutable sheds : int;  (** 503 load sheds decided on this worker *)
  mutable evictions : int;  (** deadline evictions carried out here *)
  enqueued : int Atomic.t;
      (** events published onto this worker's queues; written by any
          publisher *)
  queue_hwm : int Atomic.t;
      (** high-water mark of events queued at once in any single
          color-queue this worker was handed (per color, not a
          whole-worker total); written by any publisher *)
}

val create : workers:int -> t

val shard : t -> int -> shard

val total : t -> (shard -> int) -> int
(** Sum of one counter over every shard (racy-read safe, like any
    single read). *)

val epoch : t -> int
(** Current window epoch (starts at 1). *)

val swap_window : t -> unit
(** Close the current window and open a fresh one. Any reader may call
    this; writers notice the epoch change on their next record. *)

val on_exec : t -> worker:int -> qwait_ns:int -> service_ns:int -> unit
(** Count one executed event and record its queue wait (enqueue to
    start of run) and service time. Must be called by worker
    [worker]'s own domain. *)

val on_steal : t -> thief:int -> victim:int -> count:int -> unit
(** Record a won steal of [count] color-queues in the thief×victim
    matrix ([count > 1] under a batch policy). Must be called by the
    thief's domain (each row is single-writer). *)

val note_queue_len : shard -> int -> unit
(** Raise [queue_hwm] to the given color-queue length if it is a new
    high. Any domain may call it. *)

(** {1 Full-plane snapshot}

    Assembled by {!Runtime.telemetry_snapshot}, which owns the worker
    states and global counters; the types live here so consumers
    (rtnet's admin endpoint, melyctl) need only [Telemetry]. *)

type worker_snap = {
  w_id : int;
  w_executed : int;
  w_enqueued : int;
  w_steals_in : int;  (** row sum of the steal matrix *)
  w_steals_out : int;  (** column sum of the steal matrix *)
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
  w_qwait : Mstd.Histogram.t;  (** cumulative queue-wait, ns *)
  w_service : Mstd.Histogram.t;  (** cumulative service time, ns *)
  w_qwait_win : Mstd.Histogram.t;  (** last closed window *)
  w_service_win : Mstd.Histogram.t;
  w_steals_from : int array;  (** matrix row: wins against each victim *)
  w_live : bool;  (** a worker domain is currently running this slot *)
  w_phase : Supervision.phase;  (** supervision state at snapshot *)
  w_hb_age_ns : int;
      (** ns since the slot's last heartbeat (event boundary); large
          while idle or wedged — read with [w_busy_ns] to tell apart *)
  w_busy_ns : int;
      (** ns the current handler has been executing; 0 when idle *)
  w_restarts : int;  (** times this slot's domain was respawned *)
}

(** Runtime-wide view. [s_executed], [s_steals], [s_steal_attempts]
    and [s_errors] are sums over [s_workers] (executed, steal-matrix
    cells, steal rounds, errors), so within one snapshot they agree
    with the per-worker rows exactly. *)
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
