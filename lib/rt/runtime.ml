type handler = { name : string; declared : int; penalty : int }

type ctx = { worker : int; register : ?color:int -> handler:handler -> (ctx -> unit) -> unit }

(* [ev_enq] is the enqueue timestamp, stamped on every register: the
   telemetry plane's queue-wait histograms read it on every execute.
   [ev_seq] is a flight-recorder stamp, written only when tracing is
   on, under the color's shard lock at push time (so per-color seq
   order equals per-color queue order — the property the FIFO replay
   check relies on); left at 0 when tracing is off. *)
type event = {
  ev_handler : handler;
  ev_color : int;
  ev_run : ctx -> unit;
  mutable ev_seq : int;
  mutable ev_enq : int64;
}

(* Per-color event queue: a dummy-headed singly-linked list used as an
   SPSC queue. Producers are serialized by the color's shard lock (they
   append at [evq_tail]); the single consumer is whichever worker
   currently owns the color (it advances [evq_head]). Neither side ever
   needs a read-modify-write: push is one atomic link store, pop is one
   atomic link load. *)
type ev_node = { node_ev : event; node_next : ev_node option Atomic.t }

(* Per-color queue (the Mely per-color structure, Section IV-A),
   lock-free edition.

   Ownership protocol: [owner] names the worker responsible for
   consuming the queue; it changes only at a steal, and only while the
   queue sits unclaimed in the old owner's deque — so for any queue
   that is current or being published into, [owner] is stable.
   [chained] is the single linearization point for queue hand-off: it
   is true exactly when the queue is en route to or sitting in an
   owner's inbox/deque, or is an owner's current queue. Whoever wins
   the [false -> true] CAS (a publisher finding the queue idle, or the
   owner re-chaining a refilled queue it just released) is the one
   party allowed to hand the queue to its owner. [retired] is written
   and read under the shard lock only. *)
type color_queue = {
  color : int;
  mutable evq_head : ev_node;  (** consumer boundary; owner-private *)
  mutable evq_tail : ev_node;  (** producer end; under the shard lock *)
  pushed : int Atomic.t;
      (** Total appended; bumped under the shard lock. Must be an SC
          atomic: the owner's release recheck depends on seeing the
          bump of any push whose [chained] CAS it beat (see
          [release_current]). *)
  mutable popped : int;
      (** Total consumed. Plain: single writer (the owner), and every
          exact reader is either the owner itself (release, retire) or
          synchronizes with it first — a thief through the deque-claim
          CAS, the conservation audit through quiescence. Remote racy
          reads (the queue-length high-water mark) only ever
          undercount consumption, which is the safe direction. *)
  running : int Atomic.t;  (** concurrent executions; must never exceed 1 *)
  mutable weighted_in : int;
      (** Weighted cycles ever enqueued; written under the shard lock. *)
  mutable weighted_out : int;
      (** Weighted cycles consumed; written by the owner. The pair
          replaces one contended atomic: steal-worthiness is a
          heuristic, so thieves may read both plainly and tolerate
          staleness — what matters is that neither update is an RMW on
          the hot path. *)
  chained : bool Atomic.t;
  owner : int Atomic.t;
  mutable retired : bool;  (** unmapped; under the shard lock *)
  mutable poisoned : bool;
      (** under the shard lock. Set when a wedged worker was
          force-confiscated while (possibly) still executing this
          color: its mutual exclusion can no longer be certified, so
          further registers for the color are refused rather than run
          concurrently with a zombie handler. Poisoned queues stay
          mapped so the color cannot re-hash to a fresh queue. *)
}

(* Raised by a worker to die on purpose: the [Faults] Kill site, the
   [Restart_worker] failure policy, and [inject_worker_death] all
   funnel here. Raised only at an event boundary, after the event's
   accounting is complete, so a deliberate death never loses an
   accepted event. *)
exception Worker_killed

(* Raised by a worker acking a quarantine request at its next event
   boundary: it exits immediately, leaving its colors for the
   supervisor to reclaim. *)
exception Worker_quarantined

(* [q_state] protocol between a worker and the supervisor. The two
   CASes ([q_normal -> q_requested] by the supervisor, then either
   [q_requested -> q_acked] by the worker or [q_requested ->
   q_confiscated] by the supervisor) have exactly one winner each, so
   a worker that loses the ack race exits without touching its current
   queue again — the supervisor owns it from that point on. *)
let q_normal = 0

let q_requested = 1

let q_acked = 2

let q_confiscated = 3

type worker_state = {
  inbox : color_queue list Atomic.t;
      (** Treiber stack of queues other parties chained to this worker;
          drained into [deque] by the owner at every color switch. *)
  deque : color_queue Spmc_queue.t;
      (** Ready colors in rotation order. Only this worker pushes;
          thieves claim mid-queue elements with one CAS. *)
  n_chained : int Atomic.t;
      (** Colors currently chained to this worker (inbox + deque +
          in-flight hand-offs); the load hint thieves sort victims by. *)
  current_color : int Atomic.t;  (** color being drained; -1 = none *)
  mutable current : color_queue option;  (** owner-private *)
  mutable batch_remaining : int;  (** owner-private *)
  mutable cached_most : int;  (** owner-private victim-order cache *)
  mutable cached_victims : int list;
  probe_cost : float array;
      (** Per-victim probe-cost EWMA, ns. Owner-private: only this
          worker probes with this array. 0.0 = never probed. *)
  mutable probe_rounds : int;  (** steal rounds since creation; owner-private *)
  mutable lat_victims : int list;
      (** locality order re-ranked by probe cost; owner-private cache *)
  tel : Telemetry.shard;  (** this slot's shard of the stats plane *)
  (* --- supervision state (one slot per worker; the slot survives the
     domain, so a replacement inherits the telemetry/trace shards and
     stays the single writer — at most one live domain ever runs a
     slot). --- *)
  busy_since : int Atomic.t;
      (** 0 = idle; else [Clock.now_ns] at the current event's start.
          Doubles as the heartbeat stamp and the wedge-age source.
          Replaces the global [active] RMW pair: raised BEFORE the
          [pending] decrement, so an observer seeing [pending = 0]
          sees every busy slot (same SC argument as the old counter). *)
  hb_last : int Atomic.t;  (** ns of the last completed event boundary *)
  q_state : int Atomic.t;  (** quarantine handshake; see [q_normal] *)
  kill_flag : bool Atomic.t;  (** deliberate death requested (tests) *)
  live : bool Atomic.t;  (** a domain is currently running this slot *)
  exited : bool Atomic.t;  (** the domain's wrapper finished *)
  crashed : bool Atomic.t;
      (** exit was a death (escape/kill/quarantine), not a clean
          terminal-quiescence return; written before [exited] *)
  mutable death_reason : string;  (** written before [exited] is set *)
  phase : int Atomic.t;  (** encoded {!Supervision.phase} *)
  slot_restarts : int Atomic.t;
  mutable q_since : int;  (** supervisor-private: quarantine request ns *)
}

type ws_config = {
  enabled : bool;
  locality : bool;
  time_left : bool;
  penalty : bool;
  latency : bool;
}

let default_ws =
  { enabled = true; locality = true; time_left = true; penalty = true; latency = true }

type failure_policy = Swallow | Stop_runtime | Restart_worker

(* Shutdown gate, monotonic within a serving epoch: [accepting] takes
   any register, [draining] (set by [stop]) refuses external registers
   but lets in-flight handlers finish their chains, [aborted] (set by
   the [Stop_runtime] failure policy) refuses everything and makes
   workers exit without draining the backlog. [start] and
   [run_until_idle] reset the gate to [accepting]. *)
let accepting = 0

let draining = 1

let aborted = 2

(* The color map is sharded: publishers for different colors contend on
   different locks, and the shard lock doubles as the per-color
   producer serialization for the SPSC event queues. Power of two so
   the shard index is a mask. *)
let n_shards = 64

type shard = { sh_lock : Spinlock.t; sh_tbl : (int, color_queue) Hashtbl.t }

type t = {
  n : int;
  ws : ws_config;
  batch : int;
  worthy_threshold : int Atomic.t;
      (** The worthiness bar, tunable online by the controller; thieves
          read it once per probe. *)
  steal_policy : Policy.batch Atomic.t;
      (** Batch policy in force; read once per probe, so a controller
          move applies to the next probe without any hand-shake. *)
  controller : (Policy.Controller.t * Mutex.t) option;
      (** Online tuner, ticked from the telemetry window swap. The
          mutex serializes ticks (any thread may drive the swap); the
          hot path never touches it — workers see controller output
          only through the two atomics above. *)
  states : worker_state array;
  victims : int list array;  (** per-worker locality victim order *)
  shards : shard array;
  pending : int Atomic.t;  (** queued events *)
  max_same_color : int Atomic.t;
  park_mutex : Mutex.t;
  park_cond : Condition.t;  (** idle workers sleep here *)
  quiesce_cond : Condition.t;
      (** [quiesce] waiters sleep here — a separate condition so a
          single-event wakeup [signal] can never be swallowed by a
          quiescence waiter instead of a worker. *)
  n_parked : int Atomic.t;
  n_waiters : int Atomic.t;  (** threads blocked in [quiesce] *)
  on_error : failure_policy;
  shutdown : int Atomic.t;  (** [accepting] / [draining] / [aborted] *)
  serving : bool Atomic.t;  (** workers persist across quiescence *)
  refused : int Atomic.t;  (** registers rejected by the shutdown gate *)
  telemetry : Telemetry.t;
      (** always-on stats plane; executed, steal, steal-round and error
          totals are sums over its shards *)
  trace : Trace.t option;  (** flight recorder; None = zero-cost disabled *)
  lifecycle_lock : Mutex.t;  (** serializes start/stop/run_until_idle *)
  mutable running : bool;
  (* --- supervision plane --- *)
  faults : Faults.t;
      (** consulted at the [Kill] site at every event boundary when
          active; [passthrough] costs one constructor check *)
  sup : Supervision.config;
  breakers : Supervision.Breaker.t array;  (** supervisor-private *)
  slot_domains : unit Domain.t option array;
      (** per-slot domain handle. Written by [spawn_worker] (under the
          lifecycle lock at start, by the supervisor on respawn) and
          cleared by whoever joins; lifecycle code only touches it
          after the supervisor domain has been joined. *)
  mon_stop : bool Atomic.t;
  mutable monitor : unit Domain.t option;
  restart_count : int Atomic.t;  (** worker domains respawned *)
  migration_count : int Atomic.t;  (** color-queues re-homed *)
  reclaim_count : int Atomic.t;  (** color-queues swept off dead slots *)
  abandoned : int Atomic.t;
      (** accepted events dropped at force-confiscation; conservation
          becomes attempts = executed + pending + refused + abandoned *)
  degraded : bool Atomic.t;  (** some slot is terminally lost *)
}

let default_color = 0

(* Victim order for the locality heuristic (Section III-A): map the
   workers onto a xeon-shaped cache hierarchy — pairs share an L2, two
   pairs share a package — and probe nearest victims first, breaking
   distance ties by ring order from the thief so no low-id worker is
   everyone's first fallback. *)
let locality_victims n =
  let packages = max 1 ((n + 3) / 4) in
  let topo = Hw.Topology.create ~packages ~groups_per_package:2 ~cores_per_group:2 in
  Array.init n (fun w ->
      let others = List.filter (fun v -> v <> w) (List.init n Fun.id) in
      let key v =
        (Hw.Topology.(distance_rank (distance topo w v)), (v - w + n) mod n)
      in
      List.sort (fun a b -> compare (key a) (key b)) others)

(* {!Supervision.phase} packed into the per-slot atomic so any domain
   can read it without locks. *)
let phase_to_int = function
  | Supervision.Live -> 0
  | Supervision.Suspect -> 1
  | Supervision.Quarantined -> 2
  | Supervision.Dead -> 3
  | Supervision.Restarting -> 4
  | Supervision.Lost -> 5

let phase_of_int = function
  | 0 -> Supervision.Live
  | 1 -> Supervision.Suspect
  | 2 -> Supervision.Quarantined
  | 3 -> Supervision.Dead
  | 4 -> Supervision.Restarting
  | _ -> Supervision.Lost

(* Monotonic ns as int: 63 bits hold ~146 years of nanoseconds, and
   every consumer (wedge ages, heartbeats, breaker arithmetic) wants
   plain int math. *)
let now_int () = Int64.to_int (Clock.now_ns ())

let create ?workers ?(ws = default_ws) ?(batch_threshold = 10)
    ?(worthy_threshold = 2_000) ?(steal_policy = Policy.Steal_one) ?controller
    ?(on_error = Swallow) ?trace ?(faults = Faults.passthrough)
    ?(supervision = Supervision.default_config) () =
  let n =
    match workers with
    | Some n ->
      if n < 1 then invalid_arg "Rt.Runtime.create: workers must be >= 1";
      n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if worthy_threshold < 0 then
    invalid_arg "Rt.Runtime.create: worthy_threshold must be >= 0";
  let controller =
    Option.map
      (fun config ->
        ( Policy.Controller.create ~config ~batch:steal_policy
            ~threshold:worthy_threshold (),
          Mutex.create () ))
      controller
  in
  (* With a controller, the clamped operating point is authoritative
     from tick zero — start the atomics on it so the first snapshot
     already agrees with the controller state. *)
  let worthy_threshold =
    match controller with
    | Some (ctl, _) -> Policy.Controller.threshold ctl
    | None -> worthy_threshold
  in
  let telemetry = Telemetry.create ~workers:n in
  {
    n;
    ws;
    batch = batch_threshold;
    worthy_threshold = Atomic.make worthy_threshold;
    steal_policy = Atomic.make steal_policy;
    controller;
    states =
      Array.init n (fun w ->
          {
            inbox = Atomic.make [];
            deque = Spmc_queue.create ();
            n_chained = Atomic.make 0;
            current_color = Atomic.make (-1);
            current = None;
            batch_remaining = 0;
            cached_most = -1;
            cached_victims = [];
            probe_cost = Array.make n 0.0;
            probe_rounds = 0;
            lat_victims = [];
            tel = Telemetry.shard telemetry w;
            busy_since = Atomic.make 0;
            hb_last = Atomic.make 0;
            q_state = Atomic.make q_normal;
            kill_flag = Atomic.make false;
            live = Atomic.make false;
            exited = Atomic.make false;
            crashed = Atomic.make false;
            death_reason = "";
            phase = Atomic.make (phase_to_int Supervision.Live);
            slot_restarts = Atomic.make 0;
            q_since = 0;
          });
    victims = locality_victims n;
    shards =
      Array.init n_shards (fun _ ->
          { sh_lock = Spinlock.create (); sh_tbl = Hashtbl.create 16 });
    pending = Atomic.make 0;
    max_same_color = Atomic.make 0;
    park_mutex = Mutex.create ();
    park_cond = Condition.create ();
    quiesce_cond = Condition.create ();
    n_parked = Atomic.make 0;
    n_waiters = Atomic.make 0;
    on_error;
    shutdown = Atomic.make accepting;
    serving = Atomic.make false;
    refused = Atomic.make 0;
    telemetry;
    trace = Option.map (fun cfg -> Trace.create ~workers:n cfg) trace;
    lifecycle_lock = Mutex.create ();
    running = false;
    faults;
    sup = supervision;
    breakers = Array.init n (fun _ -> Supervision.Breaker.create supervision);
    slot_domains = Array.make n None;
    mon_stop = Atomic.make false;
    monitor = None;
    restart_count = Atomic.make 0;
    migration_count = Atomic.make 0;
    reclaim_count = Atomic.make 0;
    abandoned = Atomic.make 0;
    degraded = Atomic.make false;
  }

let workers t = t.n

let handler _t ~name ?(declared_cycles = 1_000) ?(penalty = 1) () =
  if penalty < 1 then invalid_arg "Rt.Runtime.handler: penalty must be >= 1";
  { name; declared = declared_cycles; penalty }

let weighted_of t h =
  if t.ws.penalty then max 1 (h.declared / h.penalty) else max 1 h.declared

let shard_of t color = t.shards.(color land (n_shards - 1))

let dummy_event =
  { ev_handler = { name = ""; declared = 1; penalty = 1 };
    ev_color = -1; ev_run = (fun _ -> ()); ev_seq = 0; ev_enq = 0L }

(* Queued length. Exact when read by the owner (it wrote [popped]
   itself) or after synchronizing with it; a remote racy read can see a
   stale [popped] and overcount, which every remote caller (the
   high-water-mark metric) tolerates. *)
let cq_len cq = Atomic.get cq.pushed - cq.popped

(* Append one event; caller holds the color's shard lock. The link
   store is the release that publishes the event (and its seq stamp) to
   the consumer, so it comes after every other field write. *)
let evq_push cq ev =
  let n = { node_ev = ev; node_next = Atomic.make None } in
  let tail = cq.evq_tail in
  cq.evq_tail <- n;
  (* Link first, count second: any reader that sees the length bump can
     also see the node, so a positive [cq_len] always means a poppable
     event. *)
  Atomic.set tail.node_next (Some n);
  Atomic.incr cq.pushed

(* Consume one event; owner only. One SC load and two plain stores —
   no RMW, no fence-heavy store on the pop path. *)
let evq_pop cq =
  match Atomic.get cq.evq_head.node_next with
  | None -> None
  | Some n ->
    cq.evq_head <- n;
    cq.popped <- cq.popped + 1;
    Some n.node_ev

(* Locate or create the color-queue; caller holds [sh]'s lock. A fresh
   color hashes to its home worker, like the seed runtime — unless the
   injector supplied a placement hint ([home]), in which case the new
   queue starts on that worker instead. The hint only matters at
   creation: an existing queue keeps its owner (stealing is what moves
   live queues). *)
let locate_locked t sh ?home color =
  match Hashtbl.find_opt sh.sh_tbl color with
  | Some cq -> cq
  | None ->
    let dummy = { node_ev = dummy_event; node_next = Atomic.make None } in
    let cq =
      {
        color;
        evq_head = dummy;
        evq_tail = dummy;
        pushed = Atomic.make 0;
        popped = 0;
        running = Atomic.make 0;
        weighted_in = 0;
        weighted_out = 0;
        chained = Atomic.make false;
        owner =
          Atomic.make
            (match home with
            | Some h -> ((h mod t.n) + t.n) mod t.n
            | None -> color mod t.n);
        retired = false;
        poisoned = false;
      }
    in
    Hashtbl.replace sh.sh_tbl color cq;
    cq

(* Wake ONE parked worker after publishing a single event — a broadcast
   here was the thundering herd: every parked worker woke, one got the
   event, the rest took the condvar round-trip for nothing. Liveness
   with a single signal relies on the relay in [worker_loop]: a woken
   worker that cannot consume the pending work itself (wrong owner,
   stealing disabled, color unworthy) re-signals from its backoff loop,
   so the chain reaches the worker that can. The parked count is only
   raised under [park_mutex], so taking the mutex here cannot race a
   worker into a missed sleep. *)
let wake_parked t =
  if Atomic.get t.n_parked > 0 then begin
    Mutex.lock t.park_mutex;
    Condition.signal t.park_cond;
    Mutex.unlock t.park_mutex
  end

(* Transient quiescence only matters to [quiesce] waiters; they have
   their own condition variable so we never wake idle workers for it. *)
let wake_quiescers t =
  Mutex.lock t.park_mutex;
  Condition.broadcast t.quiesce_cond;
  Mutex.unlock t.park_mutex

(* Unconditional broadcast on both conditions: terminal quiescence,
   shutdown and abort transitions must reach every sleeper at once. *)
let broadcast_all t =
  Mutex.lock t.park_mutex;
  Condition.broadcast t.park_cond;
  Condition.broadcast t.quiesce_cond;
  Mutex.unlock t.park_mutex

let rec inbox_push ws cq =
  let old = Atomic.get ws.inbox in
  if not (Atomic.compare_and_set ws.inbox old (cq :: old)) then inbox_push ws cq

(* Publish one event. The only lock on this path is the color's shard
   lock, held for a hashtable probe plus three atomic stores; there is
   no per-worker lock to fight the owner for, and no [migrating] state
   to spin on — a queue found in the map is never mid-steal from the
   publisher's point of view, because owners only change while the
   queue idles in a deque, and [retired] queues are unmapped under the
   same shard lock we hold. [self] is the publishing worker (-1 when
   external), used to skip the wakeup when the publisher itself will
   consume the event next. *)
let publish t ~self ?home ?(wake = true) event =
  let sh = shard_of t event.ev_color in
  Spinlock.acquire sh.sh_lock;
  let cq = locate_locked t sh ?home event.ev_color in
  if cq.poisoned then begin
    (* The color's last owner was force-confiscated while possibly
       still executing it: running this event anywhere could overlap
       the zombie handler, so the register is refused instead. *)
    Spinlock.release sh.sh_lock;
    false
  end
  else begin
  (match t.trace with
  | Some tr -> event.ev_seq <- Trace.next_seq tr
  | None -> ());
  (* Plain add: serialized by the shard lock, raised before the event
     becomes poppable so the owner's [weighted_out] can never overtake
     it. *)
  cq.weighted_in <- cq.weighted_in + weighted_of t event.ev_handler;
  evq_push cq event;
  Spinlock.release sh.sh_lock;
  (* Hand-off: if the queue is idle (not current, not in any deque or
     inbox), win the [chained] CAS and chain it to its owner. Exactly
     one of {publisher, releasing owner} wins when they race over a
     refilled queue. The owner is re-read after the CAS: holding the
     chain freezes ownership, so the read cannot be stale. *)
  let chained_now =
    (not (Atomic.get cq.chained))
    && Atomic.compare_and_set cq.chained false true
  in
  let owner = Atomic.get cq.owner in
  let ws = t.states.(owner) in
  if chained_now then begin
    Atomic.incr ws.n_chained;
    inbox_push ws cq
  end;
  Atomic.incr ws.tel.enqueued;
  Telemetry.note_queue_len ws.tel (cq_len cq);
  (* No wakeup when the publisher is the owner and the event joined the
     color it is currently draining: the queue is unstealable (it is
     not in any deque) and this worker will pop it next anyway. In
     every other case signal one sleeper. If [owner] is stale here the
     thief that is mid-claim is awake and responsible for the queue, so
     a skipped signal cannot strand the event. *)
  if wake && not (self = owner && Atomic.get ws.current_color = event.ev_color)
  then wake_parked t;
  true
  end

(* [pending] is raised BEFORE the event becomes poppable, so a worker
   that pops immediately can never drive the counter negative — the
   seed incremented it after the push, letting a sibling observe
   [pending = -1] and declare quiescence mid-enqueue. The shutdown gate
   is read only after the increment: if we saw [accepting], any worker
   that later reads [pending] on its exit path also sees our increment
   (SC atomics), so it cannot declare the drain finished under our
   feet. *)
let enqueue t ~internal ~self ?home event =
  (* Always stamped: the telemetry plane's queue-wait histograms need
     it even when the flight recorder is off. *)
  event.ev_enq <- Clock.now_ns ();
  Atomic.incr t.pending;
  let gate = Atomic.get t.shutdown in
  if gate = aborted || (gate = draining && not internal) then begin
    Atomic.decr t.pending;
    Atomic.incr t.refused;
    false
  end
  else if publish t ~self ?home event then true
  else begin
    (* Poisoned color: accepted by the gate, refused at the queue. *)
    Atomic.decr t.pending;
    Atomic.incr t.refused;
    false
  end

let make_event ~handler ~color run =
  { ev_handler = handler; ev_color = color; ev_run = run; ev_seq = 0; ev_enq = 0L }

let try_register t ?(color = default_color) ?home ~handler run =
  if color < 0 then invalid_arg "Rt.Runtime.try_register: color must be >= 0";
  enqueue t ~internal:false ~self:(-1) ?home (make_event ~handler ~color run)

(* Wake up to [k] parked workers with one mutex round-trip — the batch
   counterpart of [wake_parked]. Signaling more than [n] sleepers is
   pointless; signaling fewer than the batch size is safe because the
   backoff relay re-signals while work is pending. *)
let wake_parked_n t k =
  if k > 0 && Atomic.get t.n_parked > 0 then begin
    Mutex.lock t.park_mutex;
    let signals = min k t.n in
    for _ = 1 to signals do
      Condition.signal t.park_cond
    done;
    Mutex.unlock t.park_mutex
  end

(* Batched external injection: one shutdown-gate decision and one
   wakeup round-trip for the whole batch, instead of one per event —
   the per-event path is what a poller shard would otherwise pay once
   per readiness on every epoll_wait return. All-or-nothing: either
   every event is accepted (in list order, so per-color FIFO is
   preserved) or the gate refuses the whole batch and each event counts
   as refused. The [pending] increments still happen before the gate
   read, so the no-abandon drain argument from [enqueue] carries over
   unchanged. *)
let try_register_batch t ?home items =
  match items with
  | [] -> true
  | _ ->
    let k = List.length items in
    List.iter
      (fun (color, _, _) ->
        if color < 0 then
          invalid_arg "Rt.Runtime.try_register_batch: color must be >= 0")
      items;
    ignore (Atomic.fetch_and_add t.pending k);
    let gate = Atomic.get t.shutdown in
    if gate = aborted || gate = draining then begin
      ignore (Atomic.fetch_and_add t.pending (-k));
      ignore (Atomic.fetch_and_add t.refused k);
      false
    end
    else begin
      List.iter
        (fun (color, handler, run) ->
          let event = make_event ~handler ~color run in
          event.ev_enq <- Clock.now_ns ();
          if not (publish t ~self:(-1) ?home ~wake:false event) then begin
            (* A poisoned color refuses its events individually; the
               rest of the batch still lands. *)
            Atomic.decr t.pending;
            Atomic.incr t.refused
          end)
        items;
      wake_parked_n t k;
      true
    end

let register t ?(color = default_color) ~handler run =
  if color < 0 then invalid_arg "Rt.Runtime.register: color must be >= 0";
  ignore (enqueue t ~internal:false ~self:(-1) (make_event ~handler ~color run))

(* Handler follow-ups count as in-flight work: a draining [stop] lets
   them through so interrupted chains can finish, only an abort refuses
   them. [self] is the worker running the handler. *)
let register_internal t ~self ~color ~handler run =
  if color < 0 then invalid_arg "Rt.Runtime.register: color must be >= 0";
  ignore (enqueue t ~internal:true ~self (make_event ~handler ~color run))

(* Retire a drained color from the map (only if it is still this
   queue), so recycled colors re-hash cleanly. Everything happens under
   the shard lock: publishers find the queue under the same lock, so
   once the length check passes here no event can slip into a retired
   queue — the push either landed before we took the lock (we see it
   and keep the queue) or finds a fresh queue after the removal. *)
let forget_if_drained t cq =
  let sh = shard_of t cq.color in
  Spinlock.with_lock sh.sh_lock (fun () ->
      if
        (not cq.poisoned)
        && (not (Atomic.get cq.chained))
        && Atomic.get cq.running = 0
        && cq_len cq = 0
      then
        match Hashtbl.find_opt sh.sh_tbl cq.color with
        | Some current when current == cq ->
          cq.retired <- true;
          Hashtbl.remove sh.sh_tbl cq.color
        | _ -> ())

(* Release the drained current queue. Clearing [chained] re-opens the
   hand-off; the refill recheck closes the race with a publisher that
   pushed between our last pop and the clear: whoever wins the CAS
   chains the queue (us, onto our own deque) and the loser does
   nothing. SC atomics guarantee one side sees the other: if our
   recheck misses the push, the publisher's CAS comes after our clear
   and wins. *)
let release_current t ws cq =
  ws.current <- None;
  Atomic.set ws.current_color (-1);
  Atomic.set cq.chained false;
  if cq_len cq > 0 && Atomic.compare_and_set cq.chained false true then begin
    Atomic.incr ws.n_chained;
    Spmc_queue.push ws.deque cq
  end
  else forget_if_drained t cq

(* Move inbox arrivals into the deque (reversed: the Treiber stack is
   LIFO, rotation order wants FIFO). Called at every color switch so a
   long-running color cannot starve freshly chained ones forever. *)
let drain_inbox ws =
  match Atomic.get ws.inbox with
  | [] -> ()
  | _ ->
    let got = Atomic.exchange ws.inbox [] in
    List.iter (fun cq -> Spmc_queue.push ws.deque cq) (List.rev got)

(* Next event for worker [w]. The owner's fast path is one atomic link
   load (the SPSC pop) and a batch counter decrement — no lock, no CAS.
   Batch rotation happens BEFORE popping, never after: a color-queue
   must not sit in the deque (where a thief can claim it) while one of
   its events is executing, or same-color mutual exclusion would break.
   Rotating at the pop boundary keeps the invariant: a queue is either
   current (unstealable) or in a deque (no event of it running). *)
let rec next_event t ws =
  match ws.current with
  | Some cq ->
    if ws.batch_remaining <= 0 && cq_len cq > 0 then begin
      (* Rotate to the back of the deque to prevent starvation. *)
      ws.current <- None;
      Atomic.set ws.current_color (-1);
      Atomic.incr ws.n_chained;
      Spmc_queue.push ws.deque cq;
      next_event t ws
    end
    else begin
      match evq_pop cq with
      | Some ev ->
        cq.weighted_out <- cq.weighted_out + weighted_of t ev.ev_handler;
        ws.batch_remaining <- ws.batch_remaining - 1;
        Some (ev, cq)
      | None ->
        release_current t ws cq;
        next_event t ws
    end
  | None -> (
    drain_inbox ws;
    match Spmc_queue.pop ws.deque with
    | Some cq ->
      Atomic.decr ws.n_chained;
      ws.current <- Some cq;
      Atomic.set ws.current_color cq.color;
      ws.batch_remaining <- t.batch;
      next_event t ws
    | None -> None)

(* Escalate the shutdown gate to [aborted] (it only ever rises within an
   epoch) and wake everyone so workers notice and exit. *)
let request_abort t =
  let rec raise_gate () =
    let cur = Atomic.get t.shutdown in
    if cur < aborted && not (Atomic.compare_and_set t.shutdown cur aborted) then
      raise_gate ()
  in
  raise_gate ();
  broadcast_all t

(* Execution boundary: a raising handler must not escape — the seed let
   the exception unwind [worker_loop] past the [active] decrement,
   killing the domain while parked siblings waited on [active > 0]
   forever. The failure is recorded per-worker, the event still counts
   as executed (conservation: every accepted event is consumed exactly
   once), and the [running]/[active]/[pending] accounting is identical
   on both paths. [t0] is the worker's pop stamp (also its busy stamp);
   the end stamp is returned for the heartbeat. *)
let execute t w (cq : color_queue) event ~t0 =
  let concurrent = 1 + Atomic.fetch_and_add cq.running 1 in
  (* Record the worst concurrency ever observed for the invariant test. *)
  let rec bump () =
    let seen = Atomic.get t.max_same_color in
    if concurrent > seen && not (Atomic.compare_and_set t.max_same_color seen concurrent)
    then bump ()
  in
  bump ();
  let ctx =
    {
      worker = w;
      register =
        (fun ?(color = default_color) ~handler run ->
          register_internal t ~self:w ~color ~handler run);
    }
  in
  let die_after = ref false in
  (match event.ev_run ctx with
  | () -> ()
  | exception e ->
    let s = t.states.(w).tel in
    s.errors <- s.errors + 1;
    s.last_error <- Some (event.ev_handler.name, Printexc.to_string e);
    (match t.on_error with
    | Swallow -> ()
    | Stop_runtime -> request_abort t
    | Restart_worker ->
      (* The failing event still completes its accounting below (it is
         consumed exactly once); only then does the worker die, so the
         supervisor can migrate the remaining colors and respawn. *)
      die_after := true));
  let t1 = Clock.now_ns () in
  if Atomic.get t.states.(w).q_state = q_confiscated then begin
    (* Zombie path: while this handler wedged, the supervisor
       confiscated the slot — the queue was abandoned and this event
       counted with it, so finish with the bare [running] release and
       no executed/telemetry writes (the slot stays Lost, so the
       single-writer shards are safe either way). *)
    Atomic.decr cq.running;
    raise Worker_quarantined
  end;
  (* The span is stamped and recorded before [running] is released (and
     before the queue can be released, rotated or retired — all of that
     happens on this worker's next [next_event] call): everything inside
     it lies within the color's exclusion window, so overlapping spans
     in the trace always mean a real mutual-exclusion violation — a
     recycled same-color queue can only start after this point. *)
  (match t.trace with
  | None -> ()
  | Some tr ->
    Trace.record_exec tr ~worker:w ~handler:event.ev_handler.name
      ~color:event.ev_color ~seq:event.ev_seq ~enq_ns:event.ev_enq ~start_ns:t0
      ~end_ns:t1);
  (* Counts the event as executed: a plain store, ordered before the
     caller's [busy_since] clear so [quiesce]/[stop] see it. *)
  Telemetry.on_exec t.telemetry ~worker:w
    ~qwait_ns:(max 0 (Int64.to_int (Int64.sub t0 event.ev_enq)))
    ~service_ns:(max 0 (Int64.to_int (Int64.sub t1 t0)));
  Atomic.decr cq.running;
  if !die_after then raise Worker_killed;
  t1

(* Most-loaded-first victim order for the non-locality mode. The seed
   rebuilt the [List.init]/[List.filter] on every probe round; now the
   list is cached per worker and recomputed only when the most-loaded
   hint actually moves. Owner-private fields: only worker [w] calls
   this for itself. *)
(* Latency-aware refinement of the locality order. Each worker keeps a
   per-victim probe-cost EWMA (fed by [try_steal] from the same
   timestamps the Visit spans carry): a winning probe is cheap at any
   latency, an empty one wasted the whole round-trip — so the EWMA is
   the expected cost of *useful* work from that victim. Ranking by raw
   EWMA would let nanosecond noise reorder equally-near victims, so
   costs are quantized to log2 buckets and the sort is stable on the
   original locality position: within a cost magnitude the cache
   topology still decides, and a victim must get ~2x worse (or better)
   before it moves. Re-ranked every [rerank_interval] rounds —
   owner-private state, no synchronization. *)
let ewma_alpha = 0.125

let rerank_interval = 64

let probe_cost_update ws victim ~outcome ~dt_ns =
  let weight =
    match outcome with
    | Trace.Won -> 0.25  (* a win amortizes its latency *)
    | Trace.Empty -> 4.0  (* pure waste; also punishes always-empty victims *)
    | Trace.Unworthy | Trace.Executing -> 1.0
  in
  let cost = weight *. Float.max 1.0 dt_ns in
  let prev = ws.probe_cost.(victim) in
  ws.probe_cost.(victim) <-
    (if prev = 0.0 then cost else prev +. (ewma_alpha *. (cost -. prev)))

let cost_bucket e =
  if e <= 0.0 then 0 else int_of_float (Float.log2 (1.0 +. (e /. 1_000.0)))

let latency_order t w ws =
  if ws.lat_victims = [] || ws.probe_rounds mod rerank_interval = 0 then begin
    let keyed =
      List.mapi (fun i v -> (cost_bucket ws.probe_cost.(v), i, v)) t.victims.(w)
    in
    ws.lat_victims <-
      List.map
        (fun (_, _, v) -> v)
        (List.sort
           (fun (ba, ia, _) (bb, ib, _) -> compare (ba, ia) (bb, ib))
           keyed)
  end;
  ws.lat_victims

let victim_order t w =
  if t.ws.locality then
    if t.ws.latency then latency_order t w t.states.(w) else t.victims.(w)
  else begin
    let ws = t.states.(w) in
    let most = ref 0 and best = ref (-1) in
    for v = 0 to t.n - 1 do
      let len = Atomic.get t.states.(v).n_chained in
      if len > !best then begin
        best := len;
        most := v
      end
    done;
    if !most <> ws.cached_most then begin
      ws.cached_most <- !most;
      ws.cached_victims <-
        List.filter (fun v -> v <> w) (List.init t.n (fun i -> (!most + i) mod t.n))
    end;
    ws.cached_victims
  end

(* Steal one color-queue from [victim] into [w]; returns the visit
   outcome ([Won] on success, otherwise why the victim yielded
   nothing — the flight recorder and the [visits] counter make the
   locality ordering auditable per probe, not just per round). No lock
   is taken on either side: the claim is one CAS on the deque slot, and
   that CAS is the ownership linearization point — the victim stopped
   touching the queue when it pushed it (deque pushes happen only at
   release/rotate, never while an event of the queue executes), so the
   winner may immediately write [owner] and start draining. The queue
   the victim is currently executing is never in the deque, so the
   same-color exclusion invariant is structural, not lock-guarded (the
   spinlock-era [Lock_busy] visit outcome is gone from [Trace] with the
   lock it described). *)
let steal_scan_budget = 16

(* Claim up to [max_take] worthy queues out of the victim's inbox.
   Without this, freshly published colors would be invisible to thieves
   until the owner's next color switch moves them into its deque — on a
   loaded owner that window is exactly when stealing matters. Taking
   the whole Treiber stack is safe: the queues stay [chained]
   throughout, and the owner cannot park meanwhile because their events
   keep [pending] positive.

   The unclaimed rest goes back in ONE CAS, appended underneath
   whatever was pushed concurrently: the rest is older than any
   concurrent arrival (it was in the stack before our exchange), so
   [cur @ rest] keeps the stack newest-first as a whole AND preserves
   the rest's internal order. The seed re-pushed one element at a time,
   which let a concurrent push land *between* two restored queues and
   shuffle their relative age — the order regression test pins this
   down. *)
let steal_inbox vs ~max_take pred =
  match Atomic.get vs.inbox with
  | [] -> []
  | _ -> (
    match Atomic.exchange vs.inbox [] with
    | [] -> []
    | got ->
      let claimed, rest = Policy.split_stack ~newest_first:got ~max_take pred in
      if rest <> [] then begin
        let rec restore () =
          let cur = Atomic.get vs.inbox in
          if not (Atomic.compare_and_set vs.inbox cur (cur @ rest)) then restore ()
        in
        restore ()
      end;
      claimed)

(* Returns the visit outcome plus how many queues the probe won. Under
   a batch policy a winning probe claims up to [Policy.want] queues: a
   contiguous worthy run of the victim's deque ([Spmc_queue.steal_many])
   or the oldest worthy block of its inbox. The first claimed queue
   becomes the thief's current directly (skipping the inbox/deque
   round-trip, as with single steal); the rest land on the thief's OWN
   deque — legal because the thief's domain is that deque's single
   producer — where they are next in rotation and, being still
   [chained], visible to second-order thieves for re-balancing.
   Ownership writes happen before the deque pushes, so any second thief
   that claims one synchronizes after our [owner] store. *)
let steal_from t w victim =
  let vs = t.states.(victim) in
  let ws = t.states.(w) in
  let threshold = Atomic.get t.worthy_threshold in
  (* Plain reads of the weighted pair: worthiness is a heuristic, a
     stale value only mis-ranks a candidate, never breaks safety. *)
  let worthy cq =
    (not t.ws.time_left) || cq.weighted_in - cq.weighted_out > threshold
  in
  let max_take =
    Policy.want (Atomic.get t.steal_policy) ~available:(Atomic.get vs.n_chained)
  in
  let claimed =
    match Spmc_queue.steal_many vs.deque ~budget:steal_scan_budget ~max_take worthy with
    | [] -> steal_inbox vs ~max_take worthy
    | run -> run
  in
  match claimed with
  | [] ->
    let outcome =
      if Atomic.get vs.n_chained <= 0 then
        if Atomic.get vs.current_color >= 0 then Trace.Executing else Trace.Empty
      else Trace.Unworthy
    in
    (outcome, 0)
  | first :: extra ->
    let k = List.length claimed in
    ignore (Atomic.fetch_and_add vs.n_chained (-k));
    List.iter (fun cq -> Atomic.set cq.owner w) claimed;
    ws.current <- Some first;
    Atomic.set ws.current_color first.color;
    ws.batch_remaining <- t.batch;
    List.iter
      (fun cq ->
        Atomic.incr ws.n_chained;
        Spmc_queue.push ws.deque cq)
      extra;
    Telemetry.note_queue_len ws.tel (cq_len first);
    Telemetry.on_steal t.telemetry ~thief:w ~victim ~count:k;
    (Trace.Won, k)

let try_steal t w =
  let ws = t.states.(w) in
  ws.tel.steal_rounds <- ws.tel.steal_rounds + 1;
  ws.probe_rounds <- ws.probe_rounds + 1;
  (* One clock read per probe feeds both the Visit span and the
     probe-cost EWMA; skipped entirely when neither consumer is on. *)
  let timing = (t.ws.locality && t.ws.latency) || t.trace <> None in
  let rec visit = function
    | [] -> false
    | victim :: rest ->
      let t0 = if timing then Clock.now_ns () else 0L in
      let outcome, won_count = steal_from t w victim in
      ws.tel.visits <- ws.tel.visits + 1;
      let t1 = if timing then Clock.now_ns () else 0L in
      if t.ws.locality && t.ws.latency then
        probe_cost_update ws victim ~outcome
          ~dt_ns:(Int64.to_float (Int64.sub t1 t0));
      (match t.trace with
      | Some tr ->
        Trace.record_visit tr ~worker:w ~victim ~outcome ~claimed:won_count ~ns:t1
      | None -> ());
      (match outcome with Trace.Won -> true | _ -> visit rest)
  in
  let won = visit (victim_order t w) in
  if not won then ws.tel.failed_rounds <- ws.tel.failed_rounds + 1;
  won

(* Idle policy: exponential backoff while unstealable work is pending
   elsewhere, park on the condition variable when nothing is pending at
   all (an executing handler may still register follow-ups; its enqueue
   wakes us). Every worker broadcasts once it observes quiescence so
   parked siblings re-check and exit. *)
let max_idle_backoff = 4_096

(* Events currently executing on slots that still have a live domain.
   Replaces the old global [active] counter: a busy bit stuck on a
   dead or confiscated slot must not keep quiescence (and therefore
   graceful drain) waiting forever — that was the hang the ISSUE's
   first satellite names. Each slot raises [busy_since] BEFORE
   decrementing [pending], so an observer that reads [pending = 0]
   cannot miss a live busy slot (SC order, same argument as the old
   counter); a dead slot's in-flight event was finalized by its death
   wrapper before [live] dropped. A slot also counts as active while it
   still OWNS a current queue ([current_color] >= 0): between the end of
   [execute] and [release_current] the handler is done but the color is
   still claimed, and an auditor that declared quiescence inside that
   window would see a stale current color. *)
let live_active t =
  let n = ref 0 in
  Array.iter
    (fun ws ->
      if
        Atomic.get ws.live
        && (Atomic.get ws.busy_since <> 0 || Atomic.get ws.current_color >= 0)
      then incr n)
    t.states;
  !n

(* Sleep while there is nothing for this worker to do. The predicate
   folds all three modes together: wait while no work is poppable AND
   either someone is still executing (their follow-ups may wake us) or
   the runtime is serving with no stop requested (quiescent but alive).
   An abort, a deliberate kill or a quarantine request always breaks
   the sleep. *)
let park t w ws =
  Mutex.lock t.park_mutex;
  Atomic.incr t.n_parked;
  let t0 = Clock.now_ns () in
  let slept = ref false in
  while
    Atomic.get t.shutdown <> aborted
    && (not (Atomic.get ws.kill_flag))
    && Atomic.get ws.q_state = q_normal
    && Atomic.get t.pending = 0
    && (live_active t > 0
       || (Atomic.get t.serving && Atomic.get t.shutdown = accepting))
  do
    if not !slept then begin
      (* Counted on falling asleep, so a parked worker is visible in
         snapshots while it is still parked. *)
      slept := true;
      ws.tel.parks <- ws.tel.parks + 1;
      ws.tel.parked_now <- true
    end;
    Condition.wait t.park_cond t.park_mutex
  done;
  Atomic.decr t.n_parked;
  Mutex.unlock t.park_mutex;
  if !slept then begin
    let t1 = Clock.now_ns () in
    ws.tel.parked_now <- false;
    ws.tel.park_ns <- ws.tel.park_ns + Int64.to_int (Int64.sub t1 t0);
    match t.trace with
    | Some tr -> Trace.record_park tr ~worker:w ~start_ns:t0 ~end_ns:t1
    | None -> ()
  end

let worker_loop t w =
  let ws = t.states.(w) in
  (match t.trace with
  | Some tr -> Trace.record_start tr ~worker:w ~ns:(Clock.now_ns ())
  | None -> ());
  let rec loop backoff =
    if Atomic.get t.shutdown = aborted then
      (* Exit without draining; wake siblings (and [stop]/[quiesce]
         waiters) so they notice the abort too. *)
      broadcast_all t
    else if Atomic.get ws.kill_flag then begin
      (* Deliberate death ([inject_worker_death]): always at an event
         boundary, so no accepted event is lost. *)
      Atomic.set ws.kill_flag false;
      raise Worker_killed
    end
    else begin
      (* Quarantine handshake: the supervisor asked us to stand down
         (wedge deadline passed while we were inside a handler). Ack
         and exit before touching [current] again — whoever wins the
         CAS decides; losing it means we were already confiscated. *)
      (match Atomic.get ws.q_state with
      | q when q = q_requested || q = q_confiscated ->
        ignore (Atomic.compare_and_set ws.q_state q_requested q_acked);
        raise Worker_quarantined
      | _ -> ());
      match next_event t ws with
      | Some (event, cq) ->
        (* The busy stamp is raised before [pending] drops (SC): an
           observer seeing [pending = 0] sees this slot busy, so
           quiescence cannot be declared under a running handler. The
           one pop stamp is the busy stamp, the heartbeat/wedge age and
           the handler's start; the end stamp is the next heartbeat. *)
        let t0 = Clock.now_ns () in
        Atomic.set ws.busy_since (max 1 (Int64.to_int t0));
        Atomic.decr t.pending;
        let t1 = execute t w cq event ~t0 in
        Atomic.set ws.busy_since 0;
        Atomic.set ws.hb_last (Int64.to_int t1);
        (* Seeded worker-death site: the chaos drills kill workers
           mid-storm here — after the event's accounting, so
           conservation survives every kill schedule. *)
        if Faults.is_active t.faults then begin
          match Faults.decide t.faults Faults.Kill with
          | Faults.Pass -> ()
          | _ -> raise Worker_killed
        end;
        loop 1
      | None ->
        if t.ws.enabled && Atomic.get t.pending > 0 && try_steal t w then loop 1
        else if Atomic.get t.pending > 0 then begin
          (* Work exists but is not (yet) stealable: bounded backoff.
             Relay the single-signal wakeup while we spin — if we were
             woken for work we turn out to be unable to take (wrong
             owner and unworthy/unstealable), the signal must not die
             with us while the responsible worker sleeps. *)
          wake_parked t;
          for _ = 1 to backoff do
            Domain.cpu_relax ()
          done;
          loop (min max_idle_backoff (backoff * 2))
        end
        else if live_active t > 0 then begin
          park t w ws;
          loop 1
        end
        else if Atomic.get t.serving && Atomic.get t.shutdown = accepting then begin
          (* Transient quiescence: the runtime stays up for the next
             burst. Only [quiesce] waiters care about this moment —
             they have their own condition variable, so parked sibling
             workers are not woken just to ping-pong back to sleep. *)
          if Atomic.get t.n_waiters > 0 then wake_quiescers t;
          park t w ws;
          loop 1
        end
        else if Atomic.get t.pending > 0 || live_active t > 0 then
          (* Re-check quiescence now that the closed gate has been
             observed: a register can raise [pending] after our first
             read yet still see [accepting] — but only if its increment
             precedes the gate transition, so this read (after the
             transition) cannot miss it. Without it the accepted event
             would be abandoned by the exiting workers. *)
          loop 1
        else
          (* Terminal quiescence: wake parked siblings and [quiesce]
             waiters so they observe it and exit too. *)
          broadcast_all t
    end
  in
  loop 1

(* ------------------------------------------------------------------ *)
(* Self-healing: death wrapper, color migration, supervisor domain.    *)

let set_phase ws p = Atomic.set ws.phase (phase_to_int p)

let get_phase ws = phase_of_int (Atomic.get ws.phase)

(* The dying domain's last act: fix the accounting for an event it was
   mid-way through (the event is consumed exactly once even when the
   consumer dies under it), leave a Death span in its own ring (still
   single-writer), and publish the death for the supervisor. [crashed]
   and the reason are written before [exited]: the supervisor reads
   them only after seeing [exited], so the atomic orders the plain
   field. *)
let on_death t w reason =
  let ws = t.states.(w) in
  (match ws.current with
  | Some cq when Atomic.get ws.busy_since <> 0 && Atomic.get cq.running > 0 ->
    (* Escaped from inside the handler: finish the event's accounting
       the same way the contained-failure path would have. *)
    Atomic.decr cq.running;
    ws.tel.executed <- ws.tel.executed + 1
  | _ -> ());
  Atomic.set ws.busy_since 0;
  Atomic.set ws.hb_last (now_int ());
  (match t.trace with
  | Some tr -> Trace.record_death tr ~worker:w ~reason ~ns:(Clock.now_ns ())
  | None -> ());
  ws.death_reason <- reason;
  Atomic.set ws.crashed true

let worker_main t w =
  let ws = t.states.(w) in
  (match worker_loop t w with
  | () -> Atomic.set ws.crashed false  (* clean terminal-quiescence exit *)
  | exception Worker_killed -> on_death t w "killed"
  | exception Worker_quarantined -> on_death t w "quarantined"
  | exception e -> on_death t w (Printexc.to_string e));
  Atomic.set ws.live false;
  Atomic.set ws.exited true;
  (* Parked siblings re-check liveness, [quiesce]/[stop] waiters
     re-evaluate, and the supervisor's next tick sees [exited]. *)
  broadcast_all t

(* Re-home one color-queue onto [target]. The ownership store comes
   before the inbox push, exactly as in [steal_from], so whoever later
   claims the queue synchronizes after it; [chained] stays true the
   whole way, so a racing publisher cannot double-chain it. *)
let rehome t cq target =
  Atomic.set cq.owner target;
  let ts = t.states.(target) in
  Atomic.incr ts.n_chained;
  inbox_push ts cq;
  Atomic.incr t.migration_count

(* Sweep every color off slot [w] and migrate it to survivors,
   round-robin. Only the supervisor calls this, and only once the
   slot's domain is confirmed gone (joined, or confiscated past the
   handshake): nothing else touches the slot's owner-private state.
   Idempotent — later ticks re-run it to catch straggler publishes
   that chained onto the dead slot with a pre-sweep [owner] read.
   Returns false when there is no live slot to migrate to. *)
let reclaim_slot t w =
  let ws = t.states.(w) in
  let targets =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun v ->
              if v <> w && Atomic.get t.states.(v).live then Some v else None)
            (Seq.init t.n Fun.id)))
  in
  match targets with
  | [] -> false
  | _ ->
    let ntargets = List.length targets in
    let ti = ref 0 in
    let next_target () =
      let v = List.nth targets (!ti mod ntargets) in
      incr ti;
      v
    in
    let moved = ref 0 in
    (match ws.current with
    | Some cq ->
      (* The in-flight queue: safe to take, the domain is gone (a
         wedged-but-alive domain goes through [force_confiscate],
         which never reaches here with [current] still set). Current
         queues are not counted in [n_chained]. *)
      ws.current <- None;
      Atomic.set ws.current_color (-1);
      Atomic.incr t.reclaim_count;
      rehome t cq (next_target ());
      incr moved
    | None -> ());
    let rec drain_deque () =
      match Spmc_queue.pop ws.deque with
      | Some cq ->
        Atomic.decr ws.n_chained;
        Atomic.incr t.reclaim_count;
        rehome t cq (next_target ());
        incr moved;
        drain_deque ()
      | None -> ()
    in
    drain_deque ();
    (match Atomic.exchange ws.inbox [] with
    | [] -> ()
    | got ->
      List.iter
        (fun cq ->
          Atomic.decr ws.n_chained;
          Atomic.incr t.reclaim_count;
          rehome t cq (next_target ());
          incr moved)
        (List.rev got));
    if !moved > 0 then wake_parked_n t !moved;
    true

let spawn_worker t w =
  let ws = t.states.(w) in
  Atomic.set ws.q_state q_normal;
  Atomic.set ws.kill_flag false;
  Atomic.set ws.busy_since 0;
  Atomic.set ws.hb_last (now_int ());
  Atomic.set ws.crashed false;
  Atomic.set ws.exited false;
  set_phase ws Supervision.Live;
  Atomic.set ws.live true;
  t.slot_domains.(w) <- Some (Domain.spawn (fun () -> worker_main t w))

(* Respawn a dead slot under the restart-backoff + storm breaker: the
   slot flaps at most [storm_max] times per window, then degrades to
   N-1 workers instead. *)
let maybe_restart t w now =
  if not (Atomic.get t.mon_stop) then begin
    let ws = t.states.(w) in
    match Supervision.Breaker.decide t.breakers.(w) ~now_ns:now with
    | Supervision.Breaker.Restart ->
      Supervision.Breaker.note_restart t.breakers.(w) ~now_ns:now;
      Atomic.incr ws.slot_restarts;
      Atomic.incr t.restart_count;
      set_phase ws Supervision.Restarting;
      spawn_worker t w
    | Supervision.Breaker.Wait _ -> ()
    | Supervision.Breaker.Give_up ->
      if get_phase ws <> Supervision.Lost then begin
        set_phase ws Supervision.Lost;
        Atomic.set t.degraded true;
        broadcast_all t
      end
  end

(* A quarantined worker never acked within the confirm window: it is
   wedged inside the handler with no way to preempt it. Win the
   confiscation CAS (the worker can now only observe it and exit),
   declare the slot Lost — it is never respawned, so the zombie stays
   the sole writer of this slot's telemetry/trace shards — abandon the
   wedged color's backlog (its mutual exclusion cannot be certified
   while the zombie may still be running it) and migrate the innocent
   colors to survivors. *)
let force_confiscate t w =
  let ws = t.states.(w) in
  if Atomic.compare_and_set ws.q_state q_requested q_confiscated then begin
    Atomic.set ws.live false;
    set_phase ws Supervision.Lost;
    Atomic.set t.degraded true;
    (match ws.current with
    | Some cq ->
      ws.current <- None;
      Atomic.set ws.current_color (-1);
      Atomic.incr t.reclaim_count;
      let sh = shard_of t cq.color in
      (* Poison and drain under the shard lock: a push serialized
         before us is drained here; one serialized after sees
         [poisoned] and is refused. The wedged in-flight event counts
         abandoned too — if the zombie ever finishes it, [execute]
         sees [q_confiscated] and skips the executed increment, so it
         is never double-counted. *)
      let dropped = ref 1 in
      Spinlock.with_lock sh.sh_lock (fun () ->
          cq.poisoned <- true;
          let rec drain () =
            match evq_pop cq with
            | Some _ ->
              incr dropped;
              Atomic.decr t.pending;
              drain ()
            | None -> ()
          in
          drain ());
      ignore (Atomic.fetch_and_add t.abandoned !dropped)
    | None -> ());
    ignore (reclaim_slot t w);
    broadcast_all t
  end

(* Watchdog for one live slot: the busy stamp is the heartbeat. *)
let check_live_slot t w now =
  let ws = t.states.(w) in
  let busy = Atomic.get ws.busy_since in
  if busy = 0 then begin
    if get_phase ws = Supervision.Suspect then set_phase ws Supervision.Live;
    Supervision.Breaker.note_healthy t.breakers.(w) ~now_ns:now
  end
  else begin
    let age = now - busy in
    let q = Atomic.get ws.q_state in
    if q = q_normal then begin
      if age > t.sup.wedge_kill_ns then begin
        ws.q_since <- now;
        if Atomic.compare_and_set ws.q_state q_normal q_requested then begin
          set_phase ws Supervision.Quarantined;
          broadcast_all t
        end
      end
      else if age > t.sup.wedge_warn_ns then set_phase ws Supervision.Suspect
    end
    else if q = q_requested && now - ws.q_since > t.sup.confirm_wait_ns then
      force_confiscate t w
  end

(* A slot's domain exited: join it (the wrapper finished, so the join
   is immediate and provides the happens-before for the sweep), then
   reclaim and maybe respawn. Clean terminal-quiescence exits released
   everything themselves; Lost slots were reclaimed at confiscation. *)
let handle_exit t w now =
  let ws = t.states.(w) in
  (match t.slot_domains.(w) with
  | Some d ->
    Domain.join d;
    t.slot_domains.(w) <- None
  | None -> ());
  Atomic.set ws.exited false;
  if Atomic.get ws.crashed && get_phase ws <> Supervision.Lost then begin
    set_phase ws Supervision.Dead;
    ignore (reclaim_slot t w);
    if Atomic.get t.shutdown = accepting then maybe_restart t w now
  end

let supervise_tick t =
  let now = now_int () in
  for w = 0 to t.n - 1 do
    let ws = t.states.(w) in
    if Atomic.get ws.exited then handle_exit t w now
    else if Atomic.get ws.live then check_live_slot t w now
    else if get_phase ws = Supervision.Dead || get_phase ws = Supervision.Lost
    then begin
      (* Down slot: catch straggler publishes that chained onto it
         behind a pre-sweep [owner] read, then retry the backoff. *)
      ignore (reclaim_slot t w);
      if get_phase ws = Supervision.Dead && Atomic.get t.shutdown = accepting
      then maybe_restart t w now
    end
  done;
  (* With every slot down for good, pending work can never drain:
     abort so drains and [quiesce] waiters return honestly instead of
     hanging — the degraded-to-zero endgame. *)
  if
    Atomic.get t.pending > 0
    && Atomic.get t.shutdown <> aborted
    && (not (Array.exists (fun ws -> Atomic.get ws.live) t.states))
    && (not (Array.exists (fun ws -> Atomic.get ws.exited) t.states))
    && not
         (Atomic.get t.shutdown = accepting
         && Array.exists (fun ws -> get_phase ws = Supervision.Dead) t.states)
  then request_abort t

let monitor_loop t =
  while not (Atomic.get t.mon_stop) do
    supervise_tick t;
    Unix.sleepf t.sup.poll_interval_s
  done;
  (* Final sweep so domains whose wrapper finished while we were being
     stopped are joined before the lifecycle collects the rest. *)
  supervise_tick t

let stop_monitor t =
  Atomic.set t.mon_stop true;
  (match t.monitor with Some d -> Domain.join d | None -> ());
  t.monitor <- None

(* Join every slot domain that can be joined. A force-confiscated
   zombie that never returned cannot be joined without hanging; its
   handle is abandoned — the slot is Lost and the runtime degraded,
   which is the honest cost of a handler that never yields. *)
let join_workers t =
  Array.iteri
    (fun w d ->
      match d with
      | None -> ()
      | Some d ->
        let ws = t.states.(w) in
        if get_phase ws <> Supervision.Lost || Atomic.get ws.exited then begin
          Domain.join d;
          t.slot_domains.(w) <- None
        end)
    t.slot_domains

(* Spawn workers on every joinable slot plus the supervisor. A fresh
   lifecycle gives previously-Lost slots another chance as long as
   their zombie was actually joined; [degraded] is recomputed from
   what is still stuck. *)
let spawn_all t =
  Atomic.set t.mon_stop false;
  for w = 0 to t.n - 1 do
    if t.slot_domains.(w) = None then spawn_worker t w
  done;
  Atomic.set t.degraded
    (Array.exists (fun ws -> get_phase ws = Supervision.Lost) t.states);
  t.monitor <- Some (Domain.spawn (fun () -> monitor_loop t))

(* Wait for a moment of quiescence without stopping. Workers broadcast
   [quiesce_cond] (under the park mutex) every time they observe
   [pending = 0] with nothing executing on a live slot and waiters
   present, and terminal quiescence / abort / worker death broadcast
   unconditionally, so the predicate here cannot miss its wakeup.
   Counting only *live* slots is what keeps a drain from hanging on a
   worker that died mid-drain (its colors finish on survivors). *)
let quiesce t =
  Mutex.lock t.park_mutex;
  Atomic.incr t.n_waiters;
  while
    Atomic.get t.shutdown <> aborted
    && not (Atomic.get t.pending = 0 && live_active t = 0)
  do
    Condition.wait t.quiesce_cond t.park_mutex
  done;
  Atomic.decr t.n_waiters;
  Mutex.unlock t.park_mutex

let run_until_idle t =
  Mutex.lock t.lifecycle_lock;
  if t.running then begin
    Mutex.unlock t.lifecycle_lock;
    invalid_arg "Rt.Runtime.run_until_idle: already running"
  end;
  t.running <- true;
  Atomic.set t.shutdown accepting;
  Mutex.unlock t.lifecycle_lock;
  spawn_all t;
  (* Workers exit at terminal quiescence (or abort) on their own; the
     supervisor keeps healing mid-run, so the join set can grow — wait
     for quiescence first, then stop the supervisor, then collect. *)
  quiesce t;
  stop_monitor t;
  join_workers t;
  Mutex.lock t.lifecycle_lock;
  t.running <- false;
  Mutex.unlock t.lifecycle_lock

let start t =
  Mutex.lock t.lifecycle_lock;
  if t.running then begin
    Mutex.unlock t.lifecycle_lock;
    invalid_arg "Rt.Runtime.start: already running"
  end;
  t.running <- true;
  Atomic.set t.shutdown accepting;
  Atomic.set t.serving true;
  spawn_all t;
  Mutex.unlock t.lifecycle_lock

let stop t =
  Mutex.lock t.lifecycle_lock;
  if not (Atomic.get t.serving) then begin
    Mutex.unlock t.lifecycle_lock;
    invalid_arg "Rt.Runtime.stop: not serving"
  end;
  (* Close the gate (unless an abort already did) and wake everyone:
     workers drain the backlog, then exit at quiescence. The
     supervisor stays up during the drain — a worker that dies
     mid-drain has its colors migrated so the backlog still finishes
     on survivors before the join. *)
  ignore (Atomic.compare_and_set t.shutdown accepting draining);
  broadcast_all t;
  quiesce t;
  stop_monitor t;
  join_workers t;
  Atomic.set t.serving false;
  t.running <- false;
  Mutex.unlock t.lifecycle_lock

let inject_worker_death t w =
  if w < 0 || w >= t.n then
    invalid_arg "Rt.Runtime.inject_worker_death: no such worker";
  Atomic.set t.states.(w).kill_flag true;
  broadcast_all t

let steal_policy t = Atomic.get t.steal_policy
let worthy_threshold t = Atomic.get t.worthy_threshold

let controller_snapshot t =
  Option.map
    (fun (ctl, lock) ->
      Mutex.lock lock;
      let s = Policy.Controller.snapshot ctl in
      Mutex.unlock lock;
      s)
    t.controller

(* Totals are sums over the single-writer shards: nothing on the hot
   path counts them a second time. *)
let executed t = Telemetry.total t.telemetry (fun s -> s.executed)

let steals t =
  Telemetry.total t.telemetry (fun s -> Array.fold_left ( + ) 0 s.steals_from)

let steal_attempts t = Telemetry.total t.telemetry (fun s -> s.steal_rounds)
let errors t = Telemetry.total t.telemetry (fun s -> s.errors)

(* One controller decision from the just-closed telemetry window: merge
   the per-worker window histograms, tick, publish the new operating
   point through the two atomics. Callers must have swapped the window
   first. The ctl mutex serializes concurrent scrapers; workers never
   take it. *)
let apply_controller t =
  match t.controller with
  | None -> ()
  | Some (ctl, lock) ->
    let merged = ref None in
    let epoch = Telemetry.epoch t.telemetry in
    Array.iter
      (fun ws ->
        let win = Mstd.Histogram.Windowed.window ws.tel.qwait ~epoch in
        match !merged with
        | None -> merged := Some win
        | Some into -> Mstd.Histogram.merge ~into win)
      t.states;
    let signal =
      match !merged with
      | None ->
        {
          Policy.Controller.sig_qwait_p99_ns = 0.0;
          sig_window_events = 0;
          sig_steals = steals t;
        }
      | Some h ->
        {
          Policy.Controller.sig_qwait_p99_ns = Mstd.Histogram.quantile h 0.99;
          sig_window_events = Mstd.Histogram.count h;
          sig_steals = steals t;
        }
    in
    Mutex.lock lock;
    Policy.Controller.tick ctl signal;
    Atomic.set t.steal_policy (Policy.Controller.batch ctl);
    Atomic.set t.worthy_threshold (Policy.Controller.threshold ctl);
    Mutex.unlock lock

(* Close the current streaming window and let the controller consume
   it — the driver for benches and embedders that do not go through
   [telemetry_snapshot ~swap_window:true]. *)
let tick_controller t =
  Telemetry.swap_window t.telemetry;
  apply_controller t

let max_concurrent_same_color t = Atomic.get t.max_same_color
let pending t = Atomic.get t.pending
let refused t = Atomic.get t.refused
let is_serving t = Atomic.get t.serving
let abandoned t = Atomic.get t.abandoned
let worker_restarts t = Atomic.get t.restart_count
let migrations t = Atomic.get t.migration_count
let is_degraded t = Atomic.get t.degraded

let live_workers t =
  Array.fold_left
    (fun acc ws -> if Atomic.get ws.live then acc + 1 else acc)
    0 t.states

let worker_phase t w =
  if w < 0 || w >= t.n then
    invalid_arg "Rt.Runtime.worker_phase: no such worker";
  phase_of_int (Atomic.get t.states.(w).phase)

let trace t = t.trace

(* Conservation audit over the lock-free structure. Takes every shard
   lock (freezing publishers and retire, not consumers), then checks:

   - a mapped queue is never retired and is keyed by its own color;
   - queued lengths are never negative ([popped] may read stale from
     here, but stale-low only overcounts the length, so a negative
     reading is a real bug);
   - at quiescence ([pending = 0 && active = 0] observed under the
     locks, with the caller synchronized against the workers — e.g.
     after [quiesce] or [stop] returned) the structure must be empty:
     every length counter zero and agreeing with a walk of its linked
     queue, consumed weight equal to enqueued weight, every chain
     count zero.

   Mid-flight the per-queue walk and the exact totals are skipped:
   consumers advance [evq_head]/[popped] without a lock, so only the
   quiescent snapshot is exact. *)
let debug_check_conservation t =
  Array.iter (fun sh -> Spinlock.acquire sh.sh_lock) t.shards;
  let pending_now = Atomic.get t.pending in
  let active_now = live_active t in
  let quiescent = pending_now = 0 && active_now = 0 in
  let problem = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  let total = ref 0 in
  Array.iter
    (fun sh ->
      Hashtbl.iter
        (fun color cq ->
          if cq.retired then note "color %d: retired queue still mapped" color;
          if color <> cq.color then note "color %d: mapped queue says color %d" color cq.color;
          let len = cq_len cq in
          if len < 0 then note "color %d: negative queue length %d" color len;
          total := !total + max 0 len;
          (* A poisoned queue belonged to a confiscated slot: its
             backlog was abandoned without consuming weight, and its
             zombie may still hold [running] — the exact quiescent
             invariants no longer apply to it. *)
          if quiescent && not cq.poisoned then begin
            if len <> 0 then note "color %d: %d events queued at quiescence" color len;
            let rec walk n acc =
              match Atomic.get n.node_next with None -> acc | Some m -> walk m (acc + 1)
            in
            let actual = walk cq.evq_head 0 in
            if actual <> len then
              note "color %d: counter says %d queued, walk finds %d" color len actual;
            if cq.weighted_in <> cq.weighted_out then
              note "color %d: weighted in %d <> out %d at quiescence" color
                cq.weighted_in cq.weighted_out;
            if Atomic.get cq.running <> 0 then
              note "color %d: running %d at quiescence" color (Atomic.get cq.running)
          end)
        sh.sh_tbl)
    t.shards;
  (* [popped] can read stale (low) from here mid-flight, so the length
     sum can only overcount; the exact [<= pending] bound is therefore
     asserted only on the quiescent snapshot, where it degenerates to
     the per-queue emptiness checks above. *)
  if quiescent && !total > pending_now then
    note "queued events (%d) exceed pending (%d)" !total pending_now;
  if quiescent then
    Array.iteri
      (fun w ws ->
        let c = Atomic.get ws.n_chained in
        if c <> 0 then note "worker %d: n_chained = %d at quiescence" w c;
        if Atomic.get ws.current_color >= 0 then
          note "worker %d: current color %d at quiescence" w (Atomic.get ws.current_color))
      t.states;
  Array.iter (fun sh -> Spinlock.release sh.sh_lock) t.shards;
  !problem

(* Overload-armor notifications from serving layers above the runtime
   (lib/rtnet). Both must be called from inside a handler running on
   [worker]: the trace ring is single-writer per worker domain, so the
   calling domain has to be the one executing that worker's loop. *)
let note_shed t ~worker ~color =
  let s = t.states.(worker).tel in
  s.sheds <- s.sheds + 1;
  match t.trace with
  | Some tr -> Trace.record_shed tr ~worker ~color ~ns:(Clock.now_ns ())
  | None -> ()

let note_evict t ~worker ~color =
  let s = t.states.(worker).tel in
  s.evictions <- s.evictions + 1;
  match t.trace with
  | Some tr -> Trace.record_evict tr ~worker ~color ~ns:(Clock.now_ns ())
  | None -> ()

(* Assemble the full telemetry-plane snapshot. Safe at any instant:
   every source is either atomic or a single-writer cell whose racy
   read is monotone (see [Telemetry]). With [swap_window] the streaming
   windows are rotated first, so the returned window histograms cover
   the interval since the previous swap. *)
let telemetry_snapshot ?(swap_window = false) t =
  if swap_window then begin
    Telemetry.swap_window t.telemetry;
    (* The epoch swap is the controller's clock: whoever closes a
       window hands it to the tuner, so a periodic scraper (the admin
       plane's /stats.json?swap=1) drives adaptation for free. *)
    apply_controller t
  end;
  let snap_now = now_int () in
  let epoch = Telemetry.epoch t.telemetry in
  (* One copy of the steal matrix feeds every row and column sum, so
     steals in/out and [s_steals] agree exactly within a snapshot. *)
  let rows = Array.map (fun ws -> Array.copy ws.tel.steals_from) t.states in
  let worker w =
    let ws = t.states.(w) in
    let s = ws.tel in
    let busy = Atomic.get ws.busy_since in
    {
      Telemetry.w_id = w;
      w_executed = s.executed;
      w_enqueued = Atomic.get s.enqueued;
      w_steals_in = Array.fold_left ( + ) 0 rows.(w);
      w_steals_out = Array.fold_left (fun acc row -> acc + row.(w)) 0 rows;
      w_steal_rounds = s.steal_rounds;
      w_failed_rounds = s.failed_rounds;
      w_visits = s.visits;
      w_parks = s.parks;
      w_park_ns = s.park_ns;
      w_parked = s.parked_now;
      w_queue_hwm = Atomic.get s.queue_hwm;
      w_errors = s.errors;
      w_last_error = s.last_error;
      w_sheds = s.sheds;
      w_evictions = s.evictions;
      w_inbox_depth = Atomic.get ws.n_chained;
      w_current_color = Atomic.get ws.current_color;
      w_qwait_sum_ns = s.qwait_sum_ns;
      w_service_sum_ns = s.service_sum_ns;
      w_qwait = Mstd.Histogram.Windowed.cumulative s.qwait;
      w_service = Mstd.Histogram.Windowed.cumulative s.service;
      w_qwait_win = Mstd.Histogram.Windowed.window s.qwait ~epoch;
      w_service_win = Mstd.Histogram.Windowed.window s.service ~epoch;
      w_steals_from = rows.(w);
      w_live = Atomic.get ws.live;
      w_phase = phase_of_int (Atomic.get ws.phase);
      w_hb_age_ns = max 0 (snap_now - Atomic.get ws.hb_last);
      w_busy_ns = (if busy = 0 then 0 else max 0 (snap_now - busy));
      w_restarts = Atomic.get ws.slot_restarts;
    }
  in
  let s_workers = Array.init t.n worker in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 s_workers in
  {
    Telemetry.s_epoch = epoch;
    s_workers;
    s_executed = sum (fun w -> w.Telemetry.w_executed);
    s_steals = sum (fun w -> w.Telemetry.w_steals_in);
    s_steal_attempts = sum (fun w -> w.Telemetry.w_steal_rounds);
    s_errors = sum (fun w -> w.Telemetry.w_errors);
    s_pending = Atomic.get t.pending;
    s_active = live_active t;
    s_refused = Atomic.get t.refused;
    s_serving = Atomic.get t.serving;
    s_accepting = Atomic.get t.shutdown = accepting;
    s_steal_policy = Atomic.get t.steal_policy;
    s_worthy_threshold = Atomic.get t.worthy_threshold;
    s_controller = controller_snapshot t;
    s_live_workers =
      Array.fold_left
        (fun acc ws -> if Atomic.get ws.live then acc + 1 else acc)
        0 t.states;
    s_degraded = Atomic.get t.degraded;
    s_restarts = Atomic.get t.restart_count;
    s_migrations = Atomic.get t.migration_count;
    s_reclaimed = Atomic.get t.reclaim_count;
    s_abandoned = Atomic.get t.abandoned;
  }
