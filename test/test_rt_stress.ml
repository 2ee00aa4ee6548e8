(* Randomized concurrency stress for the real multicore runtime.

   These tests hammer the two ownership-transfer windows the seed
   runtime got wrong, across many short multi-domain runs so the OS
   scheduler supplies the interleavings:

   - steal vs. enqueue: a thief unchains a color-queue under the
     victim's lock but (in the seed) only took ownership later under its
     own lock, letting a concurrent enqueuer re-validate the stale owner
     and double-chain the queue;
   - drain vs. enqueue: [forget_if_drained] (in the seed) inspected the
     queue under the map lock only, so an enqueuer that had already
     located the queue could push into it right after it was unmapped,
     after which the color re-hashed to a second queue and two
     same-color events could run in parallel.

   Detection is deliberately independent of the runtime's own
   [max_concurrent_same_color] counter: handlers raise a per-color
   atomic in-flight flag, so even a runtime bug that splits one color
   across two queue objects (each with its own counter) is caught. *)

(* Per-color mutual-exclusion probe shared by the tests below. *)
let make_probe n_colors =
  let in_flight = Array.init n_colors (fun _ -> Atomic.make 0) in
  let violations = Atomic.make 0 in
  let enter slot =
    if 1 + Atomic.fetch_and_add in_flight.(slot) 1 > 1 then Atomic.incr violations
  in
  let leave slot = Atomic.decr in_flight.(slot) in
  (enter, leave, violations)

let busywork iters =
  let acc = ref 0 in
  for j = 1 to iters do
    acc := !acc + j
  done;
  ignore !acc

(* The ownership/recycled/FIFO scenarios below are parameterized by the
   batch steal policy: [policy = None] is the original untraced
   Steal_one run; [Some p] runs the same scenario under [p] with the
   flight recorder on, and each run's real-domain trace must pass the
   offline replay checkers — multi-queue claims must not be able to buy
   throughput at the expense of mutual exclusion or per-color FIFO. *)
let make_rt ?policy ~workers () =
  match policy with
  | None -> Rt.Runtime.create ~workers ()
  | Some p ->
    Rt.Runtime.create ~workers ~steal_policy:p
      ~trace:{ Rt.Trace.capacity = 16_384; histograms = false }
      ()

let certify_trace ~msg rt =
  match Rt.Runtime.trace rt with
  | None -> ()
  | Some tr ->
    (match Rt.Trace.check_mutual_exclusion tr with
    | None -> ()
    | Some v ->
      let (wa, a), (wb, b) = (v.Rt.Trace.va, v.vb) in
      Alcotest.failf "%s: mutual-exclusion violation color %d (%s on w%d vs %s on w%d)"
        msg a.Rt.Trace.x_color a.x_handler wa b.x_handler wb);
    (match Rt.Trace.check_fifo_per_color tr with
    | None -> ()
    | Some v ->
      let (_, a), (_, b) = (v.Rt.Trace.va, v.vb) in
      Alcotest.failf "%s: FIFO violation color %d (seq %d ran before seq %d)" msg
        a.Rt.Trace.x_color b.x_seq a.x_seq)

(* Steal/enqueue ownership transfer: all colors hash to worker 0 and
   every handler registers the *next* color in a ring, so enqueues to a
   color keep arriving from handlers running on other workers while that
   color's queue sits stealable — exactly the collision the seed's
   deferred ownership transfer loses. *)
let test_steal_enqueue_ownership ?policy ?(runs = 60) () =
  let total_steals = ref 0 in
  for run = 1 to runs do
    let workers = 2 + (run mod 3) in
    let rt = make_rt ?policy ~workers () in
    (* Large declared cycles: every color is immediately steal-worthy. *)
    let h = Rt.Runtime.handler rt ~name:"own" ~declared_cycles:500_000 () in
    let n_colors = 6 and seeds = 4 and depth = 5 in
    let count = Atomic.make 0 in
    let enter, leave, violations = make_probe n_colors in
    (* all colors ≡ 0 mod workers; slot [s] is color [workers * (s+1)] *)
    let color_of s = workers * (s + 1) in
    for c = 0 to n_colors - 1 do
      let slot_at d = (c + depth - d) mod n_colors in
      let rec work d (ctx : Rt.Runtime.ctx) =
        let slot = slot_at d in
        enter slot;
        Atomic.incr count;
        busywork 10_000;
        leave slot;
        if d > 0 then ctx.register ~color:(color_of (slot_at (d - 1))) ~handler:h
            (work (d - 1))
      in
      for _ = 1 to seeds do
        Rt.Runtime.register rt ~color:(color_of (slot_at depth)) ~handler:h (work depth)
      done
    done;
    Rt.Runtime.run_until_idle rt;
    let expected = n_colors * seeds * (depth + 1) in
    Alcotest.(check int) (Printf.sprintf "run %d: exactly once" run) expected
      (Atomic.get count);
    Alcotest.(check int) (Printf.sprintf "run %d: executed" run) expected
      (Rt.Runtime.executed rt);
    Alcotest.(check int) (Printf.sprintf "run %d: probe serial" run) 0
      (Atomic.get violations);
    Alcotest.(check int) (Printf.sprintf "run %d: runtime serial" run) 1
      (Rt.Runtime.max_concurrent_same_color rt);
    (* Cross-check the per-worker rows against the global counters. *)
    let sum = Rt_test_util.sum_workers rt in
    Alcotest.(check int)
      (Printf.sprintf "run %d: stats executed" run)
      expected
      (sum (fun (w : Rt.Telemetry.worker_snap) -> w.w_executed));
    Alcotest.(check int)
      (Printf.sprintf "run %d: steals in = steals" run)
      (Rt.Runtime.steals rt)
      (sum (fun (w : Rt.Telemetry.worker_snap) -> w.w_steals_in));
    Alcotest.(check int)
      (Printf.sprintf "run %d: steals out = steals" run)
      (Rt.Runtime.steals rt)
      (sum (fun (w : Rt.Telemetry.worker_snap) -> w.w_steals_out));
    total_steals := !total_steals + Rt.Runtime.steals rt;
    certify_trace ~msg:(Printf.sprintf "ownership run %d" run) rt
  done;
  Alcotest.(check bool) "ownership transfers exercised" true (!total_steals > 0)

(* Drain/recycle: a tiny color space and handlers that immediately hop
   to another color, so every queue drains (and is eligible for
   unmapping) between consecutive events of its color. An enqueuer
   racing [forget_if_drained] on the seed code pushes into a dropped
   queue and the event is duplicated onto a fresh queue or lost. *)
let test_recycled_colors ?policy ?(runs = 50) () =
  for run = 1 to runs do
    let workers = 2 + (run mod 3) in
    let rt = make_rt ?policy ~workers () in
    let h = Rt.Runtime.handler rt ~name:"recycle" ~declared_cycles:100_000 () in
    let n_colors = 3 and chains = 6 and depth = 40 in
    let count = Atomic.make 0 in
    let enter, leave, violations = make_probe n_colors in
    for j = 0 to chains - 1 do
      (* The event at depth [d] of chain [j] runs under color
         [1 + slot_at d]; consecutive hops use different colors so each
         queue drains (and may be unmapped) between its uses, and the
         chains' phases collide on the same colors from different
         workers. *)
      let slot_at d = (j + depth - d) mod n_colors in
      let rec hop d (ctx : Rt.Runtime.ctx) =
        let slot = slot_at d in
        enter slot;
        Atomic.incr count;
        busywork 5_000;
        leave slot;
        if d > 0 then ctx.register ~color:(1 + slot_at (d - 1)) ~handler:h (hop (d - 1))
      in
      Rt.Runtime.register rt ~color:(1 + slot_at depth) ~handler:h (hop depth)
    done;
    Rt.Runtime.run_until_idle rt;
    let expected = chains * (depth + 1) in
    Alcotest.(check int) (Printf.sprintf "run %d: exactly once" run) expected
      (Atomic.get count);
    Alcotest.(check int) (Printf.sprintf "run %d: probe serial" run) 0
      (Atomic.get violations);
    Alcotest.(check int) (Printf.sprintf "run %d: runtime serial" run) 1
      (Rt.Runtime.max_concurrent_same_color rt);
    certify_trace ~msg:(Printf.sprintf "recycle run %d" run) rt
  done

(* Per-color FIFO must survive steals and recycling: each color records
   its observed sequence numbers; mutual exclusion makes the per-color
   array single-writer. *)
let test_fifo_under_stealing ?policy ?(runs = 50) () =
  for run = 1 to runs do
    let workers = 2 + (run mod 3) in
    let rt = make_rt ?policy ~workers () in
    let h = Rt.Runtime.handler rt ~name:"fifo" ~declared_cycles:200_000 () in
    let n_colors = 5 and per_color = 30 in
    let seen = Array.make n_colors [] in
    let violations = Atomic.make 0 in
    for seq = 0 to (n_colors * per_color) - 1 do
      let c = seq mod n_colors in
      Rt.Runtime.register rt ~color:(workers * (c + 1)) ~handler:h (fun _ ->
          (match seen.(c) with
          | last :: _ when last > seq -> Atomic.incr violations
          | _ -> ());
          seen.(c) <- seq :: seen.(c);
          busywork 500)
    done;
    Rt.Runtime.run_until_idle rt;
    Alcotest.(check int) (Printf.sprintf "run %d: fifo" run) 0 (Atomic.get violations);
    Array.iteri
      (fun c entries ->
        Alcotest.(check int)
          (Printf.sprintf "run %d: color %d complete" run c)
          per_color (List.length entries))
      seen;
    certify_trace ~msg:(Printf.sprintf "fifo run %d" run) rt
  done

(* Parking: while a single serial color executes, every other worker has
   nothing pending and must park (not spin). The first chain event holds
   the runtime active until it observes a parked sibling in the stats
   (bounded spin — generous, because on a loaded host the idle domains
   are scheduled late); the follow-ups then prove parked workers are
   woken by enqueues, and termination proves the quiescence broadcast. *)
let test_parking_on_serial_chain () =
  let rt = Rt.Runtime.create ~workers:4 () in
  let h = Rt.Runtime.handler rt ~name:"serial" ~declared_cycles:50_000 () in
  let count = Atomic.make 0 in
  let parked_seen = Atomic.make false in
  let sum_parks () =
    Rt_test_util.sum_workers rt (fun (w : Rt.Telemetry.worker_snap) -> w.w_parks)
  in
  let rec chain depth (ctx : Rt.Runtime.ctx) =
    Atomic.incr count;
    if depth > 0 then ctx.register ~color:1 ~handler:h (chain (depth - 1))
  in
  Rt.Runtime.register rt ~color:1 ~handler:h (fun ctx ->
      Atomic.incr count;
      let budget = ref 100_000 in
      while (not (Atomic.get parked_seen)) && !budget > 0 do
        decr budget;
        if sum_parks () > 0 then Atomic.set parked_seen true
        else
          for _ = 1 to 2_000 do
            Domain.cpu_relax ()
          done
      done;
      ctx.register ~color:1 ~handler:h (chain 40));
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "chain complete" 42 (Atomic.get count);
  Alcotest.(check bool) "idle workers parked" true (Atomic.get parked_seen);
  Alcotest.(check int) "serial" 1 (Rt.Runtime.max_concurrent_same_color rt);
  let park_ns =
    Rt_test_util.sum_workers rt (fun (w : Rt.Telemetry.worker_snap) -> w.w_park_ns)
  in
  Alcotest.(check bool) "park time recorded" true (park_ns >= 0)

(* ------------------------------------------------------------------ *)
(* Serving lifecycle and fault containment.                           *)

exception Boom of int

(* Regression for the execute/active deadlock: a handler exception used
   to escape [worker_loop] before the [active] decrement, killing the
   domain while parked siblings waited on [active > 0] forever. Raising
   handlers are spread across colors homing on all 4 workers, mixed
   with healthy events; the run must terminate, report every failure
   through [stats], and lose none of the healthy events. *)
let test_raising_handlers_terminate () =
  let rt = Rt.Runtime.create ~workers:4 () in
  let bad = Rt.Runtime.handler rt ~name:"bad" ~declared_cycles:100_000 () in
  let good = Rt.Runtime.handler rt ~name:"good" ~declared_cycles:100_000 () in
  let n_bad = 40 and n_good = 200 in
  let ran = Atomic.make 0 in
  for i = 0 to n_bad - 1 do
    (* colors 1..n_bad: homes on every worker *)
    Rt.Runtime.register rt ~color:(1 + i) ~handler:bad (fun _ -> raise (Boom i))
  done;
  for i = 0 to n_good - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod 64)) ~handler:good (fun _ ->
        busywork 2_000;
        Atomic.incr ran)
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "healthy events all ran" n_good (Atomic.get ran);
  Alcotest.(check int) "failures counted" n_bad (Rt.Runtime.errors rt);
  Alcotest.(check int) "failed events still consumed" (n_bad + n_good)
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "nothing left pending" 0 (Rt.Runtime.pending rt);
  let workers = (Rt.Runtime.telemetry_snapshot rt).s_workers in
  let sum_errors =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) -> acc + w.w_errors)
      0 workers
  in
  Alcotest.(check int) "stats errors tie out" n_bad sum_errors;
  let reported =
    Array.exists
      (fun (w : Rt.Telemetry.worker_snap) ->
        match w.w_last_error with Some ("bad", _) -> true | _ -> false)
      workers
  in
  Alcotest.(check bool) "failing handler named in stats" true reported

(* Stop_runtime: the first failure closes the gate; workers exit
   without draining, the backlog stays observable, and later registers
   are refused until the next run resets the gate. *)
let test_stop_runtime_policy () =
  let rt = Rt.Runtime.create ~workers:4 ~on_error:Stop_runtime () in
  let h = Rt.Runtime.handler rt ~name:"mix" ~declared_cycles:50_000 () in
  let total = 400 in
  for i = 0 to total - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod 32)) ~handler:h (fun _ ->
        busywork 2_000;
        if i = 37 then failwith "poisoned event")
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check bool) "failure recorded" true (Rt.Runtime.errors rt >= 1);
  Alcotest.(check int) "backlog accounted" total
    (Rt.Runtime.executed rt + Rt.Runtime.pending rt);
  let refused_before = Rt.Runtime.refused rt in
  let accepted = Rt.Runtime.try_register rt ~color:1 ~handler:h (fun _ -> ()) in
  Alcotest.(check bool) "gate stays closed after abort" false accepted;
  Alcotest.(check int) "refusal counted" (refused_before + 1) (Rt.Runtime.refused rt)

(* Under Swallow a serving runtime keeps accepting and executing after
   failures — the error is contained, the service stays up. *)
let test_swallow_keeps_serving () =
  let rt = Rt.Runtime.create ~workers:4 ~on_error:Swallow () in
  let bad = Rt.Runtime.handler rt ~name:"bad" ~declared_cycles:10_000 () in
  let good = Rt.Runtime.handler rt ~name:"good" ~declared_cycles:10_000 () in
  let ran = Atomic.make 0 in
  Rt.Runtime.start rt;
  for i = 0 to 19 do
    Alcotest.(check bool) "bad accepted" true
      (Rt.Runtime.try_register rt ~color:(1 + i) ~handler:bad (fun _ ->
           failwith "contained"))
  done;
  Rt.Runtime.quiesce rt;
  Alcotest.(check bool) "still serving after failures" true (Rt.Runtime.is_serving rt);
  for i = 0 to 99 do
    Alcotest.(check bool) "good accepted" true
      (Rt.Runtime.try_register rt ~color:(1 + (i mod 8)) ~handler:good (fun _ ->
           Atomic.incr ran))
  done;
  Rt.Runtime.quiesce rt;
  Rt.Runtime.stop rt;
  Alcotest.(check int) "post-failure events all ran" 100 (Atomic.get ran);
  Alcotest.(check int) "failures counted" 20 (Rt.Runtime.errors rt)

(* External injection into a live runtime: several injector domains
   register concurrently with execution across repeated start/stop
   cycles, sampling [pending] for the non-negativity invariant (the
   seed raised it after publication, so a fast consumer drove it to -1
   and siblings declared quiescence mid-enqueue). *)
let test_external_injection () =
  let min_pending = Rt_test_util.make_floor () in
  for run = 1 to 50 do
    let workers = 2 + (run mod 3) in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"inject" ~declared_cycles:30_000 () in
    let per_injector = 60 and injectors = 3 in
    let ran = Atomic.make 0 in
    Rt.Runtime.start rt;
    let feeders =
      List.init injectors (fun j ->
          Domain.spawn (fun () ->
              let accepted = ref 0 in
              for i = 0 to per_injector - 1 do
                let color = 1 + ((j + (i * injectors)) mod 16) in
                if
                  Rt.Runtime.try_register rt ~color ~handler:h (fun _ ->
                      busywork 1_000;
                      Atomic.incr ran)
                then incr accepted;
                Rt_test_util.note_floor min_pending (Rt.Runtime.pending rt)
              done;
              !accepted))
    in
    let accepted = List.fold_left (fun acc d -> acc + Domain.join d) 0 feeders in
    Alcotest.(check int)
      (Printf.sprintf "run %d: live runtime accepts external registers" run)
      (injectors * per_injector) accepted;
    Rt.Runtime.quiesce rt;
    Alcotest.(check int) (Printf.sprintf "run %d: quiesce drained" run) 0
      (Rt.Runtime.pending rt);
    Rt.Runtime.stop rt;
    Alcotest.(check int) (Printf.sprintf "run %d: all injected ran" run) accepted
      (Atomic.get ran);
    Alcotest.(check int) (Printf.sprintf "run %d: conservation" run) accepted
      (Rt.Runtime.executed rt)
  done;
  Alcotest.(check int) "pending never negative" 0 (min (Atomic.get min_pending) 0)

(* Stop while loaded: injectors race [stop]; every accepted event must
   execute (graceful drain), every rejected one must be counted, and
   handler follow-ups enqueued during the drain must not be lost. *)
let test_stop_while_loaded () =
  for run = 1 to 12 do
    let workers = 2 + (run mod 3) in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"load" ~declared_cycles:50_000 () in
    let ran = Atomic.make 0 and follow_ups = Atomic.make 0 in
    let min_pending = Rt_test_util.make_floor () in
    Rt.Runtime.start rt;
    let feeders =
      List.init 3 (fun j ->
          Domain.spawn (fun () ->
              let accepted = ref 0 in
              for i = 0 to 199 do
                let color = 1 + ((j + (i * 3)) mod 12) in
                if
                  Rt.Runtime.try_register rt ~color ~handler:h (fun ctx ->
                      busywork 3_000;
                      Atomic.incr ran;
                      (* One follow-up per fifth event: in-flight chains
                         must survive the drain. *)
                      if i mod 5 = 0 then
                        ctx.register ~color ~handler:h (fun _ ->
                            Atomic.incr follow_ups))
                then incr accepted;
                Rt_test_util.note_floor min_pending (Rt.Runtime.pending rt)
              done;
              !accepted))
    in
    (* Let some load build, then stop in the middle of the injection. *)
    busywork 200_000;
    Rt.Runtime.stop rt;
    let accepted = List.fold_left (fun acc d -> acc + Domain.join d) 0 feeders in
    Alcotest.(check bool)
      (Printf.sprintf "run %d: pending non-negative" run)
      true
      (Atomic.get min_pending >= 0);
    let attempts = 3 * 200 in
    Alcotest.(check int)
      (Printf.sprintf "run %d: attempts = accepted + refused" run)
      attempts
      (accepted + Rt.Runtime.refused rt);
    Alcotest.(check int)
      (Printf.sprintf "run %d: accepted externals all ran" run)
      accepted (Atomic.get ran);
    Alcotest.(check int)
      (Printf.sprintf "run %d: drain left nothing queued" run)
      0 (Rt.Runtime.pending rt);
    Alcotest.(check int)
      (Printf.sprintf "run %d: conservation incl. follow-ups" run)
      (accepted + Atomic.get follow_ups)
      (Rt.Runtime.executed rt)
  done

(* Conservation across concurrent publish/steal/drain: the queued-event
   counters of the lock-free structure must tie out against [pending].
   [debug_check_conservation] audits under the shard locks: mid-flight
   it checks the bound (queued <= pending, nothing negative, no retired
   queue mapped); at the quiesce checkpoints between waves, and after
   the final stop, it checks exact equality — every counter zero, every
   linked queue's walk agreeing with its counter, no colors chained. *)
let test_conservation_under_storm () =
  for run = 1 to 8 do
    let workers = 2 + (run mod 3) in
    let rt = Rt.Runtime.create ~workers ~worthy_threshold:0 () in
    let h = Rt.Runtime.handler rt ~name:"conserve" ~declared_cycles:50_000 () in
    let audit where =
      Option.map
        (Printf.sprintf "run %d (%s): %s" run where)
        (Rt.Runtime.debug_check_conservation rt)
    in
    let check where = Option.iter Alcotest.fail (audit where) in
    Rt.Runtime.start rt;
    for wave = 1 to 4 do
      let mid_flight = Rt_test_util.make_first_failure () in
      let feeders =
        List.init 3 (fun j ->
            Domain.spawn (fun () ->
                for i = 0 to 99 do
                  let color = 1 + ((j + (i * 3)) mod 24) in
                  ignore
                    (Rt.Runtime.try_register rt ~color ~handler:h (fun ctx ->
                         busywork 500;
                         if i mod 7 = 0 then
                           ctx.register ~color:(color + 24) ~handler:h (fun _ ->
                               busywork 200)));
                  (* Mid-flight audit while publishers, thieves and
                     owners all churn; judged on the main domain. *)
                  if i mod 25 = 0 then
                    Option.iter
                      (Rt_test_util.note_failure mid_flight)
                      (audit "mid-flight")
                done))
      in
      List.iter Domain.join feeders;
      Rt_test_util.check_no_failure mid_flight;
      Rt.Runtime.quiesce rt;
      check (Printf.sprintf "wave %d quiesced" wave)
    done;
    Rt.Runtime.stop rt;
    check "stopped";
    Alcotest.(check int) (Printf.sprintf "run %d: drained" run) 0
      (Rt.Runtime.pending rt)
  done

(* No lost wakeup under the single-signal park protocol: force every
   worker to park (empty runtime, serving), then inject exactly one
   event — the signal chain must reach a worker that executes it. Any
   lost wakeup deadlocks [quiesce] and hangs the test. Many rounds,
   alternating burst sizes, so signals race parks from every state. *)
let test_park_wake_storm () =
  for run = 1 to 4 do
    let workers = 2 + run in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"wake" ~declared_cycles:10_000 () in
    let ran = Atomic.make 0 in
    Rt.Runtime.start rt;
    let sent = ref 0 in
    for round = 1 to 300 do
      (* Let the fleet go quiescent (workers park) between bursts. *)
      Rt.Runtime.quiesce rt;
      let burst = 1 + (round mod 3) in
      for b = 1 to burst do
        incr sent;
        ignore
          (Rt.Runtime.try_register rt ~color:(1 + ((round + b) mod 8)) ~handler:h
             (fun _ -> Atomic.incr ran))
      done
    done;
    Rt.Runtime.quiesce rt;
    Rt.Runtime.stop rt;
    Alcotest.(check int)
      (Printf.sprintf "run %d: every single-event wakeup delivered" run)
      !sent (Atomic.get ran);
    (* The herd fix must not have broken park accounting. *)
    let parks =
      Rt_test_util.sum_workers rt (fun (w : Rt.Telemetry.worker_snap) -> w.w_parks)
    in
    Alcotest.(check bool) (Printf.sprintf "run %d: workers parked" run) true
      (parks > 0)
  done

let suite =
  [
    Alcotest.test_case "steal/enqueue ownership x60" `Slow (fun () ->
        test_steal_enqueue_ownership ());
    Alcotest.test_case "conservation under storm x8" `Slow test_conservation_under_storm;
    Alcotest.test_case "park/wake storm x4" `Slow test_park_wake_storm;
    Alcotest.test_case "recycled colors x50" `Slow (fun () -> test_recycled_colors ());
    Alcotest.test_case "fifo under stealing x50" `Slow (fun () ->
        test_fifo_under_stealing ());
    Alcotest.test_case "ownership under steal-two, traced x20" `Slow (fun () ->
        test_steal_enqueue_ownership ~policy:Rt.Policy.Steal_two ~runs:20 ());
    Alcotest.test_case "ownership under steal-half, traced x20" `Slow (fun () ->
        test_steal_enqueue_ownership ~policy:Rt.Policy.Steal_half ~runs:20 ());
    Alcotest.test_case "recycled colors under steal-two, traced x15" `Slow
      (fun () -> test_recycled_colors ~policy:Rt.Policy.Steal_two ~runs:15 ());
    Alcotest.test_case "recycled colors under steal-half, traced x15" `Slow
      (fun () -> test_recycled_colors ~policy:Rt.Policy.Steal_half ~runs:15 ());
    Alcotest.test_case "fifo under steal-two, traced x15" `Slow (fun () ->
        test_fifo_under_stealing ~policy:Rt.Policy.Steal_two ~runs:15 ());
    Alcotest.test_case "fifo under steal-half, traced x15" `Slow (fun () ->
        test_fifo_under_stealing ~policy:Rt.Policy.Steal_half ~runs:15 ());
    Alcotest.test_case "parking on serial chain" `Quick test_parking_on_serial_chain;
    Alcotest.test_case "raising handlers terminate (4 workers)" `Quick
      test_raising_handlers_terminate;
    Alcotest.test_case "stop_runtime policy aborts" `Quick test_stop_runtime_policy;
    Alcotest.test_case "swallow policy keeps serving" `Quick test_swallow_keeps_serving;
    Alcotest.test_case "external injection x50" `Slow test_external_injection;
    Alcotest.test_case "stop while loaded x12" `Slow test_stop_while_loaded;
  ]
