(* The live telemetry plane (lib/rt/telemetry.ml): snapshots taken
   under a concurrent register/execute storm must be internally
   consistent without ever stopping the writers — monotone counters,
   per-worker rows and histogram totals that close against the runtime
   totals once quiescent, derived totals that equal their sources, and
   bracketing (two back-to-back snapshots pin every live value between
   them, i.e. no torn reads). *)

let burn = ref 0

let spin ctx =
  ignore ctx;
  for i = 1 to 200 do
    burn := !burn + i
  done

(* Serve a storm from [injectors] external domains while [observe] runs
   concurrently in this thread; returns (events injected, observe's
   result) once everything has drained and stopped. *)
let with_storm ?(workers = 4) ?(injectors = 3) ?(per_injector = 2_000) observe =
  let rt = Rt.Runtime.create ~workers () in
  let h = Rt.Runtime.handler rt ~name:"storm" ~declared_cycles:1_000 () in
  Rt.Runtime.start rt;
  let injected = Atomic.make 0 in
  let doms =
    List.init injectors (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_injector - 1 do
              let color = (d * per_injector) + i in
              if Rt.Runtime.try_register rt ~color ~handler:h spin then
                Atomic.incr injected
            done))
  in
  let result = observe rt in
  List.iter Domain.join doms;
  Rt.Runtime.quiesce rt;
  Rt.Runtime.stop rt;
  (Atomic.get injected, rt, result)

let snap_exec_per_worker (s : Rt.Telemetry.snapshot) =
  Array.map (fun (w : Rt.Telemetry.worker_snap) -> w.w_executed) s.s_workers

(* Counters may only grow between two snapshots taken while the storm
   rages; the second snapshot must also bracket whatever the first saw
   (snapshots never tear a counter below an already-observed value). *)
let test_snapshot_monotone_under_storm () =
  let _, _, () =
    with_storm (fun rt ->
        let prev = ref (Rt.Runtime.telemetry_snapshot rt) in
        for _ = 1 to 50 do
          let s = Rt.Runtime.telemetry_snapshot rt in
          let p = !prev in
          Alcotest.(check bool) "executed monotone" true
            (s.s_executed >= p.s_executed);
          Alcotest.(check bool) "steals monotone" true (s.s_steals >= p.s_steals);
          Alcotest.(check bool) "attempts monotone" true
            (s.s_steal_attempts >= p.s_steal_attempts);
          Array.iteri
            (fun i (w : Rt.Telemetry.worker_snap) ->
              let pw = p.s_workers.(i) in
              Alcotest.(check bool) "worker executed monotone" true
                (w.w_executed >= pw.w_executed);
              Alcotest.(check bool) "qwait count monotone" true
                (Mstd.Histogram.count w.w_qwait
                >= Mstd.Histogram.count pw.w_qwait);
              Alcotest.(check bool) "service count monotone" true
                (Mstd.Histogram.count w.w_service
                >= Mstd.Histogram.count pw.w_service);
              Alcotest.(check bool) "busy time monotone" true
                (w.w_service_sum_ns >= pw.w_service_sum_ns))
            s.s_workers;
          prev := s
        done)
  in
  ()

(* Two back-to-back snapshots bracket the live counters read between
   them: s1 <= live <= s2, for the global executed count and for every
   per-worker histogram total. *)
let test_back_to_back_snapshots_bracket () =
  let _, _, () =
    with_storm (fun rt ->
        for _ = 1 to 25 do
          let s1 = Rt.Runtime.telemetry_snapshot rt in
          let live = Rt.Runtime.executed rt in
          let s2 = Rt.Runtime.telemetry_snapshot rt in
          Alcotest.(check bool) "s1 <= live" true (s1.s_executed <= live);
          Alcotest.(check bool) "live <= s2" true (live <= s2.s_executed);
          Array.iteri
            (fun i (w1 : Rt.Telemetry.worker_snap) ->
              let w2 = s2.s_workers.(i) in
              let c1 = Mstd.Histogram.count w1.w_qwait in
              let c2 = Mstd.Histogram.count w2.w_qwait in
              Alcotest.(check bool) "histogram bracketing" true (c1 <= c2);
              (* A copied histogram can never disagree with itself:
                 count is recomputed from the copied buckets. *)
              let bucket_sum =
                Mstd.Histogram.fold (fun _ c acc -> acc + c) w1.w_qwait 0
              in
              Alcotest.(check int) "count = bucket sum (no torn pair)" c1
                bucket_sum)
            s1.s_workers
        done)
  in
  ()

(* Once quiescent the books close exactly: the sum of per-worker
   executed equals the runtime total, both histogram families hold
   exactly one observation per executed event, and every derived total
   equals what it is derived from — steals in/out are the steal
   matrix's row/column sums, the runtime's steal, steal-round and error
   totals are sums of the per-worker rows. *)
let test_quiescent_totals_close () =
  let injected, rt, () = with_storm (fun _ -> ()) in
  let s = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check bool) "storm injected" true (injected > 0);
  Alcotest.(check int) "snapshot executed = injected" injected s.s_executed;
  let per_worker = Array.fold_left ( + ) 0 (snap_exec_per_worker s) in
  Alcotest.(check int) "per-worker sum = executed" s.s_executed per_worker;
  let qwait_total =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) ->
        acc + Mstd.Histogram.count w.w_qwait)
      0 s.s_workers
  in
  let service_total =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) ->
        acc + Mstd.Histogram.count w.w_service)
      0 s.s_workers
  in
  Alcotest.(check int) "qwait histogram total = executed" s.s_executed qwait_total;
  Alcotest.(check int) "service histogram total = executed" s.s_executed
    service_total;
  (* The runtime accessors read the same shards as the snapshot. *)
  Alcotest.(check int) "accessor executed = snapshot" s.s_executed
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "accessor steals = snapshot" s.s_steals
    (Rt.Runtime.steals rt);
  Alcotest.(check int) "accessor steal rounds = snapshot" s.s_steal_attempts
    (Rt.Runtime.steal_attempts rt);
  Alcotest.(check int) "accessor errors = snapshot" s.s_errors
    (Rt.Runtime.errors rt);
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 s.s_workers in
  let matrix =
    Array.map (fun (w : Rt.Telemetry.worker_snap) -> w.w_steals_from) s.s_workers
  in
  let row_sums = Array.map (Array.fold_left ( + ) 0) matrix in
  let col_sum v = Array.fold_left (fun acc row -> acc + row.(v)) 0 matrix in
  Alcotest.(check int) "sum of row sums = steals" s.s_steals
    (Array.fold_left ( + ) 0 row_sums);
  Alcotest.(check int) "sum of column sums = steals" s.s_steals
    (sum (fun (w : Rt.Telemetry.worker_snap) -> col_sum w.w_id));
  Array.iter
    (fun (w : Rt.Telemetry.worker_snap) ->
      Alcotest.(check int) "steals in = matrix row" row_sums.(w.w_id) w.w_steals_in;
      Alcotest.(check int) "steals out = matrix column" (col_sum w.w_id)
        w.w_steals_out)
    s.s_workers;
  Alcotest.(check int) "errors = sum of per-worker errors" s.s_errors
    (sum (fun (w : Rt.Telemetry.worker_snap) -> w.w_errors));
  Alcotest.(check int) "steal attempts = sum of per-worker rounds"
    s.s_steal_attempts
    (sum (fun (w : Rt.Telemetry.worker_snap) -> w.w_steal_rounds))

(* The epoch-swapped window: observations land in the current window,
   a swap rotates them out for readers, and the cumulative histogram
   keeps everything. Driven through the runtime so the swap interacts
   with real writers. *)
let test_window_epoch_swap () =
  let rt = Rt.Runtime.create ~workers:2 () in
  let h = Rt.Runtime.handler rt ~name:"w" () in
  let run n =
    Rt.Runtime.start rt;
    for i = 0 to n - 1 do
      ignore (Rt.Runtime.try_register rt ~color:i ~handler:h spin)
    done;
    Rt.Runtime.quiesce rt;
    Rt.Runtime.stop rt
  in
  run 500;
  (* Before any swap the window buffers are still epoch-0 garbage by
     construction, so readers see the pre-first-swap window as empty. *)
  let s0 = Rt.Runtime.telemetry_snapshot rt in
  let win_count (s : Rt.Telemetry.snapshot) =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) ->
        acc + Mstd.Histogram.count w.w_qwait_win)
      0 s.s_workers
  in
  Alcotest.(check int) "window empty before first swap" 0 (win_count s0);
  (* Swap: the 500 observations become the readable window. *)
  let s1 = Rt.Runtime.telemetry_snapshot ~swap_window:true rt in
  Alcotest.(check int) "epoch advanced" (s0.s_epoch + 1) s1.s_epoch;
  let s1' = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check int) "window holds the swapped-out epoch" 500 (win_count s1');
  (* Another 300 in the new epoch; cumulative keeps everything. *)
  run 300;
  let s2 = Rt.Runtime.telemetry_snapshot ~swap_window:true rt in
  ignore s2;
  let s3 = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check int) "next window holds only the new epoch" 300 (win_count s3);
  let cum =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) ->
        acc + Mstd.Histogram.count w.w_qwait)
      0 s3.s_workers
  in
  Alcotest.(check int) "cumulative keeps everything" 800 cum

let suite =
  [
    Alcotest.test_case "snapshots monotone under a register storm" `Quick
      test_snapshot_monotone_under_storm;
    Alcotest.test_case "back-to-back snapshots bracket live counters" `Quick
      test_back_to_back_snapshots_bracket;
    Alcotest.test_case "quiescent totals close against Rt.Runtime totals" `Quick
      test_quiescent_totals_close;
    Alcotest.test_case "streaming window rotates on epoch swap" `Quick
      test_window_epoch_swap;
  ]
