(* One benchmark run of one workload, in this process:

     bench.exe run --workload W --seed N --seconds S --trace 0|1
     bench.exe client SEED        (the web client, spawned by a run)
     bench.exe pong               (the echo end of {!Probe.host_wake_us})

   A run is a series of cycles. Each cycle sets a fresh runtime up
   (create, start, a fixed-count warm-up: the timed set-up), measures a
   window of about [cycle_seconds], then tears it down and checks every
   invariant. The windows of a run are pooled (see {!Report}).
   --trace 0: every window untraced; prints the end-to-end metrics.
   --trace 1: untraced and traced windows alternate (the benchmark's
   spans and Rt.Trace on); prints the per-layer metrics, and the
   tracing overhead as the difference between the two kinds.

   Human-readable lines go first; the last line of stdout is one JSON
   object with the metrics, the diagnostics and any broken invariant. *)

let workloads = [ "web_pipelined"; "skew_steal"; "chain_fine" ]
let cycle_seconds = 2.

(* Fixed op counts: set-up time is a duration of a fixed amount of
   work, never of a fixed time. *)
let warm_ops = function "web_pipelined" -> 16_000 | "skew_steal" -> 6_000 | _ -> 12_000

type sut = Web of Web.sut | Loop of Rtloops.loop

let set_up workload ~seed ~traced =
  (* The web client is a fresh process per cycle, spawned before the
     clock starts, so no cycle inherits another's client. *)
  let client = if workload = "web_pipelined" then Some (Web.spawn_client ~seed) else None in
  let t0 = Probe.now () in
  let warm_ops = warm_ops workload in
  let sut =
    match workload with
    | "web_pipelined" -> Web (Web.setup (Option.get client) ~traced ~warm_ops)
    | "skew_steal" -> Loop (Rtloops.setup Skew ~seed ~traced ~warm_ops)
    | _ -> Loop (Rtloops.setup Chain ~seed ~traced ~warm_ops)
  in
  (float_of_int (Probe.now () - t0) /. 1e9, sut)

let measure sut ~seconds ~lat ~agg =
  match sut with
  | Web s -> Web.measure s ~seconds ~lat ~agg
  | Loop l -> Rtloops.measure l ~seconds ~lat ~agg

let teardown = function Web s -> Web.teardown s | Loop l -> Rtloops.teardown l

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if x > 0. then "1e12"
  else "-1"

let json_metrics ms =
  String.concat ","
    (List.map
       (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_num v) u)
       ms)

let run ~workload ~seed ~seconds ~traced =
  let out_dir = ".perfbench-out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spans_out = Filename.concat out_dir (workload ^ "-spans.tsv") in
  let probe_before = Probe.host_probe_ms () and wake_before = Probe.host_wake_us () in
  let errors = ref [] in
  (* Garbage of a finished cycle must not raise the next one's peak
     memory. *)
  let finish sut =
    errors := !errors @ teardown sut;
    Gc.compact ()
  in
  let cycles = max 1 (int_of_float (Float.round (seconds /. cycle_seconds))) in
  (* One cycle: set up, measure [per] seconds, tear down and check. *)
  let cycle ~traced ~per ~lat ~agg =
    let setup_s, sut = set_up workload ~seed ~traced in
    let w = measure sut ~seconds:per ~lat ~agg in
    (match Prom_text.sum w.Report.after.Probe.prom "mely_runtime_errors_total" with
    | 0. -> ()
    | n -> errors := !errors @ [ Printf.sprintf "%.0f handlers raised" n ]);
    finish sut;
    (setup_s, w)
  in
  let lat = Quantile.create () in
  let ws, metrics, diag =
    if not traced then begin
      let per = seconds /. float_of_int cycles in
      let runs = List.init cycles (fun _ -> cycle ~traced:false ~per ~lat ~agg:None) in
      let ws = List.map snd runs in
      ( ws,
        Report.end_to_end ws lat ~setup_s:(median (List.map fst runs)),
        Report.diagnostics ws lat
        @ List.mapi (fun i (s, _) -> (Printf.sprintf "setup.%d_s" i, s, "s")) runs )
    end
    else begin
      let pairs = max 1 (cycles / 2) in
      let per = seconds /. float_of_int (2 * pairs) in
      let agg = Report.agg_create spans_out in
      let untraced = Quantile.create () in
      let ws =
        List.init pairs (fun _ ->
            let _, u = cycle ~traced:false ~per ~lat:untraced ~agg:None in
            let _, t = cycle ~traced:true ~per ~lat ~agg:(Some agg) in
            (u, t))
      in
      close_out agg.Report.out;
      let traced_ws = List.map snd ws in
      Option.iter (fun e -> errors := !errors @ [ "spans: " ^ e ]) agg.broken;
      List.iter
        (fun (name, us) -> Printf.printf "self %-14s %10.3f us/op\n" name us)
        (Report.self_table agg);
      Printf.printf "self total %.3f us/op = root %.3f us/op over %d traced ops\n"
        (float_of_int agg.self_ns /. float_of_int (max 1 agg.ops) /. 1e3)
        (float_of_int agg.root_ns /. float_of_int (max 1 agg.ops) /. 1e3)
        agg.ops;
      ( traced_ws,
        Report.per_layer traced_ws agg ~workers:2
          ~untraced_ops_per_s:(Report.ops_per_s (List.map fst ws)),
        Report.diagnostics traced_ws lat )
    end
  in
  let diag =
    diag
    @ [
        ("host.probe_ms_before", probe_before, "ms");
        ("host.probe_ms_after", Probe.host_probe_ms (), "ms");
        ("host.wake_us_before", wake_before, "us");
        ("host.wake_us_after", Probe.host_wake_us (), "us");
      ]
  in
  List.iter
    (fun (n, v, u) -> Printf.printf "%s/%s = %s %s\n" workload n (json_num v) u)
    (metrics @ diag);
  List.iter (Printf.printf "BROKEN: %s\n") !errors;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s},\"diagnostics\":{%s},\"errors\":[%s]}\n%!"
    (!errors = [])
    (List.fold_left (fun n w -> n + w.Report.attempted) 0 ws)
    (List.fold_left (fun n w -> n + w.Report.attempted - w.Report.ok) 0 ws)
    (json_metrics metrics) (json_metrics diag)
    (String.concat "," (List.map (Printf.sprintf "%S") !errors));
  if !errors <> [] then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "client"; seed ] -> Webclient.main (int_of_string seed)
  | [ _; "pong" ] -> Probe.pong ()
  | _ :: "run" :: args ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list ("run" :: args))
      [
        ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
        ("--seed", Arg.Set_int seed, " input seed");
        ("--seconds", Arg.Set_float seconds, " measured window");
        ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ]
      (fun a -> raise (Arg.Bad a))
      "bench.exe run --workload W --seed N --seconds S --trace 0|1";
    if not (List.mem !workload workloads) then begin
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    end;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  | _ ->
    prerr_endline "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1";
    exit 2
