(* Process-level measurements shared by both processes of a run:
   CLOCK_MONOTONIC (host-wide, so client and server stamps line up),
   CPU time, peak RSS, GC counters, and a fixed CPU loop that tells
   host-speed drift apart from program changes. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of this process, in MB. *)
let mem_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let spin n =
  let x = ref 0x2545F491 in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  Sys.opaque_identity !x

(* [(steal, total)] CPU ticks of the whole host since boot, from the
   first line of /proc/stat: time the hypervisor gave to others. *)
let host_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
  | _ -> (0, 0)

(* Milliseconds for a fixed 20M-step loop, best of three. *)
let host_probe_ms () =
  let once () =
    let t = now () in
    ignore (spin 20_000_000);
    float_of_int (now () - t) /. 1e6
  in
  List.fold_left min infinity [ once (); once (); once () ]

(* Microseconds per one-byte round trip between this process and a
   child ([exe pong], see {!pong}) over two pipes, median of five
   60 ms rounds: the host's wake-up and system-call speed. The CPU loop
   above does not see it; the web workload follows it. *)
let host_wake_us () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "pong" |] req_r rep_w
      Unix.stderr
  in
  Unix.close req_r;
  Unix.close rep_w;
  let b = Bytes.make 1 'x' in
  let round () =
    let t0 = now () and n = ref 0 in
    while now () - t0 < 60_000_000 do
      ignore (Unix.write req_w b 0 1);
      ignore (Unix.read rep_r b 0 1);
      incr n
    done;
    float_of_int (now () - t0) /. 1e3 /. float_of_int !n
  in
  let rounds = Array.init 5 (fun _ -> round ()) in
  Unix.close req_w;
  ignore (Unix.waitpid [] pid);
  Unix.close rep_r;
  Array.sort compare rounds;
  rounds.(2)

(* The child of {!host_wake_us}: echo each byte until end of input. *)
let pong () =
  let b = Bytes.create 1 in
  while Unix.read Unix.stdin b 0 1 = 1 do
    ignore (Unix.write Unix.stdout b 0 1)
  done

(* Counters of the system under test, read at the edges of the
   measured window. Runtime counters come from the stable scalar
   accessors and from the Prometheus exposition. *)
type snap = {
  cpu : float;
  mem_mb : float;  (** VmHWM so far *)
  host : int * int;  (** {!host_ticks} *)
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  executed : int;
  steals : int;
  steal_attempts : int;
  prom : string;
}

(* [metrics_text] also renders the server's counters; the benchmark
   reads only runtime families, so an empty view serves every workload. *)
let no_net =
  {
    Rtnet.Admin.n_backend = "";
    n_port = 0;
    n_admin_port = 0;
    n_live = 0;
    n_draining = false;
    n_faults_injected = 0;
    n_shards = [||];
  }

let snap rt =
  let prom = Rtnet.Admin.metrics_text (Rt.Runtime.telemetry_snapshot rt) no_net in
  let g = Gc.quick_stat () in
  {
    cpu = cpu_s ();
    mem_mb = mem_peak_mb ();
    host = host_ticks ();
    minor_words = g.Gc.minor_words;
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
    executed = Rt.Runtime.executed rt;
    steals = Rt.Runtime.steals rt;
    steal_attempts = Rt.Runtime.steal_attempts rt;
    prom;
  }
