(* web_pipelined, server side: Rtnet.Server (1 poller shard) over a
   2-worker runtime, serving the prebuilt default site through an app
   closure the benchmark supplies. The client is a separate process
   ({!Webclient}), spawned from this executable for each cycle before
   the cycle's runtime exists (OCaml 5 refuses [fork] once a domain
   runs; [create_process] execs). *)

type client = { pid : int; oc : out_channel; ic : in_channel }

let spawn_client ~seed =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "client"; string_of_int seed |]
      cmd_r rep_w Unix.stderr
  in
  Unix.close cmd_r;
  Unix.close rep_w;
  let oc = Unix.out_channel_of_descr cmd_w and ic = Unix.in_channel_of_descr rep_r in
  set_binary_mode_out oc true;
  set_binary_mode_in ic true;
  { pid; oc; ic }

let ask c (cmd : Webclient.cmd) : Webclient.reply =
  Marshal.to_channel c.oc cmd [];
  flush c.oc;
  Marshal.from_channel c.ic

let recv c : Webclient.reply = Marshal.from_channel c.ic

let quit_client c =
  (try
     Marshal.to_channel c.oc Webclient.Quit [];
     close_out c.oc
   with Sys_error _ -> ());
  ignore (Unix.waitpid [] c.pid);
  close_in c.ic

(* App-entry and app-exit stamps per request id, written by the worker
   that runs the request. *)
type stamps = { app_in : int array; app_out : int array }

let app stamps (req : Httpkit.Request.t) =
  match stamps with
  | None -> Hashtbl.find Webclient.cache req.Httpkit.Request.target
  | Some s ->
    let t = Probe.now () in
    let r = Hashtbl.find Webclient.cache req.Httpkit.Request.target in
    (match Httpkit.Request.header req "x-req" with
    | Some v ->
      let id = int_of_string v in
      if id >= 0 && id < Webclient.trace_cap then begin
        s.app_in.(id) <- t;
        s.app_out.(id) <- Probe.now ()
      end
    | None -> ());
    r

type sut = {
  client : client;
  rt : Rt.Runtime.t;
  srv : Rtnet.Server.t;
  stamps : stamps option;
  mutable mismatched : int;  (** responses whose bytes differed *)
}

let setup client ~traced ~warm_ops =
  let stamps =
    if traced then
      Some
        {
          app_in = Array.make Webclient.trace_cap 0;
          app_out = Array.make Webclient.trace_cap 0;
        }
    else None
  in
  let rt =
    Rt.Runtime.create ~workers:2
      ?trace:(if traced then Some Rtloops.trace_config else None)
      ()
  in
  Rt.Runtime.start rt;
  let srv =
    Rtnet.Server.create ~rt ~shards:1 ~app:(app stamps) ~cache:Webclient.cache ~port:0 ()
  in
  Rtnet.Server.start srv;
  (match ask client (Warm { port = Rtnet.Server.port srv; n = warm_ops }) with
  | Warmed { ok = true } -> ()
  | _ -> failwith "web warm-up failed");
  { client; rt; srv; stamps; mismatched = 0 }

let spans_of (send, recv) s i : Span.t array =
  let sp name start stop parent = { Span.name; start; stop; parent } in
  let a = send.(i) and i0 = s.app_in.(i) and o = s.app_out.(i) and z = recv.(i) in
  [|
    sp "op" a z (-1); sp "net.to_app" a i0 0; sp "app" i0 o 0; sp "net.from_app" o z 0;
  |]

let measure sut ~seconds ~lat ~agg =
  let before = Probe.snap sut.rt in
  let reqs0 = (Rtnet.Server.stats sut.srv).reqs_served in
  let alloc0, reuse0 = Rtnet.Server.bufpool_stats sut.srv in
  (match ask sut.client (Run { seconds; traced = sut.stamps <> None }) with
  | Window_done -> ()
  | _ -> failwith "web client: unexpected reply");
  let after = Probe.snap sut.rt in
  let reqs = (Rtnet.Server.stats sut.srv).reqs_served - reqs0 in
  let alloc1, reuse1 = Rtnet.Server.bufpool_stats sut.srv in
  let r =
    match recv sut.client with
    | Ran r -> r
    | _ -> failwith "web client: unexpected reply"
  in
  Quantile.merge ~into:lat r.lat;
  (match (sut.stamps, r.stamps, agg) with
  | Some s, Some cs, Some agg ->
    for i = 0 to min r.attempted Webclient.trace_cap - 1 do
      if (snd cs).(i) > 0 then Report.agg_add agg i (spans_of cs s i)
    done
  | _ -> ());
  sut.mismatched <- sut.mismatched + r.mismatched;
  {
    Report.secs = r.secs;
    attempted = r.attempted;
    ok = r.ok;
    before;
    after;
    inject_ns = 0;
    injected = 0;
    net = Some (reqs, alloc1 - alloc0, reuse1 - reuse0);
  }

let teardown sut =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let sent =
    match ask sut.client Close with
    | Closed { sent } -> sent
    | _ -> failwith "web client: unexpected reply"
  in
  if sut.mismatched > 0 then fail "%d responses differed from the expected bytes" sut.mismatched;
  Rtnet.Server.stop sut.srv;
  let s = Rtnet.Server.stats sut.srv in
  if s.conns_accepted <> s.conns_closed then
    fail "connections accepted %d <> closed %d" s.conns_accepted s.conns_closed;
  if s.reqs_parsed <> s.reqs_served + s.reqs_failed + s.reqs_shed then
    fail "requests parsed %d <> served %d + failed %d + shed %d" s.reqs_parsed s.reqs_served
      s.reqs_failed s.reqs_shed;
  if s.reqs_served <> sent then fail "served %d of %d requests sent" s.reqs_served sent;
  if s.reqs_failed + s.reqs_malformed + s.reqs_shed + s.conns_failed > 0 then
    fail "server failures: %d failed, %d malformed, %d shed, %d conns" s.reqs_failed
      s.reqs_malformed s.reqs_shed s.conns_failed;
  errs := List.rev_append (Rtloops.check_runtime sut.rt) !errs;
  if Rt.Runtime.pending sut.rt + Rt.Runtime.refused sut.rt + Rt.Runtime.abandoned sut.rt > 0
  then
    fail "runtime left pending %d, refused %d, abandoned %d" (Rt.Runtime.pending sut.rt)
      (Rt.Runtime.refused sut.rt) (Rt.Runtime.abandoned sut.rt);
  quit_client sut.client;
  List.rev !errs
