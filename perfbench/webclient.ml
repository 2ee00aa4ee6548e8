(* The web_pipelined client. It runs in a process of its own (its
   allocations never stop the server's domains, its CPU is not billed
   to the server) and is driven by the server process over a pipe with
   marshalled commands. One thread, [conns] keep-alive connections, each
   with [depth] requests pipelined: a connection sends its next batch
   as soon as the previous one is fully answered, so the load is
   closed-loop. Every response is compared byte for byte with the
   prebuilt bytes for its path. *)

let conns = 2
let depth = 16

type cmd = Warm of { port : int; n : int } | Run of { seconds : float; traced : bool } | Close | Quit

type result = {
  secs : float;  (** from the window's start to the last send *)
  attempted : int;
  ok : int;
  mismatched : int;
  lat : Quantile.t;  (** every op, ns *)
  stamps : (int array * int array) option;
      (** traced: send and receive stamp per request id below [trace_cap] *)
}

type reply = Warmed of { ok : bool } | Window_done | Ran of result | Closed of { sent : int }

let trace_cap = 20_000
let site = Rtnet.Loadgen.default_site ()
let cache = Httpkit.Response.prebuild_cache ~files:site

type pending = { id : int; resp : string; sent_at : int }

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  pend : pending Queue.t;
  mutable dead : bool;
}

type state = {
  rng : Random.State.t;
  paths : string array;
  mutable conns : conn list;
  mutable next_warm_id : int;
  mutable next_id : int;
  mutable sent : int;
}

(* Request ids travel in a header so the app's spans join the client's.
   Warm-up ids are negative and never traced. *)
let request path id = Printf.sprintf "GET %s HTTP/1.1\r\nHost: mely\r\nX-Req: %d\r\n\r\n" path id

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0; pend = Queue.create (); dead = false }

let send_batch st c ~warm =
  let b = Buffer.create (depth * 64) in
  let t = Probe.now () in
  for _ = 1 to depth do
    let path = st.paths.(Random.State.int st.rng (Array.length st.paths)) in
    let id =
      if warm then begin
        st.next_warm_id <- st.next_warm_id - 1;
        st.next_warm_id
      end
      else begin
        st.next_id <- st.next_id + 1;
        st.next_id - 1
      end
    in
    Buffer.add_string b (request path id);
    Queue.push { id; resp = Hashtbl.find cache path; sent_at = t } c.pend
  done;
  st.sent <- st.sent + depth;
  let s = Buffer.contents b in
  ignore (Unix.write_substring c.fd s 0 (String.length s))

let equal_at buf off s =
  let n = String.length s in
  let rec go i = i = n || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

(* Serve reads until every connection's queue is empty and, while
   [more ()], keep each connection [depth] deep. [on_done p ok t] sees
   every finished request: [t] is when its last byte arrived, 0 when its
   connection failed first. *)
let pump st ~more ~warm ~on_done =
  List.iter (fun c -> if more () then send_batch st c ~warm) st.conns;
  let busy () = List.filter (fun c -> (not c.dead) && not (Queue.is_empty c.pend)) st.conns in
  let fail c =
    c.dead <- true;
    Queue.iter (fun p -> on_done p false 0) c.pend;
    Queue.clear c.pend
  in
  let rec loop () =
    match busy () with
    | [] -> ()
    | active ->
      (match Unix.select (List.map (fun c -> c.fd) active) [] [] 5.0 with
      | [], _, _ -> List.iter fail active
      | ready, _, _ ->
        List.iter
          (fun c ->
            if List.mem c.fd ready then begin
              if c.hi = Bytes.length c.buf then begin
                Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
                c.hi <- c.hi - c.lo;
                c.lo <- 0
              end;
              match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
              | 0 -> fail c
              | n ->
                c.hi <- c.hi + n;
                let t = Probe.now () in
                let rec consume () =
                  match Queue.peek_opt c.pend with
                  | Some p when c.hi - c.lo >= String.length p.resp ->
                    let ok = equal_at c.buf c.lo p.resp in
                    c.lo <- c.lo + String.length p.resp;
                    ignore (Queue.pop c.pend);
                    on_done p ok t;
                    if ok then consume () else fail c
                  | _ -> ()
                in
                consume ();
                if c.lo = c.hi then begin
                  c.lo <- 0;
                  c.hi <- 0
                end;
                if Queue.is_empty c.pend && (not c.dead) && more () then send_batch st c ~warm
              | exception Unix.Unix_error _ -> fail c
            end)
          active);
      loop ()
  in
  loop ()

let run st ~seconds ~traced =
  let stamps =
    if traced then Some (Array.make trace_cap 0, Array.make trace_cap 0) else None
  in
  let lat = Quantile.create () in
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 in
  st.next_id <- 0;
  let t0 = Probe.now () in
  let t1 = t0 + int_of_float (seconds *. 1e9) in
  let t_stop = ref t1 in
  let more () =
    let now = Probe.now () in
    if now < t1 then true
    else begin
      if !t_stop = t1 then t_stop := now;
      false
    end
  in
  pump st ~more ~warm:false ~on_done:(fun p good t ->
      incr attempted;
      if good then begin
        Quantile.add lat (t - p.sent_at);
        match stamps with
        | Some (s, r) when p.id < trace_cap ->
          s.(p.id) <- p.sent_at;
          r.(p.id) <- t
        | _ -> ()
      end
      else begin
        (* [t = 0]: the connection failed before an answer arrived. *)
        if t > 0 then incr mismatched;
        incr failed;
        Quantile.add_failed lat
      end);
  {
    secs = float_of_int (!t_stop - t0) /. 1e9;
    attempted = !attempted;
    ok = !attempted - !failed;
    mismatched = !mismatched;
    lat;
    stamps;
  }

let main seed =
  let ic = stdin and oc = stdout in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let st =
    {
      rng = Random.State.make [| seed; 0x3eb |];
      paths = Array.of_list (List.map fst site);
      conns = [];
      next_warm_id = 0;
      next_id = 0;
      sent = 0;
    }
  in
  let reply (r : reply) =
    Marshal.to_channel oc r [];
    flush oc
  in
  let rec serve () =
    match (Marshal.from_channel ic : cmd) with
    | Warm { port; n } ->
      st.conns <- List.init conns (fun _ -> connect port);
      st.sent <- 0;
      let issued = ref 0 and good = ref true in
      pump st
        ~more:(fun () ->
          issued := !issued + depth;
          !issued <= n)
        ~warm:true
        ~on_done:(fun _ ok _ -> if not ok then good := false);
      reply (Warmed { ok = !good });
      serve ()
    | Run { seconds; traced } ->
      let r = run st ~seconds ~traced in
      reply Window_done;
      reply (Ran r);
      serve ()
    | Close ->
      List.iter (fun c -> Unix.close c.fd) st.conns;
      st.conns <- [];
      reply (Closed { sent = st.sent });
      serve ()
    | Quit -> ()
    | exception End_of_file -> ()
  in
  serve ()
