(* The two runtime-only workloads. Each keeps a window of [slots] ops
   outstanding, one per slot.

   - skew_steal: one ~20 us event per op, on 64 colors all homed on
     worker 0, so worker 1 runs only what it steals. The generator (the
     main domain) refills free slots in batches through
     [try_register_batch ~home:0] and sleeps on a doorbell that the
     completing handler rings once per batch.
   - chain_fine: one request per op, a chain of [stages] empty handlers.
     Each stage registers the next from inside its handler on a color of
     the other parity, so consecutive stages start on different workers.
     The last stage starts the slot's next request the same way, so
     after the generator's initial batch the publish path is driven from
     inside the workers only, and the generator sleeps through the
     window. *)

type shape = Skew | Chain

let stages = 4
let slots = function Skew -> 64 | Chain -> 256
let batch = 16

(* ~20 us of [Probe.spin] on the reference host; the seed scales each
   event by 0.75, 1 or 1.25, so the declared cost is the mean. *)
let skew_spin = 4_600
let skew_declared = 20_000

(* Stamps of one traced op, in ns. [ix_start] is the call that handed
   the op to the runtime: the generator's [try_register_batch] (skew)
   or the [ctx.register] of the chain's first stage. *)
let ix_start = 0
let ix_start_end = 1
let ix_entry k = 1 + k (* stage k = 1..stages *)
let ix_reg k = 1 + stages + k (* register call of stage k = 1..stages-1 *)
let ix_reg_end k = stages + stages + k
let stride = function Skew -> 4 | Chain -> (3 * stages) + 1
let ix_exit shape = stride shape - 1

(* Each traced window stamps the ops it starts, up to [trace_cap]. *)
let trace_cap = 20_000

type loop = {
  rt : Rt.Runtime.t;
  shape : shape;
  h : Rt.Runtime.handler;
  colors : int array;  (** skew: per slot; chain: per slot and stage *)
  work : Random.State.t;  (** skew event sizes, in generator order *)
  state : int Atomic.t array;  (** the slot's op id; -1 once done *)
  progress : int array;  (** chain: last stage run for the slot's op *)
  start_at : int array;  (** when the slot's op was handed over *)
  in_window : bool array;  (** the slot's op started in the window *)
  next_id : int Atomic.t;
  base : int Atomic.t;  (** first op id of the window; max_int outside *)
  completed : int Atomic.t;
  wake_at : int Atomic.t;
  stopping : bool Atomic.t;  (** chain: last stages stop restarting *)
  idle : int Atomic.t;  (** chain: slots stopped *)
  m : Mutex.t;
  cv : Condition.t;
  broken : int Atomic.t;  (** exactly-once or stage-order violations *)
  lat_w : Quantile.t array;  (** chain: per worker, window ops *)
  started_w : int array;  (** chain: window ops started, per worker *)
  done_w : int array;  (** chain: window ops finished, per worker *)
  st : int array option;  (** traced: [trace_cap] ops × [stride] stamps *)
  (* Generator-private (skew). *)
  ids : int array;
  live : bool array;
  done_at : int array;
  mutable issued : int;
  mutable reaped : int;
  mutable inject_ns : int;
  mutable injected : int;
}

let stamp_at l s id j t =
  match l.st with
  | Some st when l.in_window.(s) ->
    (* [in_window] may already describe the slot's next op when a
       handler stamps after its register call returns; an op from
       before the window then has [i < 0]. *)
    let i = id - Atomic.get l.base in
    if i >= 0 && i < trace_cap then st.((i * stride l.shape) + j) <- t
  | _ -> ()

let stamp l s id j =
  match l.st with Some _ when l.in_window.(s) -> stamp_at l s id j (Probe.now ()) | _ -> ()

let ring l =
  Mutex.lock l.m;
  Condition.signal l.cv;
  Mutex.unlock l.m

(* Sleep until [cond ()]; whoever makes it true rings after the change. *)
let wait l cond =
  if not (cond ()) then begin
    Mutex.lock l.m;
    while not (cond ()) do
      Condition.wait l.cv l.m
    done;
    Mutex.unlock l.m
  end

let wait_completed l target =
  Atomic.set l.wake_at target;
  wait l (fun () -> Atomic.get l.completed >= target)

let count_completion l =
  let c = 1 + Atomic.fetch_and_add l.completed 1 in
  if c = Atomic.get l.wake_at then ring l

(* ---- skew_steal ---- *)

let skew_event l s id n (_ : Rt.Runtime.ctx) =
  stamp l s id (ix_entry 1);
  ignore (Probe.spin n);
  let t = Probe.now () in
  l.done_at.(s) <- t;
  stamp_at l s id (ix_exit Skew) t;
  if not (Atomic.compare_and_set l.state.(s) id (-1)) then Atomic.incr l.broken;
  count_completion l

let refill l free =
  if free <> [] then begin
    let base = Atomic.get l.base in
    let items =
      List.map
        (fun s ->
          let id = Atomic.fetch_and_add l.next_id 1 in
          l.ids.(s) <- id;
          l.live.(s) <- true;
          l.in_window.(s) <- id >= base;
          Atomic.set l.state.(s) id;
          let n = skew_spin * (3 + Random.State.int l.work 3) / 4 in
          (l.colors.(s), l.h, skew_event l s id n))
        free
    in
    let a = Probe.now () in
    let ok = Rt.Runtime.try_register_batch l.rt ~home:0 items in
    let b = Probe.now () in
    if not ok then failwith "runtime refused an injection while serving";
    l.issued <- l.issued + List.length items;
    l.inject_ns <- l.inject_ns + (b - a);
    l.injected <- l.injected + List.length items;
    List.iter
      (fun s ->
        l.start_at.(s) <- a;
        stamp_at l s l.ids.(s) ix_start a;
        stamp_at l s l.ids.(s) ix_start_end b)
      free
  end

(* Wait for a batch of completions, reap every completed slot, and
   refill the free ones when [more]. *)
let step l ~more ~on_reap =
  let outstanding = l.issued - l.reaped in
  if outstanding > 0 then wait_completed l (l.reaped + min batch outstanding);
  let free = ref [] in
  for s = slots Skew - 1 downto 0 do
    if not l.live.(s) then free := s :: !free
    else if Atomic.get l.state.(s) = -1 then begin
      l.live.(s) <- false;
      l.reaped <- l.reaped + 1;
      on_reap s (l.done_at.(s) - l.start_at.(s));
      free := s :: !free
    end
  done;
  if more then refill l !free

(* ---- chain_fine ---- *)

let rec chain_stage l s id k (ctx : Rt.Runtime.ctx) =
  stamp l s id (ix_entry k);
  if l.progress.(s) <> k - 1 || Atomic.get l.state.(s) <> id then Atomic.incr l.broken;
  l.progress.(s) <- k;
  if k < stages then begin
    stamp l s id (ix_reg k);
    ctx.register ~color:l.colors.((s * stages) + k) ~handler:l.h (chain_stage l s id (k + 1));
    stamp l s id (ix_reg_end k)
  end
  else begin
    let t = Probe.now () in
    stamp_at l s id (ix_exit Chain) t;
    if l.in_window.(s) then begin
      Quantile.add l.lat_w.(ctx.worker) (t - l.start_at.(s));
      l.done_w.(ctx.worker) <- l.done_w.(ctx.worker) + 1
    end;
    count_completion l;
    if Atomic.get l.stopping then begin
      Atomic.set l.state.(s) (-1);
      if 1 + Atomic.fetch_and_add l.idle 1 = slots Chain then ring l
    end
    else chain_start l s ctx
  end

(* Start the slot's next request: its first stage is registered like
   any later one. *)
and chain_start l s (ctx : Rt.Runtime.ctx) =
  let id = Atomic.fetch_and_add l.next_id 1 in
  Atomic.set l.state.(s) id;
  l.progress.(s) <- 0;
  l.in_window.(s) <- id >= Atomic.get l.base;
  if l.in_window.(s) then l.started_w.(ctx.worker) <- l.started_w.(ctx.worker) + 1;
  let t = Probe.now () in
  l.start_at.(s) <- t;
  stamp_at l s id ix_start t;
  ctx.register ~color:l.colors.(s * stages) ~handler:l.h (chain_stage l s id 1);
  stamp l s id ix_start_end

(* The generator's one batch: every slot's first request. *)
let chain_seed l =
  let items =
    List.init (slots Chain) (fun s ->
        let id = Atomic.fetch_and_add l.next_id 1 in
        Atomic.set l.state.(s) id;
        l.start_at.(s) <- Probe.now ();
        (l.colors.(s * stages), l.h, chain_stage l s id 1))
  in
  if not (Rt.Runtime.try_register_batch l.rt items) then
    failwith "runtime refused an injection while serving"

(* ---- both ---- *)

(* The seed picks the colors (distinct; for chains, stage parity
   alternates so consecutive stages start on different workers) and the
   skew event sizes. *)
let inputs shape seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let n = match shape with Skew -> slots Skew | Chain -> slots Chain * stages in
  let seen = Hashtbl.create n in
  let rec fresh () =
    let c = 1 + Random.State.int rng 0x3fffffff in
    if Hashtbl.mem seen c then fresh ()
    else begin
      Hashtbl.add seen c ();
      c
    end
  in
  let colors =
    Array.init n (fun i ->
        match shape with
        | Skew -> fresh ()
        | Chain -> (2 * fresh ()) + (((i / stages) + (i mod stages)) land 1))
  in
  (colors, Random.State.make [| seed; 0x3a1 |])

let trace_config = { Rt.Trace.default_config with Rt.Trace.histograms = false }

(* The runtime invariants every workload checks at teardown, with the
   runtime idle: the conservation audit after [quiesce], then [stop];
   one handler per color at a time; in traced runs the replay
   checkers. Returns the violations. *)
let check_runtime rt =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  Rt.Runtime.quiesce rt;
  Option.iter (fail "conservation audit: %s") (Rt.Runtime.debug_check_conservation rt);
  Rt.Runtime.stop rt;
  if Rt.Runtime.max_concurrent_same_color rt <> 1 then
    fail "max_concurrent_same_color = %d" (Rt.Runtime.max_concurrent_same_color rt);
  (match Rt.Runtime.trace rt with
  | None -> ()
  | Some tr ->
    if Rt.Trace.check_mutual_exclusion tr <> None then fail "trace: same-color overlap";
    if Rt.Trace.check_fifo_per_color tr <> None then fail "trace: FIFO violated");
  List.rev !errs

let create shape ~seed ~traced =
  let colors, work = inputs shape seed in
  let rt =
    Rt.Runtime.create ~workers:2 ?trace:(if traced then Some trace_config else None) ()
  in
  let h =
    match shape with
    | Skew -> Rt.Runtime.handler rt ~name:"skew" ~declared_cycles:skew_declared ()
    | Chain -> Rt.Runtime.handler rt ~name:"chain" ~declared_cycles:100 ()
  in
  let n = slots shape in
  {
    rt;
    shape;
    h;
    colors;
    work;
    state = Array.init n (fun _ -> Atomic.make (-1));
    progress = Array.make n 0;
    start_at = Array.make n 0;
    in_window = Array.make n false;
    next_id = Atomic.make 0;
    base = Atomic.make max_int;
    completed = Atomic.make 0;
    wake_at = Atomic.make 0;
    stopping = Atomic.make false;
    idle = Atomic.make 0;
    m = Mutex.create ();
    cv = Condition.create ();
    broken = Atomic.make 0;
    lat_w = Array.init 2 (fun _ -> Quantile.create ());
    started_w = Array.make 2 0;
    done_w = Array.make 2 0;
    st = (if traced then Some (Array.make (trace_cap * stride shape) 0) else None);
    ids = Array.make n (-1);
    live = Array.make n false;
    done_at = Array.make n 0;
    issued = 0;
    reaped = 0;
    inject_ns = 0;
    injected = 0;
  }

(* Create, start and run a fixed number of ops: the timed set-up. *)
let setup shape ~seed ~traced ~warm_ops =
  let l = create shape ~seed ~traced in
  Rt.Runtime.start l.rt;
  (match shape with
  | Skew ->
    while l.reaped < warm_ops do
      step l ~more:true ~on_reap:(fun _ _ -> ())
    done
  | Chain ->
    chain_seed l;
    wait_completed l warm_ops);
  l

let spans_of l st i : Span.t array =
  let g j = st.((i * stride l.shape) + j) in
  let sp name start stop parent = { Span.name; start; stop; parent } in
  let a = g ix_start and b = g ix_start_end and e1 = g (ix_entry 1) in
  let x = g (ix_exit l.shape) in
  match l.shape with
  | Skew ->
    [| sp "op" a x (-1); sp "rt.qwait" a e1 0; sp "rt.inject" a (min b e1) 1; sp "handler" e1 x 0 |]
  | Chain ->
    (* Stage k's critical part ends where it hands off: the hop from
       its register call to stage k+1's entry is a span of its own. *)
    let rest =
      List.concat_map
        (fun k ->
          let hop = 3 + (3 * (k - 1)) + 1 in
          let r = g (ix_reg k) and e' = g (ix_entry (k + 1)) in
          [
            sp "handler" (g (ix_entry k)) r 0;
            sp "rt.hop" r e' 0;
            sp "rt.register" r (min (g (ix_reg_end k)) e') hop;
          ])
        (List.init (stages - 1) (fun k -> k + 1))
    in
    Array.of_list
      ([ sp "op" a x (-1); sp "rt.qwait" a e1 0; sp "rt.register" a (min b e1) 1 ]
      @ rest
      @ [ sp "handler" (g (ix_entry stages)) x 0 ])

(* Measure one window, then stop starting ops and let the window's ops
   finish, so the runtime is idle when this returns. *)
let measure l ~seconds ~lat ~agg =
  let before = Probe.snap l.rt in
  let first = Atomic.get l.next_id in
  Atomic.set l.base first;
  let t0 = Probe.now () in
  let t1 = t0 + int_of_float (seconds *. 1e9) in
  let inject0 = l.inject_ns and injected0 = l.injected in
  let ok = ref 0 and attempted = ref 0 in
  let t_stop =
    match l.shape with
    | Skew ->
      let on_reap s ns =
        if l.in_window.(s) then begin
          incr ok;
          Quantile.add lat ns
        end
      in
      while Probe.now () < t1 do
        step l ~more:true ~on_reap
      done;
      let t_stop = Probe.now () in
      attempted := Atomic.get l.next_id - first;
      while l.issued > l.reaped do
        step l ~more:false ~on_reap
      done;
      t_stop
    | Chain ->
      Unix.sleepf (Float.max 0. (float_of_int (t1 - Probe.now ()) /. 1e9));
      Atomic.set l.stopping true;
      wait l (fun () -> Atomic.get l.idle = slots Chain);
      let t_stop = Probe.now () in
      Array.iteri (fun w h -> Quantile.merge ~into:lat h; ok := !ok + l.done_w.(w)) l.lat_w;
      attempted := Array.fold_left ( + ) 0 l.started_w;
      t_stop
  in
  let after = Probe.snap l.rt in
  (match (l.st, agg) with
  | Some st, Some agg ->
    for i = 0 to min (Atomic.get l.next_id - first) trace_cap - 1 do
      (* An op whose start was not stamped began before the window. *)
      if st.(i * stride l.shape) > 0 then Report.agg_add agg (first + i) (spans_of l st i)
    done
  | _ -> ());
  {
    Report.secs = float_of_int (t_stop - t0) /. 1e9;
    attempted = !attempted;
    ok = !ok;
    before;
    after;
    inject_ns = l.inject_ns - inject0;
    injected = l.injected - injected0;
    net = None;
  }

(* Stop and check every invariant; returns the violations. Call after
   {!measure}, with the runtime idle. *)
let teardown l =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  errs := List.rev (check_runtime l.rt);
  (* Every op's events are counted by construction: one per skew op,
     [stages] per chain request (the stage-order check below proves
     each one ran). *)
  let ops = Atomic.get l.next_id in
  let attempts = match l.shape with Skew -> ops | Chain -> ops * stages in
  let executed = Rt.Runtime.executed l.rt
  and pending = Rt.Runtime.pending l.rt
  and refused = Rt.Runtime.refused l.rt
  and abandoned = Rt.Runtime.abandoned l.rt in
  if attempts <> executed + pending + refused + abandoned then
    fail "attempts %d <> executed %d + pending %d + refused %d + abandoned %d" attempts
      executed pending refused abandoned;
  if executed <> attempts then fail "executed %d of %d events" executed attempts;
  if Atomic.get l.broken > 0 then fail "%d ops ran out of order or twice" (Atomic.get l.broken);
  if Atomic.get l.completed <> ops then fail "%d completions for %d ops" (Atomic.get l.completed) ops;
  if Array.exists (fun a -> Atomic.get a <> -1) l.state then fail "an op never completed";
  List.rev !errs
