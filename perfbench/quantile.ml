(* Latency distributions and the guarded ratios every per-layer metric
   is built from.

   A distribution is a log-bucketed histogram with 0.1% relative bucket
   width: fixed memory whatever the sample count, so recording never
   grows the heap of the process being measured, and pooling windows or
   shipping the client's samples to the server is a merge. A percentile
   is read by nearest rank and interpolated within its bucket, so it is
   within 0.1% of the exact order statistic. *)

let growth = 1.001
let log_growth = Float.log growth

(* Bucket [i] holds values in [growth^i, growth^(i+1)); value 0 goes to
   bucket 0. 28 000 buckets reach past 10^12 ns. *)
let buckets = 28_000

type t = {
  counts : int array;
  mutable n : int;  (** finite samples *)
  mutable failed : int;  (** failed ops: infinitely late *)
  mutable sum : float;  (** of the finite samples *)
}

let create () = { counts = Array.make buckets 0; n = 0; failed = 0; sum = 0. }

let bucket v =
  if v <= 1 then 0 else min (buckets - 1) (int_of_float (Float.log (float_of_int v) /. log_growth))

let add t v =
  let i = bucket v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. float_of_int v

let add_failed t = t.failed <- t.failed + 1

let merge ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.n <- into.n + t.n;
  into.failed <- into.failed + t.failed;
  into.sum <- into.sum +. t.sum

let count t = t.n + t.failed

(* Nearest-rank percentile [p] (0-100); [infinity] when the rank lands
   on a failed op, [nan] with no sample at all. *)
let percentile t p =
  let total = count t in
  if total = 0 then nan
  else
    let k = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int total))) in
    if k > t.n then infinity
    else
      let rec walk i seen =
        let c = t.counts.(i) in
        if seen + c >= k then
          let lo = if i = 0 then 0. else Float.pow growth (float_of_int i) in
          lo *. (1. +. ((growth -. 1.) *. float_of_int (k - seen) /. float_of_int c))
        else walk (i + 1) (seen + c)
      in
      walk 0 0

(* [num / den], 0 when nothing was counted in the denominator. *)
let ratio num den = if den = 0. then 0. else num /. den

let per_kop num ops = ratio (1000. *. num) ops
