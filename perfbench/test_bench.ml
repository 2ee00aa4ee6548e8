(* Unit tests of the benchmark's own arithmetic: percentiles, ratios,
   span nesting and self times, Prometheus family parsing. The
   end-to-end checks of each workload run in every benchmark run; a
   short run of each is `python3 perfbench/run.py --selftest`. *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let within x exact = Float.abs (x -. exact) <= 0.001 *. exact

let hist values =
  let h = Quantile.create () in
  List.iter (Quantile.add h) values;
  h

let () =
  let h = hist [ 50; 10; 40; 20; 30 ] in
  check "p50 nearest rank" (within (Quantile.percentile h 50.) 30.);
  check "p90 nearest rank" (within (Quantile.percentile h 90.) 50.);
  check "p0 is the minimum" (within (Quantile.percentile h 0.) 10.);
  check "p100 is the maximum" (within (Quantile.percentile h 100.) 50.);
  let hundred = hist (List.init 100 (fun i -> 1000 * (100 - i))) in
  check "p90 of 1..100" (within (Quantile.percentile hundred 90.) 90_000.);
  check "p99 of 1..100" (within (Quantile.percentile hundred 99.) 99_000.);
  let big = hist (List.init 100_000 (fun i -> 1 + i)) in
  check "p50 of 1..100000" (within (Quantile.percentile big 50.) 50_000.);
  check "p90 of 1..100000" (within (Quantile.percentile big 90.) 90_000.);
  check "sum is exact" (Quantile.(big.sum) = 5_000_050_000.);
  check "zero is a value" (Quantile.percentile (hist [ 0; 0; 0 ]) 50. < 1.01);
  let with_failed k =
    let h = hist [ 50; 10; 40; 20; 30 ] in
    for _ = 1 to k do
      Quantile.add_failed h
    done;
    h
  in
  check "failed ops are infinitely late" (Quantile.percentile (with_failed 5) 90. = infinity);
  check "failed ops shift the median"
    (within (Quantile.percentile (with_failed 1) 50.) 30.
    && within (Quantile.percentile (with_failed 3) 50.) 40.);
  check "failed ops count" (Quantile.count (with_failed 3) = 8);
  check "no samples" (Float.is_nan (Quantile.percentile (Quantile.create ()) 50.));
  let a = hist [ 10; 20 ] and b = hist [ 30; 40; 50 ] in
  Quantile.merge ~into:a b;
  check "merge pools samples"
    (Quantile.count a = 5 && within (Quantile.percentile a 50.) 30.);
  check "ratio" (close (Quantile.ratio 3. 4.) 0.75);
  check "ratio over nothing" (close (Quantile.ratio 3. 0.) 0.);
  check "per_kop" (close (Quantile.per_kop 5. 2000.) 2.5)

let sp name start stop parent = { Span.name; start; stop; parent }

let () =
  (* op [0,100]: qwait [0,30] holding inject [0,10], handler [30,100]. *)
  let op = [| sp "op" 0 100 (-1); sp "q" 0 30 0; sp "i" 0 10 1; sp "h" 30 100 0 |] in
  check "tiled op nests" (Span.check_nesting op = Ok ());
  check "self times" (Span.self_times op = [| 0; 20; 10; 70 |]);
  check "self times sum to root" (Span.check_self_sum op = Ok ());
  let gap = [| sp "op" 0 100 (-1); sp "a" 10 20 0; sp "b" 50 60 0 |] in
  check "root keeps the uncovered part" (Span.self_times gap = [| 80; 10; 10 |]);
  check "gaps still sum" (Span.check gap = Ok ());
  let outside = [| sp "op" 0 100 (-1); sp "a" 90 110 0 |] in
  check "child past its parent is caught" (Result.is_error (Span.check_nesting outside));
  let early = [| sp "op" 10 100 (-1); sp "a" 5 20 0 |] in
  check "child before its parent is caught" (Result.is_error (Span.check_nesting early));
  let overlap = [| sp "op" 0 100 (-1); sp "a" 0 60 0; sp "b" 40 100 0 |] in
  check "overlap nests" (Span.check_nesting overlap = Ok ());
  check "overlapping siblings break the sum" (Result.is_error (Span.check_self_sum overlap));
  check "union counts overlap once" (Span.self_times overlap = [| 0; 60; 60 |]);
  let backwards = [| sp "op" 0 100 (-1); sp "a" 50 40 0 |] in
  check "negative span is caught" (Result.is_error (Span.check_nesting backwards));
  check "forward parent is caught"
    (Result.is_error (Span.check_nesting [| sp "op" 0 9 (-1); sp "a" 0 1 2; sp "b" 0 1 0 |]))

let () =
  let before =
    "# HELP mely_worker_parks_total Times worker parked idle\n\
     # TYPE mely_worker_parks_total counter\n\
     mely_worker_parks_total{worker=\"0\"} 3\n\
     mely_worker_parks_total{worker=\"1\"} 4\n\
     mely_worker_parks_total_extra 99\n\
     mely_runtime_steals_total 10\n"
  in
  let after =
    "mely_worker_parks_total{worker=\"0\"} 5\n\
     mely_worker_parks_total{worker=\"1\"} 10\n\
     mely_runtime_steals_total 12.5\n"
  in
  check "family sum ignores longer names" (close (Prom_text.sum before "mely_worker_parks_total") 7.);
  check "unlabelled sample" (close (Prom_text.sum after "mely_runtime_steals_total") 12.5);
  check "per-label deltas"
    (Prom_text.deltas ~before ~after "mely_worker_parks_total"
    = [ ("worker=\"0\"", 2.); ("worker=\"1\"", 6.) ]);
  check "missing family" (close (Prom_text.sum after "mely_nothing") 0.)

let () =
  if !failures > 0 then begin
    Printf.printf "%d benchmark self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "benchmark self-tests passed"
