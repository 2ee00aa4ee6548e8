#!/usr/bin/env python3
"""Build and run the Mely end-to-end benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload skew_steal --seed 1 --seconds 10 --trace 0

prints human-readable lines, then, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).

Spread report: `--repeat N` runs N seeds (seed, seed+1, ...) and prints,
for each metric, the median, quartiles, min, max and IQR/median, and
each run's diagnostics. `--sets K` repeats that K times, one set after
the other, and compares the sets' medians against the bounds in
BENCHMARK.json. `--workload all` covers every workload and prints each
metric as <workload>/<metric> with its unit.

`--selftest` runs the benchmark's unit tests and a short run of each
workload with tracing off and on.

Each run is a separate process (perfbench/bench.ml); the web client is
a further process of its own. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["web_pipelined", "skew_steal", "chain_fine"]
END_TO_END = ["ops_per_s", "lat_p50_us", "lat_p90_us", "ok_frac", "cpu_us_per_op",
              "mem_peak_mb", "setup_s"]
PER_LAYER = [
    "steal.per_kop", "steal.success_ratio", "steal.visits_per_kop",
    "steal.failed_rounds_per_kop", "rt.balance", "rt.overhead_ns_per_event",
    "rt.inject_ns_per_event", "gc.minor_words_per_op", "gc.minor_gcs_per_kop",
    "rt.qwait_us_p50", "rt.qwait_us_p90", "rt.hop_us_p50", "rt.parks_per_kop",
    "rt.park_frac", "rt.busy_frac", "net.to_app_us_p50", "net.from_app_us_p50",
    "net.events_per_req", "net.bufpool_reuse_ratio", "handler.self_us_p50",
    "net.app_us_p50", "trace.overhead_frac",
]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    for need in ("dune-project", os.path.join("lib", "rt"), os.path.join("lib", "rtnet")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a Mely checkout: %s is missing under %s" % (need, ROOT))
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    # --cache=disabled: dune's shared cache lives outside the checkout.
    proc = subprocess.run(dune + ["build", "--root", ".", "--cache=disabled"] + targets,
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("build failed", 1)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_bench(workload, seed, seconds, trace, echo=True):
    """One bench.exe process; returns (parsed last line or None, exit code)."""
    proc = subprocess.Popen(
        [EXE, "run", "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        fail("%s seed %d did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S), 1)
    # A run waits for its web clients; this only matters if it crashed.
    kill_group(proc.pid)
    lines = out.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, proc.returncode or 1


def contract(args):
    res, code = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        fail("%s produced no result" % args.workload, 1)
    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in names if n not in res["metrics"]]
    correct = bool(res["correct"]) and code == 0 and not missing
    for n in missing:
        print("BROKEN: metric %s missing" % n)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: res["metrics"][n] for n in names if n in res["metrics"]},
    }))
    sys.exit(0 if correct else 1)


def quartiles(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3


def bounds():
    """End-to-end metric -> (better, bound) from BENCHMARK.json, if present."""
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec):
        return {}
    with open(spec) as f:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}


def spread(args):
    """--repeat N runs per workload and set; --sets K sets one after the
    other (set j uses seeds seed + j*N ... seed + j*N + N-1), so the
    sets see the host at different times, as two benchmark sessions
    would."""
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    names = PER_LAYER if args.trace else END_TO_END
    rc = 0
    sets = {w: [] for w in workloads}
    for j in range(args.sets):
        for w in workloads:
            runs = []
            for i in range(args.repeat):
                seed = args.seed + j * args.repeat + i
                t = time.monotonic()
                res, code = run_bench(w, seed, args.seconds, args.trace, echo=False)
                if res is None or code != 0 or not res["correct"]:
                    print("%s seed %d FAILED: %s" % (w, seed, res and res.get("errors")))
                    rc = 1
                    continue
                runs.append((seed, time.monotonic() - t, res))
            if not runs:
                continue
            sets[w].append(runs)
            print("\n%s set %d: %d runs, --seconds %s --trace %d" %
                  (w, j + 1, len(runs), args.seconds, args.trace))
            print("%-36s %12s %12s %12s %12s %12s %8s  unit" %
                  ("metric", "median", "q1", "q3", "min", "max", "iqr/med"))
            for n in names:
                vals = [r["metrics"][n]["value"] for _, _, r in runs]
                unit = runs[0][2]["metrics"][n]["unit"]
                med, q1, q3 = quartiles(vals)
                iqr = (q3 - q1) / abs(med) if med else 0.0
                print("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%%  %s" %
                      (w + "/" + n, med, q1, q3, min(vals), max(vals), 100 * iqr, unit))
            diag = list(runs[0][2]["diagnostics"])
            print("per-run diagnostics:")
            print("  seed  wall_s  " + "  ".join(diag))
            for seed, wall, r in runs:
                print("  %4d  %6.1f  " % (seed, wall) + "  ".join(
                    "%.6g" % r["diagnostics"][d]["value"] for d in diag))
            sys.stdout.flush()
    if args.sets > 1 and not args.trace:
        # The acceptance check on a benchmark: within each set, IQR/median
        # under the bound (setup_s exempt); across sets, no set's median
        # worse than another's by more than the bound.
        bnd = bounds()
        print("\nacross %d sets: per-set median (IQR/median); worst shift = the largest"
              " move in the worse direction between any two sets" % args.sets)
        for w in workloads:
            for n in names:
                if n not in bnd or len(sets[w]) < 2:
                    continue
                better, bound = bnd[n]
                meds, iqrs = [], []
                for runs in sets[w]:
                    med, q1, q3 = quartiles([r["metrics"][n]["value"] for _, _, r in runs])
                    meds.append(med)
                    iqrs.append((q3 - q1) / abs(med) if med else 0.0)
                worst = max(((b - a) if better == "lower" else (a - b)) / abs(a) if a else 0.0
                            for a in meds for b in meds)
                over = worst > bound or (n != "setup_s" and max(iqrs) > bound)
                print("%-36s %s  worst %+6.1f%%  bound %4.0f%%  %s" % (
                    w + "/" + n,
                    "  ".join("%10.5g (%4.1f%%)" % (m, 100 * q) for m, q in zip(meds, iqrs)),
                    100 * worst, 100 * bound, "OVER" if over else "ok"))
    sys.exit(rc)


def selftest():
    """Unit tests, then a short run of each workload traced and not. When
    BENCHMARK.json is present, every metric it names must come out with
    the same unit."""
    build(["./perfbench/bench.exe", "@perfbench/selftest"])
    declared = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            b = json.load(f)
        declared = {0: {m["name"]: m["unit"] for m in b["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in b["per_layer"]}}
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            res, code = run_bench(w, 7, 1, trace, echo=False)
            problems = []
            if res is None or code != 0 or not res["correct"]:
                problems.append("run failed: %s" % (res and res.get("errors")))
            else:
                got = {n: m["unit"] for n, m in res["metrics"].items()}
                if set(got) != set(PER_LAYER if trace else END_TO_END):
                    problems.append("metric set differs from run.py's")
                for n, unit in declared.get(trace, {}).items():
                    if got.get(n) != unit:
                        problems.append("%s: BENCHMARK.json says %s, run gives %s" % (n, unit, got.get(n)))
                if not trace and res["metrics"]["ok_frac"]["value"] != 1.0:
                    problems.append("ok_frac < 1")
            print("%-14s trace %d: %s" % (w, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        p.error("--workload is required")
    build(["./perfbench/bench.exe"])
    if args.repeat or args.sets > 1 or args.workload == "all":
        args.repeat = max(1, args.repeat)
        spread(args)
    contract(args)


if __name__ == "__main__":
    main()
