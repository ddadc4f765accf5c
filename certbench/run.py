#!/usr/bin/env python3
"""The certification benchmark: builds certbench from source and runs one
workload, or compares two checkouts, or checks the benchmark itself.

Run from the root of a checkout:

  python3 certbench/run.py --workload certify-sweep --seed 1 --seconds 10 --trace 0
  python3 certbench/run.py --compare ../base --workload certify-sweep --pairs 10
  python3 certbench/run.py --self-test

The last line of a workload run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The program is built
with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. See certbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify-frontier", "certify-sweep", "paper-tables")
SETUP_SPAWNS = 9  # set-up time is the median over this many processes (+1)
HOST_FIELDS = ("nproc", "threads", "compiler", "build_type")


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(src_root=ROOT, bdir=None):
    """Configures and builds certbench against src_root's src/; returns the
    binary path. The default build is configured once; a build against
    another checkout is configured every time, since its root may change."""
    if not os.path.isfile(os.path.join(src_root, "src", "analysis", "study.h")):
        raise BenchError("no cfc sources under %s/src" % src_root)
    bdir = bdir or build_dir()
    if src_root != ROOT or not os.path.isfile(
            os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DCFC_ROOT=" + os.path.abspath(src_root)],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "certbench")


def git_sha(root=ROOT):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs certbench, returns its last stdout line parsed as JSON."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("certbench %s exited %d" % (" ".join(args),
                                                     proc.returncode))
    return json.loads(lines[-1])


def run_workload(binary, workload, seed, seconds, trace, threads=None,
                 root=ROOT):
    """One benchmark run: set-up spawns, then the measured process."""
    base = ["--workload", workload, "--seed", str(seed),
            "--expected", os.path.join(HERE, "expected.json")]
    if threads is not None:
        base += ["--threads", str(threads)]
    setups = []
    if trace == 0:
        for _ in range(SETUP_SPAWNS):
            t0 = time.monotonic()
            out = run_binary(binary, base + ["--setup-only"])
            setups.append(out["setup_end_monotonic"] - t0)
    trace_out = os.path.join(build_dir(), "trace-%s.json" % workload)
    t0 = time.monotonic()
    result = run_binary(binary, base + ["--seconds", str(seconds),
                                        "--trace", str(trace),
                                        "--trace-out", trace_out])
    setups.append(result["setup_end_monotonic"] - t0)
    if trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    result["context"]["git_sha"] = git_sha(root)
    return result


def check_declared(metrics, trace):
    """Every printed metric must be declared, with its unit, and vice versa."""
    spec = declared()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s, unit mismatch %s"
                         % (missing, extra, units))


def cmd_run(args):
    binary = build()
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    check_declared(result["metrics"], args.trace)
    print("context: " + json.dumps(result["context"], sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


def spread(values):
    """Interquartile range as a share of the median."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def verdict(base, change, ratios, spec):
    """Judges one metric with a bound on paired runs. The spread of the
    per-pair ratios decides, not that of either side alone: host drift
    slower than one pair cancels within it. A metric whose ratios spread
    wider than its bound is unresolved, unless every change run is better
    than every base run."""
    lower = spec["better"] == "lower"
    sign = 1 if lower else -1
    change_rel = statistics.median(ratios) - 1.0
    worst_change = max(change) if lower else min(change)
    best_base = min(base) if lower else max(base)
    if sign * worst_change < sign * best_base:
        return "better (every run)"
    if spread(ratios) > spec["bound"]:
        return "unresolved (ratio spread %.3f > bound)" % spread(ratios)
    if sign * change_rel > spec["bound"]:
        return "WORSE than bound %g" % spec["bound"]
    wins = sum(1 for r in ratios if sign * (r - 1.0) < 0)
    if (wins >= 0.9 * len(ratios) and
            abs(statistics.median(change) - statistics.median(base)) >
            spread(base) * statistics.median(base)):
        return "better (%d/%d pairs)" % (wins, len(ratios))
    return "within bound %g" % spec["bound"]


def cmd_compare(args):
    """Alternates runs of the program built from a base checkout's src/ with
    runs built from this checkout's src/, and judges every metric on the
    per-pair ratios change / base.

    Both programs are built from this checkout's certbench/, so the
    benchmark is held fixed and only the library differs. Each pair runs
    both sides on one seed, back to back, and the side that goes first
    alternates, so host speed that drifts over minutes falls on both sides
    of a pair rather than on one side of the comparison. Refuses when any
    two runs differ in a host field of their context (core count, runner
    threads, compiler, build type).
    """
    if args.pairs < 2:
        raise BenchError("--pairs must be at least 2")
    base_root = os.path.abspath(args.compare)
    base_bin = build(base_root, os.path.join(build_dir(), "compare-base"))
    change_bin = build()
    sides = {"base": (base_bin, base_root), "change": (change_bin, ROOT)}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            binary, root = sides[side]
            result = run_workload(binary, args.workload, args.seed + i,
                                  args.seconds, args.trace, root=root)
            if not result["correct"]:
                raise BenchError("%s run %d failed its checks" % (side, i))
            runs[side].append(result)
    contexts = [r["context"] for r in runs["base"] + runs["change"]]
    for field in HOST_FIELDS:
        values = {json.dumps(c.get(field)) for c in contexts}
        if len(values) > 1:
            raise BenchError("refusing to compare: context field %r differs "
                             "(%s)" % (field, ", ".join(sorted(values))))
    print("base %s (%s) vs change %s (%s), %s, %d pairs"
          % (base_root, runs["base"][0]["context"]["git_sha"], ROOT,
             runs["change"][0]["context"]["git_sha"], args.workload,
             args.pairs))
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    worse = 0
    for name in sorted(runs["base"][0]["metrics"]):
        a = [r["metrics"][name]["value"] for r in runs["base"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = [y / x if x else (1.0 if y == x else float("inf"))
                  for x, y in zip(a, b)]
        line = ("%-28s base %12.6g [%.6g, %.6g]  change %12.6g  "
                "paired %+7.2f%%  spread %.3f"
                % (name, statistics.median(a), min(a), max(a),
                   statistics.median(b), 100 * (statistics.median(ratios) - 1),
                   spread(ratios)))
        if name in bounds:
            v = verdict(a, b, ratios, bounds[name])
            worse += v.startswith("WORSE")
            line += "  " + v
        print(line)
    return 1 if worse else 0


def cmd_self_test():
    """Checks the benchmark: deterministic counts repeat across runs and
    runner thread counts, and every printed metric is declared."""
    binary = build()
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", "0",
                "--expected", os.path.join(HERE, "expected.json")]
        runs = [run_binary(binary, base + ["--threads", t])
                for t in ("4", "4", "1")]
        counts = [r["counts"] for r in runs]
        same = all(c == counts[0] for c in counts)
        correct = all(r["correct"] for r in runs)
        print("%-16s counts repeat at threads 4,4,1: %s  values correct: %s"
              % (workload, same, correct))
        ok = ok and same and correct
    for trace in (0, 1):
        result = run_workload(binary, "certify-sweep", 1, 1, trace)
        try:
            check_declared(result["metrics"], trace)
            print("--trace %d metrics match BENCHMARK.json" % trace)
        except BenchError as e:
            print(e)
            ok = False
    print("self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="BASE_CHECKOUT",
                        help="alternate runs against BASE_CHECKOUT's src/")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return cmd_self_test()
        if not args.workload:
            parser.error("--workload is required")
        if args.compare:
            return cmd_compare(args)
        return cmd_run(args)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        print("certbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
