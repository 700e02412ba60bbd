#!/usr/bin/env python3
"""The refresh benchmark's own checks.

Run from the root of a checkout:

  python3 refreshbench/check.py determinism [--workload W] [--seed N] [--seconds S]
      Two untraced and two traced runs with one seed: link_msgs_per_refresh,
      link_bytes_per_refresh and every per-layer count must be identical, and
      the metrics printed must be exactly those BENCHMARK.json names.

  python3 refreshbench/check.py perturb [--workload W] [--seconds S]
      A run whose expected images are deliberately wrong must report
      correct = false and failed operations: the oracle can fail.

  python3 refreshbench/check.py spread [--workload W] [--seeds 1-10] [--seconds S]
      One run per seed; prints each end-to-end metric's median and the
      spread between its quartiles as a share of the median, against the
      bound in BENCHMARK.json.

Without --workload every workload in BENCHMARK.json is checked.  Exits
non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TIME_UNITS = {"s", "ms", "us"}
# Per-layer metrics no two runs repeat exactly: one derived from timings,
# and the GC's, because the program boxes a float each time its trace
# clock advances, so allocation depends a little on timing.
INEXACT_LAYERS = {"snapshot_table.receiver_share", "gc.minor_words_per_refresh",
                  "gc.major_collections"}


def run(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "refreshbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def counted_layers():
    return [m["name"] for m in SPEC["per_layer"]
            if m["unit"] not in TIME_UNITS and m["name"] not in INEXACT_LAYERS]


def same_names(workload, result, key):
    want = [m["name"] for m in SPEC[key]]
    if list(result["metrics"]) != want:
        print(f"  {workload}: metrics {list(result['metrics'])} differ from BENCHMARK.json {key}")
        return False
    return True


def determinism(workload, seed, seconds):
    a, b = run(workload, seed, seconds, 0), run(workload, seed, seconds, 0)
    ok = same_names(workload, a, "end_to_end")
    for name in ("link_msgs_per_refresh", "link_bytes_per_refresh"):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if va != vb:
            ok = False
            print(f"  {workload}: {name} differs: {va} vs {vb}")
    ta, tb = run(workload, seed, seconds, 1), run(workload, seed, seconds, 1)
    ok &= same_names(workload, ta, "per_layer")
    for name in counted_layers():
        va, vb = ta["metrics"][name]["value"], tb["metrics"][name]["value"]
        if va != vb:
            ok = False
            print(f"  {workload}: {name} differs: {va} vs {vb}")
    print(f"{workload}: determinism {'ok' if ok else 'FAILED'}")
    return ok


def perturb(workload, seconds):
    r = run(workload, 1, seconds, 0, extra=("--perturb",))
    ok = r["correct"] is False and r["failed"] > 0
    print(f"{workload}: perturbed expected image -> correct={r['correct']} "
          f"failed={r['failed']}: {'ok' if ok else 'FAILED (the oracle did not catch it)'}")
    return ok


def spread(workload, seeds, seconds):
    runs = [run(workload, s, seconds, 0) for s in seeds]
    ok = all(r["correct"] for r in runs)
    shares = {r["failed"] / r["attempted"] for r in runs}
    if len(shares) != 1:
        ok = False
    print(f"{workload}: {len(runs)} seeds, failed shares {sorted(shares)}")
    for m in SPEC["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        flag = "" if share < m["bound"] / 3 else (" over bound/3" if share < m["bound"]
                                                   else " OVER BOUND")
        if share >= m["bound"] and m["name"] != "setup_s":
            ok = False
        print(f"  {m['name']:<24} median {med:14.4f} {m['unit']:<8} "
              f"spread {share:7.4f} bound {m['bound']:.2f}{flag}")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("check", choices=["determinism", "perturb", "spread"])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    a = p.parse_args()
    names = [a.workload] if a.workload else [w["name"] for w in SPEC["workloads"]]
    lo, _, hi = a.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    ok = True
    for name in names:
        if a.check == "determinism":
            ok &= determinism(name, a.seed, a.seconds)
        elif a.check == "perturb":
            ok &= perturb(name, a.seconds)
        else:
            ok &= spread(name, seeds, a.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
