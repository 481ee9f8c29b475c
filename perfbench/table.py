#!/usr/bin/env python3
"""Run the benchmark on every workload and print each metric by name, unit
and direction, with the median, quartiles and sample count over seeds.

    python3 perfbench/table.py                    # one seed per workload
    python3 perfbench/table.py --seeds 1-10 --sets 2
    python3 perfbench/table.py --trace            # per-layer metrics

Run from the repository root. The command, run length, workloads, metric
list and bounds come from BENCHMARK.json. Runs are interleaved: for each
seed, every workload, and within a workload every set, so each set spans
the whole time the command runs and two sets see the same host stretches,
as a change and its parent run alternately do. With --sets 2 the second
set's median is compared with the first's. Exits nonzero when any run
fails, reports a failed iteration, or (with --sets 2) a spread other than
setup_s's or a median drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if len(lines) > 1:
        result["context"] = json.loads(lines[-2]).get("context", {})
    return result


def spread(values):
    """(q1, median, q3, IQR/median) as the acceptance rule computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return values[0], med, values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    ok = True
    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    for seed in seeds:
        for workload in workloads:
            for s in range(args.sets):
                r = run_once(bench, workload, seed, seconds, args.trace)
                if r is None or not r["correct"] or r["failed"]:
                    ok = False
                    print(f"{workload} seed {seed}: FAILED {r and (r['failed'], r['attempted'])}",
                          file=sys.stderr)
                if r is None:
                    continue
                results[(workload, s)].append(r)
                probe = r.get("context", {}).get("probe_ns_per_step_quartiles")
                print(f"  set {s + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                      + (f" probe_ns={probe[1]:.1f}" if probe else ""),
                      file=sys.stderr, flush=True)

    for workload in workloads:
        sets = [results[(workload, s)] for s in range(args.sets)]
        attempted = sum(r["attempted"] for rs in sets for r in rs)
        failed = sum(r["failed"] for rs in sets for r in rs)
        print(f"\n{workload}: {len(seeds)} seed(s) x {args.sets} set(s), "
              f"{seconds} s per run, failed {failed}/{attempted}")
        print(f"  {'metric':<32} {'unit':<9} {'better':<7} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6} {'n':>3}"
              + ("  set2-median set2-iqr/med  drift" if args.sets > 1 else ""))
        for spec in specs:
            name = spec["name"]
            rows = [[r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                    for rs in sets]
            if not rows[0]:
                ok = False
                print(f"  {name:<32} missing")
                continue
            q1, med, q3, rel = spread(rows[0])
            bound = spec.get("bound")
            line = (f"  {name:<32} {spec['unit']:<9} {spec['better']:<7} {med:>12.6g} "
                    f"{q1:>12.6g} {q3:>12.6g} {rel:>8.4f} "
                    f"{bound if bound is not None else '-':>6} {len(rows[0]):>3}")
            if bound is not None and name != "setup_s" and len(rows[0]) > 1 and rel > bound:
                ok = False
                line += "  SPREAD>BOUND"
            if len(rows) > 1 and rows[1]:
                _, med2, _, rel2 = spread(rows[1])
                worse = (med2 - med) if spec["better"] == "lower" else (med - med2)
                drift = worse / med if med else 0.0
                line += f"  {med2:>11.6g} {rel2:>12.4f} {drift:>+6.3f}"
                if bound is not None and name != "setup_s" and rel2 > bound:
                    ok = False
                    line += "  SPREAD>BOUND"
                if bound is not None and drift > bound:
                    ok = False
                    line += "  DRIFT>BOUND"
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
