#!/usr/bin/env python3
"""Record benchmark result sets and report which layer moved between two.

    python3 perfbench/layer_diff.py record OUT.jsonl [--seeds 1-10]
    python3 perfbench/layer_diff.py diff BASE.jsonl CANDIDATE.jsonl

`record` runs perfbench/run.py from the current checkout once per seed with
--trace 0 and once with --trace 1 on every workload of BENCHMARK.json, at
its run_seconds, appending one line per run to OUT.jsonl. Record the base and the candidate from their own checkouts
(alternating them keeps host drift out of the comparison), then `diff`:

1. per workload, every end-to-end metric: median and spread (interquartile
   range over median) on each side, and the change of the medians;
2. the layer self-time shares turned into time — share times the sampled
   window (the traced pass's build + simulate + collect spans, or the
   per-call handle_line time on serve_mixed) — ordered by how much time
   each layer moved;
3. every other per-layer metric, largest relative change first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SHARE = ".self_share"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(args):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                for trace in ("0", "1"):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", seconds, "--trace", trace],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        sys.exit("run failed: %s seed %d trace %s"
                                 % (workload, seed, trace))
                    row = json.loads(lines[-1])
                    row.update(workload=workload, seed=seed, trace=int(trace))
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print("%s seed %d trace %s: correct=%s"
                          % (workload, seed, trace, row["correct"]))


def load(path):
    """{workload: {"e2e"|"layer": {metric: [values]}}} and metric units."""
    sets, units = {}, {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            side = sets.setdefault(row["workload"], {"e2e": {}, "layer": {}})
            kind = "layer" if row["trace"] else "e2e"
            for name, m in row["metrics"].items():
                side[kind].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    return sets, units


def med(values):
    return statistics.median(values) if values else float("nan")


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / m if m else 0.0


def change(a, b):
    return (b - a) / a * 100.0 if a else float("nan")


def window(layer):
    """The sampled wall time the shares divide, and its unit."""
    spans = ("scenario.build_s", "scenario.simulate_s", "scenario.collect_s")
    if all(med(layer.get(s, [])) > 0 for s in spans):
        return sum(med(layer[s]) for s in spans), "s"
    return med(layer.get("serve.handle_line_us", [])), "us/request"


def diff(args):
    base, units = load(args.base)
    cand, more = load(args.candidate)
    units.update(more)
    for workload in [w for w in base if w in cand]:
        a, b = base[workload], cand[workload]
        print("== %s" % workload)
        print("%-22s %16s %8s %16s %8s %9s" % (
            "end-to-end", "base", "spread", "candidate", "spread", "change"))
        for name in a["e2e"]:
            va, vb = a["e2e"][name], b["e2e"].get(name, [])
            print("%-22s %16.6g %7.1f%% %16.6g %7.1f%% %+8.2f%%  %s" % (
                name, med(va), 100 * spread(va), med(vb), 100 * spread(vb),
                change(med(va), med(vb)), units[name]))

        wa, unit = window(a["layer"])
        wb, _ = window(b["layer"])
        moved = []
        for name in a["layer"]:
            if name.endswith(SHARE) and name in b["layer"]:
                ta = med(a["layer"][name]) * wa
                tb = med(b["layer"][name]) * wb
                moved.append((abs(tb - ta), name[:-len(SHARE)], ta, tb))
        moved.sort(reverse=True)
        print("\n%-22s %16s %16s %12s   (sampled window %.6g -> %.6g %s)" % (
            "layer time", "base", "candidate", "moved", wa, wb, unit))
        for _, layer, ta, tb in moved:
            print("%-22s %16.6g %16.6g %+12.6g" % (layer, ta, tb, tb - ta))

        rest = []
        for name in a["layer"]:
            if name.endswith(SHARE) or name not in b["layer"]:
                continue
            ma, mb = med(a["layer"][name]), med(b["layer"][name])
            rel = change(ma, mb) if ma else (0.0 if mb == ma else float("inf"))
            rest.append((abs(rel), name, ma, mb, rel))
        rest.sort(key=lambda r: (-r[0], r[1]))
        print("\n%-30s %16s %16s %9s" % ("per-layer", "base", "candidate",
                                          "change"))
        for _, name, ma, mb, rel in rest:
            print("%-30s %16.6g %16.6g %+8.2f%%  %s" % (
                name, ma, mb, rel, units[name]))
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    rec.add_argument("--seeds", default="1-10")
    dif = sub.add_parser("diff")
    dif.add_argument("base")
    dif.add_argument("candidate")
    args = parser.parse_args()
    record(args) if args.command == "record" else diff(args)


if __name__ == "__main__":
    main()
