#!/usr/bin/env python3
"""Interleaved same-day A/B of two revisions: the repo's perf comparison.

    tools/ab.py REV_A REV_B          A is the parent, B the change
    tools/ab.py --report RAW.jsonl   re-print the report of a saved run

Builds the `bench` preset of both revisions in git worktrees under
${TMPDIR:-/tmp}, then runs PAIRS pairs, alternating which side goes first,
of every perf binary in bench/ (with --repeat 1: the pairs are the
statistics) and, when both revisions have perfbench/, of every
BENCHMARK.json workload through perfbench/run.py. Every run is pinned with
taskset and appended to one raw JSONL file, whose path is printed first and
last; the report is computed from that file alone, by the same code that
--report runs. The worktrees are removed on every exit path.

The report gives, per bench and metric, the parent's and the change's
median [IQR] (inclusive quartiles), the median shift and the pairs the
change won (ties count for neither side).
  * bench/ records report their headline rate, the first
    ops|frames|queries|requests _per_sec field; higher is better. A bench
    whose fixed-seed counters (the fields tools/bench_guard.sh keeps)
    differ between the sides is flagged; that flag is informational,
    bench_guard is the gate.
  * perfbench workloads report every BENCHMARK.json end_to_end metric,
    with its direction and bound read from that file; a median shift past
    the bound is flagged.

Exit status: 1 when a run failed, or when a metric is worse in at least
9/10 of the pairs and its median moved the worse way by more than the
parent's IQR; 2 on bad usage; 0 otherwise.
"""

import functools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10
PERFBENCH_SEED = 1
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# (binary, arguments, multi-threaded): every suite of every perf binary.
BENCH_RUNS = (
    ("hotpath", ["--suite", "kernel"], False),
    ("hotpath", ["--suite", "hotpath"], False),
    ("aodv_storm", [], False),
    ("overlay_storm", [], False),
    ("megascale", [], False),
    ("serve_smoke", [], True),  # a session thread and a worker thread
)
HEADLINE = re.compile(r"^(ops|frames|queries|requests)_per_sec$")
# The fixed-seed counters tools/bench_guard.sh keeps (besides "bench").
COUNTERS = ("ops", "frames", "queries", "answers", "connect_msgs", "msgs",
            "events", "frames_delivered", "peak_queue", "threads",
            "sim_shards")


def load_spec():
    """BENCHMARK.json of this checkout, or None without perfbench."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


# ---- running ----------------------------------------------------------------

def run(cmd, **kwargs):
    """subprocess.run in a process group of its own, killed with the tool:
    an interrupted build or bench leaves no compiler or bench behind."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def git(*args):
    return subprocess.run(["git", "-C", REPO] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def build(tree):
    log_path = os.path.join(tree, "ab-build.log")
    targets = sorted({name for name, _, _ in BENCH_RUNS})
    with open(log_path, "w") as log:
        for cmd in (["cmake", "--preset", "bench"],
                    ["cmake", "--build", "--preset", "bench",
                     "-j", str(os.cpu_count() or 1), "--target"] + targets):
            if run(cmd, cwd=tree, stdout=log,
                   stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("ab: build failed in %s: %s" % (tree, " ".join(cmd)))


def run_bench(tree, name, args, cpus, scratch):
    """One perf-binary run -> (raw-row payloads, error)."""
    work = tempfile.mkdtemp(dir=scratch)  # also serve_smoke's empty cache
    out = os.path.join(work, "records.jsonl")
    cmd = (["taskset", "-c", cpus,
            os.path.join(tree, "build-bench", "bench", name)] + args +
           ["--repeat", "1", "--label", "ab", "--out", out])
    try:
        proc = run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                   text=True, env=dict(os.environ, P2P_BENCH_CACHE=work))
        if proc.returncode != 0 or not os.path.isfile(out):
            return [], "exit %d: %s" % (proc.returncode, proc.stderr[-400:])
        with open(out) as f:
            return [{"record": json.loads(line)} for line in f
                    if line.strip()], None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_perfbench(tree, workload, seconds, cpus):
    """One perfbench workload run -> (raw-row payloads, error)."""
    cmd = ["taskset", "-c", cpus, sys.executable, "perfbench/run.py",
           "--workload", workload, "--seed", str(PERFBENCH_SEED),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
               text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [], "exit %d: %s" % (proc.returncode, proc.stderr[-400:])
    return [{"workload": workload, "result": json.loads(lines[-1])}], None


def remove_worktrees(repo, trees, scratch):
    """Unregister the worktrees from `repo` and delete `scratch`, which
    holds them. `git worktree remove` refuses a half-deleted tree (its .git
    file gone, say by an interrupted delete), so `git worktree prune` runs
    after the delete. Warns about every failed remove and every tree still
    registered."""
    for tree in trees:
        proc = subprocess.run(["git", "-C", repo, "worktree", "remove",
                               "--force", tree], capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write("ab: warning: git worktree remove %s exited %d "
                             "(pruning instead): %s\n" % (
                                 tree, proc.returncode, proc.stderr.strip()))
    shutil.rmtree(scratch, ignore_errors=True)
    subprocess.run(["git", "-C", repo, "worktree", "prune"],
                   capture_output=True)
    listed = subprocess.run(["git", "-C", repo, "worktree", "list",
                             "--porcelain"], capture_output=True,
                            text=True).stdout
    registered = {os.path.realpath(line[len("worktree "):])
                  for line in listed.splitlines()
                  if line.startswith("worktree ")}
    for tree in trees:
        if os.path.realpath(tree) in registered:
            sys.stderr.write("ab: warning: worktree %s is still registered "
                             "in %s\n" % (tree, repo))


def run_ab(rev_a, rev_b):
    revs = dict(zip(SIDES, (git("rev-parse", "--verify", rev + "^{commit}")
                            for rev in (rev_a, rev_b))))
    raw_path = os.path.join(tempfile.gettempdir(), "ab-%s-%s-%d.jsonl" % (
        revs["parent"][:8], revs["change"][:8], os.getpid()))
    print("ab: parent %s, change %s, %d pairs; raw runs in %s"
          % (revs["parent"], revs["change"], PAIRS, raw_path), flush=True)
    spec = load_spec()
    cpus = sorted(os.sched_getaffinity(0))
    one_cpu = str(cpus[-1])
    many_cpus = ",".join(str(c) for c in (cpus[1:] or cpus))
    scratch = tempfile.mkdtemp(prefix="ab.")
    trees = {}
    started = time.monotonic()
    try:
        for side in SIDES:
            trees[side] = os.path.join(scratch, side)
            git("worktree", "add", "--detach", trees[side], revs[side])
            print("ab: building %s" % side, flush=True)
            build(trees[side])
        jobs = [(" ".join([name] + args), functools.partial(
                    run_bench, name=name, args=args, scratch=scratch,
                    cpus=many_cpus if threaded else one_cpu))
                for name, args, threaded in BENCH_RUNS]
        if spec is not None and all(
                os.path.isfile(os.path.join(t, "perfbench", "run.py"))
                for t in trees.values()):
            jobs += [(w["name"], functools.partial(
                         run_perfbench, workload=w["name"],
                         seconds=spec["run_seconds"], cpus=many_cpus))
                     for w in spec["workloads"]]
        with open(raw_path, "w") as raw:
            raw.write(json.dumps({"revs": revs}) + "\n")
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for label, job in jobs:
                    for side in order:
                        t0 = time.monotonic()
                        row = {"pair": pair, "side": side, "run": label}
                        payloads, error = job(trees[side])
                        if error is not None:
                            payloads = [{"error": error}]
                        for payload in payloads:
                            raw.write(json.dumps(dict(row, **payload)) + "\n")
                        raw.flush()
                        print("ab: pair %d/%d %-6s %-22s %6.1f s%s"
                              % (pair + 1, PAIRS, side, label,
                                 time.monotonic() - t0,
                                 "  FAILED" if error else ""), flush=True)
    finally:
        remove_worktrees(REPO, list(trees.values()), scratch)
    print("ab: %.1f min wall" % ((time.monotonic() - started) / 60))
    status = report(raw_path)
    print("ab: raw runs in %s" % raw_path)
    return status


# ---- report -----------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def fmt(value):
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


def report(raw_path):
    spec = load_spec()
    metrics = {m["name"]: m for m in (spec or {}).get("end_to_end", [])}
    # (bench, metric) -> {"higher": bool, "bound": float|None, side: {pair: v}}
    series = {}
    counters = {}  # bench -> {side: set of counter tuples}
    failed = []
    revs = None

    def add(bench, metric, higher, bound, row, value):
        s = series.setdefault((bench, metric), {
            "higher": higher, "bound": bound, "parent": {}, "change": {}})
        s[row["side"]][row["pair"]] = float(value)

    with open(raw_path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    for row in rows:
        if "revs" in row:
            revs = row["revs"]
        elif "error" in row:
            failed.append("%s %s pair %d: %s" % (
                row["side"], row["run"], row["pair"] + 1, row["error"]))
        elif "record" in row:
            record = row["record"]
            bench = record["bench"]
            headline = next((k for k in record if HEADLINE.match(k)), None)
            if headline is not None:
                add(bench, headline, True, None, row, record[headline])
            counters.setdefault(bench, {}).setdefault(row["side"], set()).add(
                tuple((k, record[k]) for k in COUNTERS if k in record))
        else:
            result = row["result"]
            if not result["correct"]:
                failed.append("%s %s pair %d: %d of %d checks failed" % (
                    row["side"], row["run"], row["pair"] + 1,
                    result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                if name in metrics:
                    add("perfbench." + row["workload"], name,
                        metrics[name]["better"] == "higher",
                        metrics[name]["bound"], row, m["value"])

    if revs is not None:
        print("ab: parent %s, change %s" % (revs["parent"], revs["change"]))
    print("%-32s %-15s %22s %22s %8s %5s" % (
        "bench", "metric", "parent median [IQR]", "change median [IQR]",
        "shift", "wins"))
    regressed = []
    for (bench, metric), s in series.items():
        a, b = s["parent"], s["change"]
        if not a or not b:
            print("%-32s %-15s  (only in %s)"
                  % (bench, metric, "parent" if a else "change"))
            continue
        qa = quartiles(sorted(a.values()))
        qb = quartiles(sorted(b.values()))
        sign = 1.0 if s["higher"] else -1.0
        pairs = sorted(set(a) & set(b))
        wins = sum(1 for p in pairs if sign * (b[p] - a[p]) > 0)
        losses = sum(1 for p in pairs if sign * (b[p] - a[p]) < 0)
        delta = qb[1] - qa[1]
        shift = delta / abs(qa[1]) if qa[1] else 0.0
        flags = []
        if (pairs and 10 * losses >= 9 * len(pairs) and sign * delta < 0
                and abs(delta) > qa[2] - qa[0]):
            flags.append("REGRESSION")
            regressed.append("%s %s" % (bench, metric))
        if s["bound"] is not None and sign * shift < -s["bound"]:
            flags.append("beyond bound %g" % s["bound"])
        sides = counters.get(bench, {})
        if sides.get("parent") != sides.get("change"):
            flags.append("counters differ")
        print("%-32s %-15s %22s %22s %+7.1f%% %2d/%-2d %s" % (
            bench, metric, "%s [%s]" % (fmt(qa[1]), fmt(qa[2] - qa[0])),
            "%s [%s]" % (fmt(qb[1]), fmt(qb[2] - qb[0])), 100.0 * shift,
            wins, len(pairs), "  ".join(flags)))
    for line in failed:
        print("FAILED RUN: " + line)
    for name in regressed:
        print("REGRESSION: %s is worse in >= 9/10 pairs by more than the "
              "parent's IQR" % name)
    if failed or regressed:
        return 1
    print("ab: no run failed and no metric regressed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--report":
        return report(argv[1])
    if len(argv) == 2 and not argv[0].startswith("-"):
        # Turn SIGTERM/SIGHUP into an exit, so the worktrees are removed.
        for sig in (signal.SIGTERM, signal.SIGHUP):
            signal.signal(sig, lambda signum, _: sys.exit(128 + signum))
        return run_ab(argv[0], argv[1])
    sys.stderr.write("usage: tools/ab.py REV_A REV_B\n"
                     "       tools/ab.py --report RAW.jsonl\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
