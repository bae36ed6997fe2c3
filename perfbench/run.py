#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
simulator libraries, the p2pd daemon and the perfbench binary from source
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. With --trace 0 the result carries every end_to_end metric
of BENCHMARK.json, with --trace 1 every per_layer metric, including the
layer self-time shares attributed here from the perfbench binary's SIGPROF
samples.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("overlay_churn_500", "mega_20k", "serve_mixed")
RUN_TIMEOUT_S = 170

# Layers for the sampled attribution: (qualified-name prefix, layer), most
# specific first. A frame outside these p2p:: namespaces is "other"; a frame
# outside p2p:: (libc, libstdc++, std:: templates, the benchmark's own code)
# is skipped and the sample is charged to its first p2p:: caller.
LAYER_PREFIXES = (
    ("p2p::sim::ShardedExecutor", "sim.sharded"),
    ("p2p::sim::SpinBarrier", "sim.sharded"),
    ("p2p::sim::", "sim"),
    ("p2p::mobility::", "mobility"),
    ("p2p::net::NeighborIndex", "net.index"),
    ("p2p::net::", "net"),
    ("p2p::routing::FloodService", "routing.flood"),
    ("p2p::routing::", "routing"),
    ("p2p::core::", "core"),
    ("p2p::fault::", "fault"),
    ("p2p::graph::", "graph"),
    ("p2p::scenario::", "scenario"),
    ("p2p::serve::", "serve"),
    ("p2p::util::JsonValue", "util.json"),
    ("p2p::util::parse_json", "util.json"),
    ("p2p::util::append_json_string", "util.json"),
    ("p2p::util::json_quote", "util.json"),
    ("p2p::util::(anonymous namespace)::Parser", "util.json"),
)
LAYERS = ("sim", "sim.sharded", "mobility", "net", "net.index", "routing",
          "routing.flood", "core", "fault", "graph", "scenario", "serve",
          "util.json", "libc", "other")
INVOKER = "p2p::sim::InplaceFn<"
# Generic containers are charged to their caller, like std:: templates.
GENERIC = ("p2p::util::FlatMap<",)

# Per-layer metrics a workload does not exercise; reported as 0.
SERVE_ONLY = ("serve.hit_ms_p50", "serve.miss_ms_p50", "serve.cache_hits",
              "serve.cache_misses", "serve.dedup_joins", "serve.overloads",
              "util.json.parse_us", "scenario.apply_us",
              "scenario.cache_read_us", "serve.handle_line_us")
SHARDED_PROBE = ("sim.sharded.events_per_s_t1", "sim.sharded.events_per_s_t2",
                 "sim.sharded.speedup_t2", "sim.sharded.self_share_t2")
SIM_ONLY = ("host.speed", "host.samples", "scenario.build_s",
            "scenario.simulate_s", "scenario.collect_s", "trace.span_ratio",
            "sim.events", "sim.queue_pushes", "sim.queue_pops",
            "sim.tombstones_purged", "sim.peak_queue",
            "net.frames_tx", "net.frames_delivered", "net.frames_lost",
            "net.delivery_ratio", "net.fanout", "net.payload_acquires",
            "net.payload_slab_allocs", "routing.control_msgs",
            "routing.data_delivery_ratio", "core.connect_msgs",
            "core.ping_msgs", "core.query_msgs",
            "core.connections_established", "core.answers_per_query",
            "fault.deaths", "fault.recoveries", "net.mem_mb",
            "routing.mem_mb", "core.mem_mb")
NOT_MEASURED = {
    "overlay_churn_500": SERVE_ONLY + SHARDED_PROBE,
    "mega_20k": SERVE_ONLY,
    "serve_mixed": SIM_ONLY + SHARDED_PROBE,
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def stop_group(proc):
    """Kills whatever is left in perfbench's process group and waits (up to
    10 s) until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def build(target_dir):
    """Configure once, then build incrementally; returns the build directory
    and the binaries. The build directory is keyed by this checkout's path,
    so checkouts sharing one $CARGO_TARGET_DIR never build each other's
    sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    key = hashlib.sha1(BENCH_DIR.encode()).hexdigest()[:12]
    build_dir = os.path.join(target_dir, "perfbench-" + key)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (build_dir, os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "p2pd"))


# ---- sampled attribution ----------------------------------------------------

def qualified_name(name):
    """The qualified function name of a demangled symbol: drops the return
    type and the parameter list, keeps template arguments."""
    anonymous = "(anonymous namespace)"
    depth = 0
    start = 0
    i = 0
    while i < len(name):
        ch = name[i]
        if ch == "(" and depth == 0:
            if name.startswith(anonymous, i):
                i += len(anonymous)
                continue
            if name.endswith("operator", 0, i) and name.startswith("()", i):
                i += 2
                continue
            return name[start:i]
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth = max(0, depth - 1)
        elif ch == " " and depth == 0:
            start = i + 1
        i += 1
    return name[start:]


def classify(name):
    """Layer of a demangled symbol; None for code outside p2p::."""
    qualified = qualified_name(name)
    if qualified.startswith(INVOKER) and "::invoke_impl<" in qualified:
        # Event trampoline: charge the scheduled lambda's owner.
        inner = qualified.split("::invoke_impl<", 1)[1]
        return classify(inner) or "sim"
    if not qualified.startswith("p2p::") or qualified.startswith(GENERIC):
        return None
    for prefix, layer in LAYER_PREFIXES:
        if qualified.startswith(prefix):
            return layer
    return "other"


class Symbols:
    def __init__(self, exe):
        out = subprocess.run(["nm", "-C", "-S", "--defined-only", exe],
                             capture_output=True, text=True, check=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwW":
                syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
        syms.sort()
        self.starts = [s[0] for s in syms]
        self.syms = syms
        self.cache = {}
        with open(exe, "rb") as f:
            header = f.read(18)
        self.pie = header[16:18] == b"\x03\x00"  # ET_DYN

    def layer(self, offset):
        if offset in self.cache:
            return self.cache[offset]
        i = bisect.bisect_right(self.starts, offset) - 1
        layer = None
        if i >= 0:
            start, size, name = self.syms[i]
            if offset < start + max(size, 1):
                layer = classify(name)
        self.cache[offset] = layer
        return layer


def attribute(profile_path, symbols):
    """Self-time shares per layer and the sample count of one profile."""
    counts = dict.fromkeys(LAYERS, 0)
    total = 0
    with open(profile_path) as f:
        header = [f.readline().split() for _ in range(3)]
        lo, hi, base = (int(x, 16) for x in header[1][1:4])
        shift = base if symbols.pie else 0
        for line in f:
            pcs = [int(x, 16) for x in line.split()]
            if not pcs:
                continue
            total += 1
            layer = None
            for k, pc in enumerate(pcs):
                if lo <= pc < hi:
                    # Return addresses point after the call instruction.
                    layer = symbols.layer(pc - shift - (1 if k else 0))
                    if layer:
                        break
            if layer is None:
                layer = "other" if lo <= pcs[0] < hi else "libc"
            counts[layer] += 1
    shares = {k: (v / total if total else 0.0) for k, v in counts.items()}
    return shares, total


# ---- main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    build_dir, perfbench, p2pd = build(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [perfbench, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work", work, "--p2pd", p2pd]
        # Own process group, so the daemon perfbench spawns is stopped
        # with it even when perfbench dies or overruns.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc)
            fail("workload exceeded %d s" % RUN_TIMEOUT_S)
        stop_group(proc)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("perfbench exited with code %d" % proc.returncode)
        raw = json.loads(lines[-1])

        metrics = {k: v for k, v in raw["metrics"].items()}
        if args.trace:
            symbols = Symbols(perfbench)
            profiles = raw["profiles"]
            if "main" not in profiles:
                fail("traced run wrote no profile")
            shares, _ = attribute(profiles["main"], symbols)
            for layer, share in shares.items():
                metrics[layer + ".self_share"] = {"value": share,
                                                  "unit": "ratio"}
            if "sharded_t2" in profiles:
                shares, _ = attribute(profiles["sharded_t2"], symbols)
                metrics["sim.sharded.self_share_t2"] = {
                    "value": shares["sim.sharded"], "unit": "ratio"}

        out = {}
        for name in wanted:
            if name in metrics:
                out[name] = metrics[name]
            elif name in NOT_MEASURED[args.workload]:
                out[name] = {"value": 0, "unit": next(
                    m["unit"] for m in spec["per_layer"] if m["name"] == name)}
            else:
                fail("metric %s missing from the %s result"
                     % (name, args.workload))
        result = {"correct": bool(raw["correct"]),
                  "attempted": int(raw["attempted"]),
                  "failed": int(raw["failed"]),
                  "metrics": out}
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
