#!/usr/bin/env python3
"""Layer-ladder benchmark of absort.

Builds the absort library and the benchmark binary from this checkout, runs
one workload and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Everything else
(build output, diagnostics) goes to standard error, except one record line
(host, seed, commit, backends, jit counters) just before the result.

    python3 layerbench/run.py --workload batch-offline --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
layerbench/README.md).  Run it from the root of the checkout.  A wrong
answer anywhere exits 3 without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-offline", "edge-open-mixed", "edge-closed-hot")
# Set-up is measured this many times per run (each a fresh process on an
# empty JIT cache) and reported as the median.
SETUP_SAMPLES = 5
# A build from scratch must end inside 900 s, and the measured part of the
# run inside 180 s.
BUILD_BUDGET_S = 840.0
RUN_BUDGET_S = 170.0


class Failure(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "layerbench")


def build(out_dir, deadline):
    """Configures (once) and builds the benchmark binary; returns its path."""
    env = dict(os.environ, TMPDIR=scratch_dir(out_dir))

    def cmd(args):
        rc = subprocess.call(args, stdout=sys.stderr, stderr=sys.stderr, env=env,
                             timeout=max(1.0, deadline - time.monotonic()))
        return rc == 0

    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", out_dir, "--target", "layerbench", "--parallel", str(nproc())]
    fresh = not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt"))
    if (fresh and not cmd(configure)) or not cmd(compile_):
        # A cache left by another source tree cannot be reused: start over once.
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(scratch_dir(out_dir), exist_ok=True)
        if not (cmd(configure) and cmd(compile_)):
            raise Failure("build failed", 2)
    return os.path.join(out_dir, "layerbench")


def scratch_dir(out_dir):
    path = os.path.join(out_dir, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def spawn(binary, args, out_dir, deadline):
    """Runs one benchmark process on a private, empty JIT cache (removed
    afterwards) with ABSORT_BACKEND cleared.  Returns (seconds from spawn to
    its ready line or None, its metrics message)."""
    cache = os.path.join(out_dir, "jit", uuid.uuid4().hex)
    tmp = os.path.join(cache, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ, ABSORT_JIT_CACHE=cache, TMPDIR=tmp)
    env.pop("ABSORT_BACKEND", None)
    ready = None
    message = None
    start = time.perf_counter()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            try:
                msg = json.loads(line)
            except ValueError:
                log(line.rstrip())
                continue
            if msg.get("kind") == "ready":
                ready = time.perf_counter() - start
            elif msg.get("kind") == "metrics":
                message = msg
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(cache, ignore_errors=True)
    if rc == 3:
        raise Failure(f"wrong answer in `layerbench {' '.join(args)}`", 3)
    needs_ready = args[0] in ("setup", "run")
    needs_metrics = args[0] != "setup"
    if rc != 0 or (needs_ready and ready is None) or (needs_metrics and message is None):
        raise Failure(f"`layerbench {' '.join(args)}` exited {rc} without its output")
    return ready, message


def steal_seconds():
    """CPU time the hypervisor took from this machine so far (the `steal`
    column of /proc/stat), or None where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def tree_digest(*dirs):
    """Content hash of the sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_record(seed):
    commit = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    model, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1]
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "source_digest": tree_digest("src", "layerbench"),
        "nproc": nproc(),
        "cpu_model": model,
        "avx512f": "avx512f" in flags.split(),
        "traffic": "loopback 127.0.0.1 (edge workloads)",
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    for needed in (os.path.join(ROOT, "src", "CMakeLists.txt"), os.path.join(HERE, "CMakeLists.txt")):
        if not os.path.isfile(needed):
            raise Failure(f"missing {os.path.relpath(needed, ROOT)}: run from a full checkout", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out, time.monotonic() + BUILD_BUDGET_S)
    deadline = time.monotonic() + RUN_BUDGET_S
    expected = expected_metrics(a.trace)
    common = ["--seed", str(a.seed)]
    workload = ["--workload", a.workload] + common + ["--seconds", str(a.seconds)]
    record = host_record(a.seed)
    steal_before = steal_seconds()

    metrics = {}
    if a.trace == 0:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            ready, _ = spawn(binary, ["setup"] + workload, out, deadline)
            setup.append(ready)
        ready, msg = spawn(binary, ["run"] + workload, out, deadline)
        setup.append(ready)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        record["setup_samples_s"] = setup
        children = [msg]
    else:
        spans = os.path.join(out, "spans", f"{a.workload}-seed{a.seed}.csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        _, low = spawn(binary, ["ladder"] + common, out, deadline)
        _, msg = spawn(binary, ["trace"] + workload + ["--spans", spans], out, deadline)
        record["spans_file"] = os.path.relpath(spans, ROOT)
        record["ladder"] = low["info"]
        children = [low, msg]
    for child in children:
        for name, (value, unit) in child["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
    record.update(msg["info"])
    steal_after = steal_seconds()
    if steal_before is not None and steal_after is not None:
        # Time the host ran other guests on this machine's CPUs during the
        # run: large values mean the figures were taken on a contended host.
        record["host_steal_s"] = round(steal_after - steal_before, 2)

    if set(metrics) != expected:
        raise Failure(f"metrics differ from BENCHMARK.json: missing {sorted(expected - set(metrics))}, "
                      f"extra {sorted(set(metrics) - expected)}")
    print(json.dumps({"kind": "record", **record}), flush=True)
    print(json.dumps({
        "correct": True,
        "attempted": int(msg["info"]["attempted"]),
        "failed": int(msg["info"]["failed"]),
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        log(f"layerbench: {e}")
        sys.exit(e.code)
    except subprocess.TimeoutExpired as e:
        log(f"layerbench: timed out: {e}")
        sys.exit(1)
