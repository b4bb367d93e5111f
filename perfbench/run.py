#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and compiles the
benchmark (perfbench/CMakeLists.txt, which compiles the program from src/)
into the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
Later runs rebuild incrementally. Every run then executes the self-test and
the benchmark binary with the given flags, and checks its result line: the
last line of stdout must be one JSON object reporting correct = true and
every metric BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1). That line is echoed as this script's last line.
The exit status is non-zero when the build, the self-test, the benchmark's
own checks or the result check fail.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# The benchmark must finish well inside the caller's 180 s limit; the build
# (first run only) gets its own, longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", out] + generator, log, 300) != 0:
            fail("configure failed; see " + log)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                   "perfbench_selftest"], log, BUILD_TIMEOUT_S) != 0:
        fail("build failed; see " + log)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        fail("result line has the wrong keys")
    missing = [name for name in expected_metrics(trace) if name not in result["metrics"]]
    if missing:
        fail("result misses metrics: " + ", ".join(missing))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("correctness check failed")


def flag_value(argv, name):
    for i, arg in enumerate(argv):
        if arg == "--" + name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--" + name + "="):
            return arg.split("=", 1)[1]
    return None


def main(argv):
    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-test failed")
    cmd = [os.path.join(out, "perfbench")] + argv + ["--trace-dir", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0 or any(arg in ("--help", "-h") for arg in argv):
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result line goes out first, so the result stays last.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    check_result(lines[-1], flag_value(argv, "trace") == "1")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
