#!/usr/bin/env python3
"""Builds and runs the PartIR benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark binary
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later runs
only rebuild what changed. The binary's report goes to standard output; the
last line is one JSON object with the keys correct, attempted, failed and
metrics, holding the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). A traced run also writes trace.json and
self_time.txt under <build dir>/perfbench-out/<workload>-seed<seed>/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "serve_decode", "serve_chain")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def run_child(command, capture):
    """Runs `command`, stopping it if this process is asked to stop."""
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE if capture else sys.stderr)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return child.returncode, (out.decode() if capture else "")


def build(build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        return None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = [cmake, "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        code, _ = run_child(command, capture=False)
        if code != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run_child([cmake, "--build", build_dir, "--target",
                         "partir_perfbench", "-j", jobs], capture=False)
    if code != 0:
        return None
    return os.path.join(build_dir, "partir_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if not os.path.exists(os.path.join(ROOT, "src", "api", "partir.h")):
        return fail("no PartIR sources next to the benchmark (expected "
                    "src/api/partir.h)")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return fail("build failed")

    run_name = "%s-seed%d" % (args.workload, args.seed)
    code, out = run_child(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", os.path.join(build_root, "perfbench-out", run_name),
         "--tmp-dir", os.path.join(build_root, "perfbench-tmp")],
        capture=True)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        return fail("the benchmark binary exited with %d and no result" % code)
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(result["metrics"]) - set(declared))
    if unknown:
        return fail("metrics missing from BENCHMARK.json: " +
                    ", ".join(unknown))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            return fail("the benchmark binary did not report " + name)
        value = result["metrics"][name]
        if value["unit"] != metric["unit"]:
            return fail("%s: unit %s, BENCHMARK.json says %s" %
                        (name, value["unit"], metric["unit"]))
        metrics[name] = {"value": value["value"], "unit": value["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
