#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sweep_64|serve_40> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the saufno library from
src/ plus the perfbench binary) into .bench_build/perfbench; later runs only
let the build tool confirm it is up to date. Build output goes to stderr.
The binary runs with every SAUFNO_* knob cleared and sizes the pool itself.

BENCHMARK.json is the one list of reported metrics. The binary prints notes
and then a JSON line with every metric it set; this script passes the notes
on and prints, as the last line of stdout, the result with exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1), in its order and with its units. A missing
end-to-end metric or a non-finite value fails the run; a per-layer metric
the workload does not exercise reads 0 and is noted.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(os.cpu_count() or 1)

    def step(cmd):
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        return done.returncode == 0

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not step(configure):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if not step(["cmake", "--build", build, "--target", "perfbench", "-j", jobs]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("SAUFNO_")}
    env["SAUFNO_LOG_LEVEL"] = "warn"
    cmd = [os.path.join(build, "perfbench"), *sys.argv[1:]]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        if lines:
            print(lines[-1])
        print("perfbench: the binary printed no result", file=sys.stderr)
        return done.returncode or 1
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = select_metrics(json.loads(lines[-1]), spec, trace_mode(sys.argv[1:]))
    if result is None:
        return 1
    print(json.dumps(result))
    return done.returncode


def trace_mode(args):
    """True when the arguments ask for a traced (per-layer) run."""
    for name, value in zip(args, args[1:]):
        if name == "--trace":
            try:
                return int(value) != 0
            except ValueError:
                return False  # the binary rejects the value itself
    return False


def select_metrics(result, spec, traced):
    """The binary's result with exactly the metrics BENCHMARK.json lists for
    this mode, or None (after saying why) when one cannot be reported."""
    metrics = {}
    ok = True
    for want in spec["per_layer" if traced else "end_to_end"]:
        name = want["name"]
        got = result["metrics"].get(name)
        if got is None and traced:
            print(f"# {name}: not exercised by this workload, reads 0")
            got = {"value": 0.0}
        if got is None:
            print(f"perfbench: missing end-to-end metric {name}", file=sys.stderr)
            ok = False
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"perfbench: metric {name} is not finite", file=sys.stderr)
            ok = False
            continue
        metrics[name] = {"value": value, "unit": want["unit"]}
    if not ok:
        return None
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
