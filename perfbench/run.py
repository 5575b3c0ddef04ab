#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the simdcv
libraries from ../src) into .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to stderr. The benchmark binary's stdout is
passed through; its last line is the JSON result. Before printing it, the
metric names are checked against BENCHMARK.json, so the two cannot drift.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout and
    when this script is interrupted or terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))
        raise
    return proc.returncode, out


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        rc, _ = run(cmd, 850, stdout=sys.stderr)
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    args = sys.argv[1:]
    build()
    rc, out = run([BINARY] + args, 175, cwd=BUILD, stdout=subprocess.PIPE,
                  text=True)
    lines = out.rstrip("\n").split("\n")
    if rc != 0 or "--self-test" in args:
        print(out, end="")
        return rc
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        print("\n".join(lines[:-1]))
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing %s, "
                 "extra %s" % (sorted(want - set(result["metrics"])),
                               sorted(set(result["metrics"]) - want)))
    print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
