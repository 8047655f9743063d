#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <pythia_1c|tables_4c|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The C++ driver and its helper processes
are built from source into $CARGO_TARGET_DIR (default .bench_build);
build output goes to stderr. The driver's stdout is passed through, and
its last line is the one-line JSON result. `--workload all` runs the
three workloads in turn, printing each one's block. Exits non-zero,
printing no result, when the build, the run or the result line fails.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ["pythia_1c", "tables_4c", "serve_mixed"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(cmd):
    """Run cmd in its own process group; return (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main(argv):
    if argv == ["--self-test"]:
        build()
        exe = os.path.join(BUILD, "perfbench_selftest")
        if not os.path.exists(exe):
            sys.exit("perfbench: self-test needs GoogleTest")
        return subprocess.call([exe])

    build()
    if flag(argv, "--workload") == "all":
        at = argv.index("--workload") + 1
        for workload in WORKLOADS:
            print("== " + workload, flush=True)
            run_one(argv[:at] + [workload] + argv[at + 1:])
    else:
        run_one(argv)
    return 0


def flag(argv, name):
    """The value following option name in argv, or None."""
    at = argv.index(name) + 1 if name in argv else len(argv)
    return argv[at] if at < len(argv) else None


def declared_metrics(argv):
    """{name: unit} that BENCHMARK.json declares for this kind of run
    (per_layer with --trace 1, end_to_end otherwise); None without the
    file."""
    spec = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(spec):
        return None
    with open(spec) as f:
        bench = json.load(f)
    trace = flag(argv, "--trace")
    traced = trace is not None and trace.isdigit() and int(trace) != 0
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if traced else "end_to_end"]}


def run_one(argv):
    code, out = run([os.path.join(BUILD, "perfbench")] + argv)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: driver exited with %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        sys.exit("perfbench: driver printed no result line")
    declared = declared_metrics(argv)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared is not None and got != declared:
        sys.stderr.write(out)
        sys.exit("perfbench: metrics differ from BENCHMARK.json")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
