#!/usr/bin/env python3
"""Builds prodigy_bench from this checkout's sources and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary's own report (one "metric <name> <value> <unit>" line per metric
and one "check" line per correctness gate) is echoed first.  The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"} carrying the end_to_end metrics of BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1).  The full result, with every metric and
gate, is kept as JSON in the build directory's results/ folder.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, taken
relative to the repository root.  Exit status: 0 when every correctness gate
held, non-zero (without a result line) when the build, the run or the result
cannot be produced, 1 (with a correct=false result line) when a gate failed.
Standard library only.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_TIMEOUT_S = 700  # with the run's own limit, a first run ends within 900 s
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, tmp):
    """Runs cmd in its own process group and returns (exit code, output).  The
    whole group is killed on timeout, so no compiler or benchmark process
    outlives this script.  Temporary files (the compiler's) go to `tmp`, so
    nothing is written outside the checkout."""
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    return proc.returncode, out


def build(build_dir):
    """Configures (once) and builds prodigy_bench, both within BUILD_TIMEOUT_S."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").is_file():
        code, out = run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, build_dir / "tmp")
        if code != 0:
            sys.stderr.write(out or "")
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, out = run(["cmake", "--build", str(build_dir), "--target", "prodigy_bench",
                     "-j", jobs], max(1.0, deadline - time.monotonic()), build_dir / "tmp")
    if code != 0:
        sys.stderr.write(out or "")
        fail("build failed")
    return build_dir / "prodigy_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = results / f"{stem}.json"
    if out_path.exists():
        out_path.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--out", str(out_path)]
    if args.trace:
        cmd += ["--trace", str(results / f"{stem}.trace.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, build_dir / "tmp")
    sys.stdout.write(out or "")
    if not out_path.is_file():
        fail(f"prodigy_bench exited {code} without a result")
    result = json.loads(out_path.read_text())

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"result has no metric {entry['name']}")
        if got["unit"] != entry["unit"]:
            fail(f"{entry['name']}: unit {got['unit']} != BENCHMARK.json {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
