#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark program (nlh_perfbench) from source
into .bench_build/ at the repository root (Release, incremental), runs it
with the same arguments, and checks that the last line of its output is the
result object with exactly the metrics BENCHMARK.json lists for the trace
mode.
Build output goes to stderr; on any failure the script exits non-zero
without printing a result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "nlh_perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected CMakeLists.txt and src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "nlh_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line of nlh_perfbench is not a JSON object")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v.get("unit") for k, v in res["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
                 f"or units differ")


def main(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or "--trace" not in args or "--seconds" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    build()
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    # A run must end within 180 s of its start; the build check before it
    # takes about a second once the first build is done.
    timeout = 170
    try:
        proc = subprocess.run([str(BINARY), *argv, "--out-dir", str(out_dir)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"nlh_perfbench did not finish within {timeout} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"nlh_perfbench failed (exit code {proc.returncode})")
    check_result(lines[-1], args["--trace"] == "1")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
